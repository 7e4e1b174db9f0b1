open Wsp_sim
open Wsp_machine
open Wsp_nvheap
open Wsp_core
module Psu = Wsp_power.Psu

type row = {
  label : string;
  window : Time.t;
  host_save : Time.t option;
  outcome : System.outcome;
  data_intact : bool;
}

let cases =
  [
    ("Intel C5528 / 1050W / busy", Platform.intel_c5528, Psu.atx_1050, true,
     System.Restore_reinit);
    ("Intel C5528 / 750W / busy", Platform.intel_c5528, Psu.atx_750, true,
     System.Restore_reinit);
    ("AMD 4180 / 525W / busy", Platform.amd_4180, Psu.atx_525, true,
     System.Virtualized_replay);
    ("AMD 4180 / 400W / idle", Platform.amd_4180, Psu.atx_400, false,
     System.Restore_reinit);
    ("Intel C5528 / 1050W / busy, ACPI strawman", Platform.intel_c5528,
     Psu.atx_1050, true, System.Acpi_save);
  ]

let words = 512

let run_case ~seed (label, platform, psu, busy, strategy) =
  let sys = System.create ~platform ~psu ~busy ~strategy ~seed () in
  let heap = System.heap sys in
  let addr = Pheap.alloc heap (8 * words) in
  let rng = Rng.create ~seed in
  let expected = Array.init words (fun _ -> Rng.bits64 rng) in
  Array.iteri
    (fun i v -> Pheap.write_u64 heap ~addr:(addr + (8 * i)) v)
    expected;
  Pheap.set_root heap addr;
  System.inject_power_failure sys;
  let report = System.report sys in
  let outcome = System.power_on_and_restore sys in
  let data_intact =
    match outcome with
    | System.Recovered _ ->
        let heap' = System.attach_heap sys in
        let root = Pheap.root heap' in
        root = addr
        && Array.for_all
             (fun i ->
               Int64.equal
                 (Pheap.read_u64 heap' ~addr:(root + (8 * i)))
                 expected.(i))
             (Array.init words (fun i -> i))
    | System.Invalid_marker | System.No_image -> false
  in
  {
    label;
    window = report.System.window;
    host_save = System.host_save_latency report;
    outcome;
    data_intact;
  }

let seed = 99

let data () = List.map (run_case ~seed) cases

let run ~full:_ =
  Report.heading "WSP protocol: end-to-end power-failure cycles";
  Report.table
    ~header:[ "Scenario"; "Window (ms)"; "Host save (ms)"; "Outcome"; "Data intact" ]
    (List.map
       (fun r ->
         [
           r.label;
           Report.time_ms_cell r.window;
           (match r.host_save with
           | Some t -> Report.time_ms_cell t
           | None -> "did not finish");
           System.outcome_name r.outcome;
           string_of_bool r.data_intact;
         ])
       (data ()));
  Report.note
    "a failure becomes suspend/resume when the save fits the window; the ACPI strawman is caught by the valid marker"
