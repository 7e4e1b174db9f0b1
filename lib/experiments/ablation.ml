open Wsp_sim
open Wsp_nvheap
open Wsp_core

type marker_row = {
  marker_enabled : bool;
  outcome : string;
  claimed_recovery : bool;
  data_correct : bool;
}

let words = 256

let populate sys ~seed =
  let heap = System.heap sys in
  let addr = Pheap.alloc heap (8 * words) in
  let rng = Rng.create ~seed in
  let expected = Array.init words (fun _ -> Rng.bits64 rng) in
  Array.iteri (fun i v -> Pheap.write_u64 heap ~addr:(addr + (8 * i)) v) expected;
  Pheap.set_root heap addr;
  (addr, expected)

let verify sys addr expected =
  try
    let heap = System.attach_heap sys in
    Pheap.root heap = addr
    && Array.for_all
         (fun i ->
           Int64.equal (Pheap.read_u64 heap ~addr:(addr + (8 * i))) expected.(i))
         (Array.init words (fun i -> i))
  with _ -> false

let marker_data () =
  let seed = 51 in
  List.map
    (fun validate_marker ->
      (* The ACPI strawman under stress load always tears the save. *)
      let sys =
        System.create ~strategy:System.Acpi_save ~busy:true ~validate_marker
          ~seed ()
      in
      let addr, expected = populate sys ~seed in
      System.inject_power_failure sys;
      let outcome = System.power_on_and_restore sys in
      let claimed_recovery =
        match outcome with
        | System.Recovered _ -> true
        | System.Invalid_marker | System.No_image -> false
      in
      {
        marker_enabled = validate_marker;
        outcome = System.outcome_name outcome;
        claimed_recovery;
        data_correct = claimed_recovery && verify sys addr expected;
      })
    [ true; false ]

type strategy_row = {
  strategy : System.restart_strategy;
  save_path : Time.t option;
  resume : Time.t option;
  survived : bool;
}

let strategy_data () =
  let seed = 53 in
  List.map
    (fun strategy ->
      let sys = System.create ~strategy ~busy:true ~seed () in
      let addr, expected = populate sys ~seed in
      System.inject_power_failure sys;
      let report = System.report sys in
      let outcome = System.power_on_and_restore sys in
      let resume =
        match outcome with
        | System.Recovered { resume_latency; _ } -> Some resume_latency
        | System.Invalid_marker | System.No_image -> None
      in
      {
        strategy;
        save_path = System.host_save_latency report;
        resume;
        survived = (match outcome with
                   | System.Recovered _ -> verify sys addr expected
                   | System.Invalid_marker | System.No_image -> false);
      })
    [ System.Acpi_save; System.Restore_reinit; System.Virtualized_replay ]

let run ~full:_ =
  Report.heading "Ablation: the valid-image marker (6, \"NVRAM failures\")";
  Report.table
    ~header:[ "Marker check"; "Outcome"; "Claimed recovery"; "Data actually correct" ]
    (List.map
       (fun r ->
         [
           (if r.marker_enabled then "on" else "OFF");
           r.outcome;
           string_of_bool r.claimed_recovery;
           string_of_bool r.data_correct;
         ])
       (marker_data ()));
  Report.note
    "without the marker a torn save restores silently corrupted state; with it the failure is detected and the back end takes over";
  Report.heading "Ablation: device handling on the save vs restore path (4)";
  Report.table
    ~header:[ "Strategy"; "Host save path"; "Resume latency"; "State survived" ]
    (List.map
       (fun r ->
         [
           System.strategy_name r.strategy;
           (match r.save_path with
           | Some t -> Time.to_string t
           | None -> "blew the window");
           (match r.resume with Some t -> Time.to_string t | None -> "-");
           string_of_bool r.survived;
         ])
       (strategy_data ()));
  Report.note
    "saving device state costs seconds against a 33 ms window; restore-path strategies keep the save in milliseconds"
