open Wsp_nvheap
module System = Wsp_core.System

type result = {
  step : System.save_step;
  strategy : System.restart_strategy;
  outcome : System.outcome;
  data_intact : bool;
  violation : string option;
}

(* A recognisable pattern of cached stores: 64 words the save path's
   cache flush must carry into the NVDIMM image. Small enough never to
   be evicted on its own, so a skipped flush genuinely loses it. *)
let pattern_words = 64
let pattern_value i = Int64.logxor 0x5DEECE66DL (Int64.of_int (i * 1299721))

let write_pattern nvram ~base =
  for i = 0 to pattern_words - 1 do
    Nvram.write_u64 nvram ~addr:(base + (8 * i)) (pattern_value i)
  done

let pattern_intact nvram ~base =
  let ok = ref true in
  for i = 0 to pattern_words - 1 do
    if not (Int64.equal (Nvram.read_u64 nvram ~addr:(base + (8 * i))) (pattern_value i))
    then ok := false
  done;
  !ok

let run_one ~strategy ~validate_marker ~seed step =
  let sys = System.create ~strategy ~validate_marker ~seed () in
  let base = System.app_base sys in
  write_pattern (System.nvram sys) ~base;
  System.inject_power_failure_at sys step;
  let outcome = System.power_on_and_restore sys in
  let report = System.report sys in
  let data_intact =
    match outcome with
    | System.Recovered _ -> pattern_intact (System.nvram sys) ~base
    | System.Invalid_marker | System.No_image -> false
  in
  let violation =
    match outcome with
    | System.Recovered _ when not data_intact ->
        Some
          "silent corruption: boot accepted the image but the restored \
           memory is not the pre-failure contents"
    | System.Recovered _
      when validate_marker && report.System.marker_written_at = None ->
        Some "resumed from an image whose valid marker was never written"
    | System.Recovered _ | System.Invalid_marker | System.No_image -> None
  in
  { step; strategy; outcome; data_intact; violation }

let run ?(validate_marker = true) ?(seed = 42) () =
  List.concat_map
    (fun strategy ->
      List.map
        (fun step -> run_one ~strategy ~validate_marker ~seed step)
        System.save_steps)
    System.[ Acpi_save; Restore_reinit; Virtualized_replay ]

let violations results = List.filter (fun r -> r.violation <> None) results

let pp_result ppf r =
  Fmt.pf ppf "%-18s %-20s -> %-14s data %s%s"
    (System.strategy_name r.strategy)
    (System.save_step_name r.step)
    (System.outcome_name r.outcome)
    (if r.data_intact then "intact" else "lost/refused")
    (match r.violation with None -> "" | Some v -> "  VIOLATION: " ^ v)
