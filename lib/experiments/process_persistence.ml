open Wsp_sim
open Wsp_core

type row = {
  label : string;
  outcome : string;
  restart_latency : Time.t;
  state_preserved : string;
  device_story : string;
}

let failure_cycle ~seed ~encapsulation =
  let sys = System.create ~seed () in
  let heap = System.heap sys in
  let rng = Rng.create ~seed in
  let proc = Process.create ~encapsulation ~heap ~threads:8 ~rng () in
  ignore (Process.open_handle proc Process.File);
  ignore (Process.open_handle proc Process.Socket);
  ignore (Process.open_handle proc Process.Timer);
  Process.block_thread proc ~thread:2 ~on:Process.Socket;
  Process.block_thread proc ~thread:5 ~on:Process.File;
  Process.checkpoint proc;
  System.inject_power_failure sys;
  (sys, proc)

let seed = 77

let data () =
  (* Whole-system persistence: the machine itself comes back. *)
  let wsp_row =
    let sys, _ = failure_cycle ~seed ~encapsulation:Process.Library_os in
    match System.power_on_and_restore sys with
    | System.Recovered { resume_latency; _ } ->
        {
          label = "Whole-system (WSP)";
          outcome = "recovered";
          restart_latency = resume_latency;
          state_preserved = "heap + stacks + thread contexts + OS state";
          device_story = "device stack must be restarted/replayed";
        }
    | (System.Invalid_marker | System.No_image) as o ->
        {
          label = "Whole-system (WSP)";
          outcome = System.outcome_name o;
          restart_latency = Time.zero;
          state_preserved = "-";
          device_story = "-";
        }
  in
  (* Process persistence: fresh kernel, process image revived. *)
  let process_row label encapsulation =
    let sys, proc = failure_cycle ~seed ~encapsulation in
    match System.power_on_and_restore sys with
    | System.Recovered _ -> (
        let report = Process.restore_on_fresh_os proc in
        match report.Process.outcome with
        | `Restored ->
            {
              label;
              outcome =
                Printf.sprintf "recovered (%d syscalls aborted+retried)"
                  report.Process.syscalls_aborted;
              restart_latency = report.Process.restart_latency;
              state_preserved =
                Printf.sprintf "heap + stacks + contexts; %d handles re-created"
                  report.Process.handles_recreated;
              device_story = "fresh kernel: clean device stack for free";
            }
        | `Unrestorable why ->
            {
              label;
              outcome = "unrestorable: " ^ why;
              restart_latency =
                (Wsp_cluster.Recovery_storm.run
                   Wsp_cluster.Recovery_storm.single_server)
                  .Wsp_cluster.Recovery_storm.full_recovery;
              state_preserved = "nothing: recover from the back end";
              device_story = "fresh kernel";
            })
    | (System.Invalid_marker | System.No_image) as o ->
        {
          label;
          outcome = System.outcome_name o;
          restart_latency = Time.zero;
          state_preserved = "-";
          device_story = "-";
        }
  in
  [
    wsp_row;
    process_row "Process persistence (library OS)" Process.Library_os;
    process_row "Process persistence (direct kernel)" Process.Direct_kernel;
  ]

let run ~full:_ =
  Report.heading "Process persistence (6): reviving applications on a fresh OS";
  Report.table
    ~header:[ "Model"; "Outcome"; "Restart"; "State preserved"; "Devices" ]
    (List.map
       (fun r ->
         [
           r.label;
           r.outcome;
           Time.to_string r.restart_latency;
           r.state_preserved;
           r.device_story;
         ])
       (data ()));
  Report.note
    "a library OS (Drawbridge) makes process persistence workable; direct kernel dependencies make it unrestorable (the Windows case)"
