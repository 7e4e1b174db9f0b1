open Wsp_sim
open Wsp_machine
open Wsp_power

type row = {
  psu : Psu.spec;
  platform : Platform.t;
  busy : bool;
  window : Time.t;
  paper : Time.t;
}

let cases =
  [
    (Psu.atx_400, Platform.amd_4180, true, Time.ms 346.0);
    (Psu.atx_400, Platform.amd_4180, false, Time.ms 392.0);
    (Psu.atx_525, Platform.amd_4180, true, Time.ms 22.0);
    (Psu.atx_525, Platform.amd_4180, false, Time.ms 71.0);
    (Psu.atx_750, Platform.intel_c5528, true, Time.ms 10.0);
    (Psu.atx_750, Platform.intel_c5528, false, Time.ms 10.0);
    (Psu.atx_1050, Platform.intel_c5528, true, Time.ms 33.0);
    (Psu.atx_1050, Platform.intel_c5528, false, Time.ms 33.0);
  ]

let measure_once ~spec ~load ~rng =
  let engine = Engine.create () in
  let psu = Psu.create ~engine ~spec ~load in
  let scope = Oscilloscope.create ~rng psu in
  Engine.run_until engine (Time.ms 5.0);
  let fail_at = Engine.now engine in
  Psu.fail_input psu ~jitter:rng ();
  let until = Time.add fail_at (Time.ms 600.0) in
  Engine.run_until engine until;
  match Oscilloscope.measure_window scope ~fail_at ~until with
  | Some w -> w
  | None -> Time.sub until fail_at

let runs = 3
let seed = 23

let data () =
  (* Each configuration is an independent simulation drawing from its
     own deterministic RNG stream, so the sweep can fan out across
     domains with results identical to sequential execution. *)
  Parallel.map
    (fun (i, (spec, platform, busy, paper)) ->
      let rng = Rng.create ~seed:(seed + (31 * i)) in
      let load =
        if busy then platform.Platform.power_busy else platform.Platform.power_idle
      in
      let windows =
        List.init runs (fun _ -> measure_once ~spec ~load ~rng)
      in
      let worst = List.fold_left Time.min (List.hd windows) windows in
      { psu = spec; platform; busy; window = worst; paper })
    (List.mapi (fun i c -> (i, c)) cases)

let run ~full:_ =
  Report.heading "Figure 7: Residual energy windows across configurations (ms)";
  Report.table
    ~header:[ "PSU"; "System"; "Load"; "Window"; "Paper" ]
    (List.map
       (fun r ->
         [
           r.psu.Psu.name;
           r.platform.Platform.name;
           (if r.busy then "Busy" else "Idle");
           Report.time_ms_cell r.window;
           Report.time_ms_cell r.paper;
         ])
       (data ()));
  Report.note "each value is the worst (lowest) observed of 3 runs"
