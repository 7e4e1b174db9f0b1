open Wsp_sim
open Wsp_machine
open Wsp_power

type result = {
  traces : Trace.t list;
  measured_window : Time.t option;
  nominal_window : Time.t;
}

let seed = 17

let data () =
  let engine = Engine.create () in
  let platform = Platform.intel_c5528 in
  let psu =
    Psu.create ~engine ~spec:Psu.atx_1050 ~load:platform.Platform.power_busy
  in
  let rng = Rng.create ~seed in
  let scope = Oscilloscope.create ~rng psu in
  (* Fail input power at t = 20 ms and observe [-20 ms, +100 ms] around
     the failure, as the published trace does. *)
  Engine.run_until engine (Time.ms 20.0);
  let fail_at = Engine.now engine in
  Psu.fail_input psu ();
  let until = Time.add fail_at (Time.ms 100.0) in
  Engine.run_until engine until;
  let traces = Oscilloscope.capture scope ~from:Time.zero ~until ~rails:Psu.all_rails in
  let measured_window = Oscilloscope.measure_window scope ~fail_at ~until in
  { traces; measured_window; nominal_window = Psu.nominal_window psu }

let run ~full:_ =
  Report.heading "Figure 6: Residual energy window (Intel testbed, 1050W PSU, busy)";
  let r = data () in
  (* Downsample the 100 kHz capture for printing: every 4 ms. *)
  let step = Time.ms 4.0 in
  let upto = Time.ms 120.0 in
  let rows = ref [] in
  let at = ref Time.zero in
  while Time.(!at <= upto) do
    let row =
      Report.float_cell ~decimals:1 (Time.to_ms !at -. 20.0)
      :: List.map
           (fun trace ->
             match Trace.value_at trace !at with
             | Some v -> Report.float_cell v
             | None -> "-")
           r.traces
    in
    rows := row :: !rows;
    at := Time.add !at step
  done;
  Report.table
    ~header:("Time (ms)" :: List.map Trace.name r.traces)
    (List.rev !rows);
  (* The published figure: sampled rail voltages around the failure. *)
  let plot trace =
    ( Trace.name trace,
      Array.to_list
        (Array.map
           (fun (at, v) -> (Time.to_ms at -. 20.0, v))
           (Trace.samples trace))
      |> List.filteri (fun i _ -> i mod 40 = 0) )
  in
  Report.chart ~height:14 ~xlabel:"ms after PWR_OK drop" ~ylabel:"volts"
    (List.map plot r.traces);
  (match r.measured_window with
  | Some w ->
      Report.note
        (Printf.sprintf "measured window: %.1f ms (paper: 33 ms); nominal %.1f ms"
           (Time.to_ms w) (Time.to_ms r.nominal_window))
  | None -> Report.note "no voltage drop detected in the capture window")
