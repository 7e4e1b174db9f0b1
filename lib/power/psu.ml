open Wsp_sim

type rail = V12 | V5 | V3_3

let rail_nominal = function V12 -> 12.0 | V5 -> 5.0 | V3_3 -> 3.3
let rail_name = function V12 -> "DC 12V" | V5 -> "DC 5V" | V3_3 -> "DC 3.3V"
let all_rails = [ V12; V5; V3_3 ]

type spec = {
  name : string;
  rated : Units.Power.t;
  residual_energy : Units.Energy.t;
  max_hold : Time.t;
  collapse_tau : Time.t;
  run_jitter : float;
}

(* Calibration: windows in Figure 7 are
     400 W (AMD):   busy 346 ms, idle 392 ms
     525 W (AMD):   busy  22 ms, idle  71 ms
     750 W (Intel): busy  10 ms, idle  10 ms
    1050 W (Intel): busy  33 ms, idle  33 ms
   with AMD busy/idle loads of 150/60 W and Intel 350/150 W
   (Platform.power_busy/idle). Energy-limited PSUs reproduce the
   load-dependent pairs; cutoff-limited PSUs reproduce the equal pairs. *)

let atx_400 =
  {
    name = "400W PSU";
    rated = Units.Power.watts 400.0;
    residual_energy = Units.Energy.joules 51.9;
    max_hold = Time.ms 392.0;
    collapse_tau = Time.ms 9.0;
    run_jitter = 0.03;
  }

let atx_525 =
  {
    name = "525W PSU";
    rated = Units.Power.watts 525.0;
    residual_energy = Units.Energy.joules 4.26;
    max_hold = Time.ms 71.0;
    collapse_tau = Time.ms 6.0;
    run_jitter = 0.05;
  }

let atx_750 =
  {
    name = "750W PSU";
    rated = Units.Power.watts 750.0;
    residual_energy = Units.Energy.joules 20.0;
    max_hold = Time.ms 10.0;
    collapse_tau = Time.ms 5.0;
    run_jitter = 0.04;
  }

let atx_1050 =
  {
    name = "1050W PSU";
    rated = Units.Power.watts 1050.0;
    residual_energy = Units.Energy.joules 40.0;
    max_hold = Time.ms 33.0;
    collapse_tau = Time.ms 8.0;
    run_jitter = 0.04;
  }

let specs = [ atx_400; atx_525; atx_750; atx_1050 ]

let spec_by_name s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun spec -> String.lowercase_ascii spec.name = s) specs

type t = {
  engine : Engine.t;
  spec : spec;
  mutable load : Units.Power.t;
  mutable fail_at : Time.t option;  (* When PWR_OK dropped. *)
  mutable window : Time.t;  (* Window length chosen at failure time. *)
  mutable pwr_ok_cbs : (Engine.t -> unit) list;
  mutable output_lost_cbs : (Engine.t -> unit) list;
}

let create ~engine ~spec ~load =
  if Units.Power.to_watts load <= 0.0 then invalid_arg "Psu.create: load <= 0";
  {
    engine;
    spec;
    load;
    fail_at = None;
    window = Time.zero;
    pwr_ok_cbs = [];
    output_lost_cbs = [];
  }

let spec t = t.spec
let load t = t.load
let set_load t load = t.load <- load

let nominal_window t =
  Time.min (Units.Energy.duration_at t.spec.residual_energy t.load) t.spec.max_hold

let on_pwr_ok_drop t f = t.pwr_ok_cbs <- t.pwr_ok_cbs @ [ f ]
let on_output_lost t f = t.output_lost_cbs <- t.output_lost_cbs @ [ f ]

let fail_input t ?jitter () =
  match t.fail_at with
  | Some _ -> invalid_arg "Psu.fail_input: input already failed"
  | None ->
      let now = Engine.now t.engine in
      let scale =
        match jitter with
        | None -> 1.0
        | Some rng ->
            (* Worst-of-N experiments sample below nominal as well. *)
            1.0 +. Rng.uniform rng ~lo:(-.t.spec.run_jitter) ~hi:t.spec.run_jitter
      in
      t.fail_at <- Some now;
      t.window <- Time.scale (nominal_window t) scale;
      List.iter (fun f -> Engine.schedule t.engine ~after:Time.zero f) t.pwr_ok_cbs;
      List.iter (fun f -> Engine.schedule t.engine ~after:t.window f) t.output_lost_cbs

let restore_input t =
  t.fail_at <- None;
  t.window <- Time.zero

let pwr_ok t ~at =
  match t.fail_at with None -> true | Some t0 -> Time.(at < t0)

let rail_voltage t rail ~at =
  let nominal = rail_nominal rail in
  match t.fail_at with
  | None -> nominal
  | Some t0 ->
      let lost = Time.add t0 t.window in
      if Time.(at <= lost) then nominal
      else
        let dt = Time.to_s (Time.sub at lost) in
        let tau = Time.to_s t.spec.collapse_tau in
        nominal *. exp (-.dt /. tau)

let powered t ~at =
  match t.fail_at with
  | None -> true
  | Some t0 -> Time.(at <= Time.add t0 t.window)
