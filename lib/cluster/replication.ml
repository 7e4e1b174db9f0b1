open Wsp_sim

type params = {
  state : Units.Size.t;
  backend_bandwidth : Units.Bandwidth.t;
  update_rate : Units.Bandwidth.t;
  outage_mean : Time.t;
  permanent_failure_prob : float;
}

let default =
  {
    state = Units.Size.gib 256;
    backend_bandwidth = Units.Bandwidth.gib_per_s 0.5;
    update_rate = Units.Bandwidth.mib_per_s 8.0;
    outage_mean = Time.s 60.0;
    permanent_failure_prob = 0.05;
  }

type assessment = {
  delay : Time.t;
  expected_backend_bytes : float;
  expected_exposure : Time.t;
  rebuild_probability : float;
}

let assess p ~delay =
  if Time.is_negative delay then invalid_arg "Replication.assess: negative delay";
  let m = Time.to_s p.outage_mean in
  let d = Time.to_s delay in
  let q = 1.0 -. p.permanent_failure_prob in
  (* Probability the machine is back within the delay. *)
  let p_back = q *. (1.0 -. exp (-.d /. m)) in
  (* E[outage | outage <= d] for an exponential distribution. *)
  let e_outage_given_back =
    if d <= 0.0 then 0.0
    else m -. (d *. exp (-.d /. m) /. (1.0 -. exp (-.d /. m)))
  in
  let full = float_of_int (Units.Size.to_bytes p.state) in
  let missed =
    Units.Bandwidth.to_bytes_per_s p.update_rate *. e_outage_given_back
  in
  let rebuild_probability = 1.0 -. p_back in
  let expected_backend_bytes =
    (rebuild_probability *. full) +. (p_back *. missed)
  in
  (* Exposure: until return (if within the delay) or until the rebuild
     completes (delay + transfer) otherwise. *)
  let rebuild_time = d +. (full /. Units.Bandwidth.to_bytes_per_s p.backend_bandwidth) in
  let expected_exposure =
    (p_back *. e_outage_given_back) +. (rebuild_probability *. rebuild_time)
  in
  {
    delay;
    expected_backend_bytes;
    expected_exposure = Time.s expected_exposure;
    rebuild_probability;
  }

let optimal_delay p ~exposure_cost_per_s ~byte_cost =
  let cost delay =
    let a = assess p ~delay in
    (byte_cost *. a.expected_backend_bytes)
    +. (exposure_cost_per_s *. Time.to_s a.expected_exposure)
  in
  let best = ref (Time.zero, cost Time.zero) in
  let horizon = 10.0 *. Time.to_s p.outage_mean in
  let steps = 200 in
  for i = 1 to steps do
    let d = Time.s (horizon *. float_of_int i /. float_of_int steps) in
    let c = cost d in
    if c < snd !best then best := (d, c)
  done;
  !best
