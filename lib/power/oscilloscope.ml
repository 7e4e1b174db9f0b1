open Wsp_sim

type t = { psu : Psu.t; rng : Rng.t }

(* 100 kHz sampling; gaussian noise of 0.3 % of the nominal voltage. *)
let sample_period = Time.s (1.0 /. 100_000.0)
let noise_sigma = 0.003
let create ~rng psu = { psu; rng }

let noisy t v nominal =
  v +. Rng.gaussian t.rng ~mu:0.0 ~sigma:(noise_sigma *. nominal)

let capture t ~from ~until ~rails =
  let traces =
    List.map (fun rail -> (Some rail, Trace.create ~name:(Psu.rail_name rail))) rails
    @ [ (None, Trace.create ~name:"PWR_OK") ]
  in
  let at = ref from in
  while Time.(!at <= until) do
    List.iter
      (fun (rail, trace) ->
        match rail with
        | Some rail ->
            let nominal = Psu.rail_nominal rail in
            let v = Psu.rail_voltage t.psu rail ~at:!at in
            Trace.record trace !at (noisy t v nominal)
        | None ->
            let v = if Psu.pwr_ok t.psu ~at:!at then 5.0 else 0.0 in
            Trace.record trace !at (noisy t v 5.0))
      traces;
    at := Time.add !at sample_period
  done;
  List.map snd traces

let measure_window t ~fail_at ~until =
  let traces = capture t ~from:fail_at ~until ~rails:Psu.all_rails in
  let drops =
    List.filter_map
      (fun trace ->
        if Trace.name trace = "PWR_OK" then None
        else
          let nominal =
            List.find
              (fun rail -> Psu.rail_name rail = Trace.name trace)
              Psu.all_rails
            |> Psu.rail_nominal
          in
          Trace.first_crossing_below trace ~threshold:(0.95 *. nominal)
            ~hold:(Time.us 250.0))
      traces
  in
  match drops with
  | [] -> None
  | first :: rest ->
      let earliest = List.fold_left Time.min first rest in
      Some (Time.sub earliest fail_at)
