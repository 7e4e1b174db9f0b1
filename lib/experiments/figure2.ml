open Wsp_sim
module Nvdimm = Wsp_nvdimm.Nvdimm
module Ultracap = Wsp_power.Ultracap

type result = {
  save_time : Time.t;
  supply_time : Time.t;
  margin : float;
  voltage : Trace.t;
  power : Trace.t;
}

let data () =
  let engine = Engine.create () in
  let nvdimm = Nvdimm.create ~engine ~size:(Units.Size.gib 1) () in
  let save_time = Nvdimm.save_duration nvdimm in
  let supply_time =
    Ultracap.supply_duration (Nvdimm.ultracap nvdimm) ~band:Ultracap.Datasheet
      ~power:(Nvdimm.save_power nvdimm)
  in
  let voltage, power =
    Nvdimm.save_trace nvdimm ~sample_period:(Time.s 0.5) ~horizon:(Time.s 20.0)
  in
  {
    save_time;
    supply_time;
    margin = Time.to_s supply_time /. Time.to_s save_time;
    voltage;
    power;
  }

let run ~full:_ =
  Report.heading
    "Figure 2: Voltage and power draw on ultracapacitors during NVDIMM save (1 GB)";
  let r = data () in
  let rows =
    Array.to_list
      (Array.map
         (fun (at, v) ->
           let p =
             match Trace.value_at r.power at with Some p -> p | None -> 0.0
           in
           [
             Report.float_cell ~decimals:1 (Time.to_s at);
             Report.float_cell ~decimals:2 v;
             Report.float_cell ~decimals:2 p;
           ])
         (Trace.samples r.voltage))
  in
  Report.table ~header:[ "Time (s)"; "Voltage (V)"; "Power output (W)" ] rows;
  let plot trace =
    ( Trace.name trace,
      Array.to_list
        (Array.map (fun (at, v) -> (Time.to_s at, v)) (Trace.samples trace)) )
  in
  Report.chart ~height:12 ~xlabel:"seconds" ~ylabel:"V / W"
    [ plot r.voltage; plot r.power ];
  Report.note
    (Printf.sprintf "save completed at %.1f s (paper: <10 s); ultracap margin %.1fx (paper: >=2x)"
       (Time.to_s r.save_time) r.margin)
