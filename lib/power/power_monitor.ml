open Wsp_sim

type t = {
  engine : Engine.t;
  mutable handlers : (Engine.t -> unit) list;
  mutable triggered : bool;
}

let detect_latency = Time.us 10.0
let serial_latency = Time.us 90.0
let i2c_latency = Time.us 120.0

let create ~engine ~psu () =
  let t = { engine; handlers = []; triggered = false } in
  Psu.on_pwr_ok_drop psu (fun engine ->
      t.triggered <- true;
      List.iter
        (fun handler ->
          Engine.schedule engine
            ~after:(Time.add detect_latency serial_latency)
            handler)
        t.handlers);
  t

let on_power_fail t handler = t.handlers <- t.handlers @ [ handler ]
let send_i2c t f = Engine.schedule t.engine ~after:i2c_latency f
let triggered t = t.triggered
