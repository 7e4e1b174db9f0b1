open Wsp_sim
module Ultracap = Wsp_power.Ultracap

type state = Active | Self_refresh | Saving | Saved | Restoring | Lost

let state_name = function
  | Active -> "active"
  | Self_refresh -> "self-refresh"
  | Saving -> "saving"
  | Saved -> "saved"
  | Restoring -> "restoring"
  | Lost -> "lost"

type t = {
  engine : Engine.t;
  size : Units.Size.t;
  dram : Bytes.t;
  flash : Flash.t;
  ultracap : Ultracap.t;
  save_power : Units.Power.t;
  maintenance_power : Units.Power.t;
  mutable state : state;
}

let gib size = Float.max 1.0 (Units.Size.to_gib size)

let save_power_per_gib = Units.Power.watts 4.5

let create ~engine ?ultracap ~size () =
  let n_gib = gib size in
  let ultracap =
    match ultracap with
    | Some cap -> cap
    | None ->
        Ultracap.create
          ~capacitance:(Units.Capacitance.farads (5.0 *. n_gib))
          ~v_charge:(Units.Voltage.volts 8.5)
          ()
  in
  (* Flash channels scale with module size so saves stay under 10 s for
     modules up to 8 GiB (§2). *)
  let bandwidth = Units.Bandwidth.mib_per_s (120.0 *. n_gib) in
  {
    engine;
    size;
    dram = Bytes.make (Units.Size.to_bytes size) '\x00';
    flash = Flash.create ~size ~write_bandwidth:bandwidth ~read_bandwidth:(2.0 *. bandwidth);
    ultracap;
    save_power = save_power_per_gib *. n_gib;
    maintenance_power = Units.Power.watts (1.2 *. n_gib);
    state = Active;
  }

let size t = t.size
let state t = t.state
let ultracap t = t.ultracap
let dram t = t.dram
let save_duration t = Flash.write_duration t.flash t.size

let save_duration_for ~size =
  let bandwidth = Units.Bandwidth.mib_per_s (120.0 *. gib size) in
  Units.Bandwidth.transfer_time bandwidth size
let save_power t = t.save_power

let enter_self_refresh t =
  match t.state with
  | Active -> t.state <- Self_refresh
  | Self_refresh -> ()
  | Saving | Saved | Restoring | Lost ->
      invalid_arg
        (Fmt.str "Nvdimm.enter_self_refresh: module is %s" (state_name t.state))

let exit_self_refresh t =
  match t.state with
  | Self_refresh | Saved -> t.state <- Active
  | Active -> ()
  | Saving | Restoring | Lost ->
      invalid_arg
        (Fmt.str "Nvdimm.exit_self_refresh: module is %s" (state_name t.state))

let initiate_save t ~on_complete =
  (match t.state with
  | Self_refresh -> ()
  | (Active | Saving | Saved | Restoring | Lost) as s ->
      invalid_arg (Fmt.str "Nvdimm.initiate_save: module is %s" (state_name s)));
  t.state <- Saving;
  let duration = save_duration t in
  let can_finish =
    Ultracap.can_supply t.ultracap ~band:Wsp_power.Ultracap.Datasheet
      ~power:t.save_power ~lasting:duration
  in
  if can_finish then begin
    Engine.schedule t.engine ~after:duration (fun engine ->
        ignore (Ultracap.discharge t.ultracap ~power:t.save_power ~during:duration);
        Flash.program t.flash ~src:t.dram ~fraction:1.0;
        t.state <- Saved;
        on_complete engine `Saved)
  end
  else begin
    let usable =
      Ultracap.supply_duration t.ultracap ~band:Wsp_power.Ultracap.Datasheet
        ~power:t.save_power
    in
    Engine.schedule t.engine ~after:usable (fun engine ->
        ignore (Ultracap.discharge t.ultracap ~power:t.save_power ~during:usable);
        let fraction = Time.to_s usable /. Time.to_s duration in
        Flash.program t.flash ~src:t.dram ~fraction;
        (* The module browns out: whatever was in DRAM is gone too. *)
        Bytes.fill t.dram 0 (Bytes.length t.dram) '\xCC';
        t.state <- Lost;
        on_complete engine `Save_failed)
  end

let host_power_lost t =
  match t.state with
  | Saving | Saved | Lost -> ()
  | Active | Self_refresh | Restoring ->
      Bytes.fill t.dram 0 (Bytes.length t.dram) '\xCC';
      t.state <- Lost

let initiate_restore t ~on_complete =
  (match t.state with
  | Self_refresh | Saved | Lost -> ()
  | (Active | Saving | Restoring) as s ->
      invalid_arg (Fmt.str "Nvdimm.initiate_restore: module is %s" (state_name s)));
  if not (Flash.image_complete t.flash) then
    Engine.schedule t.engine ~after:Time.zero (fun engine -> on_complete engine `No_image)
  else begin
    t.state <- Restoring;
    let duration = Flash.read_duration t.flash t.size in
    Engine.schedule t.engine ~after:duration (fun engine ->
        (* Power may have died mid-restore (state forced to Lost):
           the flash image is still intact, so a later boot simply
           retries; this attempt reports nothing. *)
        if t.state = Restoring then begin
          Flash.recall t.flash ~dst:t.dram;
          t.state <- Self_refresh;
          on_complete engine `Restored
        end)
  end

let image_complete t = Flash.image_complete t.flash

let recharge t = Ultracap.recharge t.ultracap

let save_trace t ~sample_period ~horizon =
  let voltage = Trace.create ~name:"Voltage" in
  let power = Trace.create ~name:"Power output" in
  let duration = Time.to_s (save_duration t) in
  let cap =
    Ultracap.capacitance_effective t.ultracap ~band:Wsp_power.Ultracap.Datasheet
  in
  let v0 = Ultracap.voltage t.ultracap in
  let v_at elapsed =
    let drawn =
      if elapsed <= duration then t.save_power *. elapsed
      else (t.save_power *. duration) +. (t.maintenance_power *. (elapsed -. duration))
    in
    Units.Capacitance.voltage_after_discharge cap ~v0 ~drawn
  in
  let at = ref Time.zero in
  while Time.(!at <= horizon) do
    let elapsed = Time.to_s !at in
    let v = v_at elapsed in
    let p =
      if v <= 0.0 then 0.0
      else if elapsed <= duration then Units.Power.to_watts t.save_power
      else Units.Power.to_watts t.maintenance_power
    in
    Trace.record voltage !at v;
    Trace.record power !at p;
    at := Time.add !at sample_period
  done;
  (voltage, power)
