open Wsp_sim

type degradation_band = Best | Worst | Datasheet

type t = {
  capacitance : Units.Capacitance.t;
  v_charge : Units.Voltage.t;
  mutable voltage : Units.Voltage.t;
  mutable cycles : int;
}

let v_min = Units.Voltage.volts 6.0

let create ~capacitance ~v_charge () =
  if v_charge <= v_min then invalid_arg "Ultracap.create: v_charge <= v_min";
  { capacitance; v_charge; voltage = v_charge; cycles = 0 }

(* Figure 1: after 100,000 cycles at elevated temperature and voltage the
   worst case loses ~10 % of capacitance and the best case ~2 %; the
   datasheet line sits between. A sub-linear exponent matches the
   fast-then-flat shape of the published curves. *)
let capacitance_fraction ~cycles ~band =
  assert (cycles >= 0);
  let x = float_of_int cycles /. 100_000.0 in
  let loss_at_rated = match band with Best -> 0.02 | Datasheet -> 0.06 | Worst -> 0.10 in
  1.0 -. (loss_at_rated *. (x ** 0.7))

let battery_capacity_fraction ~cycles =
  (* Rechargeable batteries sustain only a few hundred cycles before
     capacity collapses: ~20 % loss per 100 cycles compounding. *)
  assert (cycles >= 0);
  0.8 ** (float_of_int cycles /. 100.0)

let capacitance_effective t ~band =
  t.capacitance *. capacitance_fraction ~cycles:t.cycles ~band

let voltage t = t.voltage
let cycles t = t.cycles

let usable_energy t ~band =
  let c = capacitance_effective t ~band in
  let e v = Units.Capacitance.stored_energy c v in
  Float.max 0.0 (e t.voltage -. e v_min)

let supply_duration t ~band ~power =
  Units.Energy.duration_at (usable_energy t ~band) power

let can_supply t ~band ~power ~lasting =
  Time.(supply_duration t ~band ~power >= lasting)

let voltage_after t ~power ~during =
  let drawn = Units.Energy.of_power_time power during in
  Units.Capacitance.voltage_after_discharge
    (capacitance_effective t ~band:Datasheet)
    ~v0:t.voltage ~drawn

let discharge t ~power ~during =
  t.voltage <- voltage_after t ~power ~during;
  if t.voltage < v_min then `Exhausted else `Ok

let recharge t =
  t.voltage <- t.v_charge;
  t.cycles <- t.cycles + 1
