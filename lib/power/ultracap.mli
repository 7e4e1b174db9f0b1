(** Ultracapacitor (and, for contrast, battery) energy-cell models.

    NVDIMMs carry an ultracapacitor bank that powers the DRAM-to-flash
    save once system power is gone. Two properties matter: how much energy
    is usable above the module's minimum input voltage, and how the usable
    capacitance degrades with charge/discharge cycles (Figure 1: ultracaps
    lose ≈10 % over 100,000 cycles in the worst case; lead-acid and Li-ion
    batteries degrade severely within a few hundred cycles). *)

open Wsp_sim

type degradation_band = Best | Worst | Datasheet

type t

val create :
  capacitance:Units.Capacitance.t -> v_charge:Units.Voltage.t -> unit -> t
(** The bank is exhausted below 6 V: the NVDIMM's internal regulator
    needs 3.3 V and its input stage stays usable down to 6 V (paper,
    footnote 1). Raises [Invalid_argument] unless [v_charge > 6 V]. *)

val capacitance_effective : t -> band:degradation_band -> Units.Capacitance.t
(** Nominal capacitance derated by cycle wear in the given band. *)

val capacitance_fraction : cycles:int -> band:degradation_band -> float
(** The Figure 1 curve: fraction of nominal capacitance remaining after
    the given number of charge/discharge cycles at elevated temperature
    and voltage. *)

val battery_capacity_fraction : cycles:int -> float
(** The Figure 1 battery contrast curve. *)

val voltage : t -> Units.Voltage.t
val cycles : t -> int

val usable_energy : t -> band:degradation_band -> Units.Energy.t
(** ½·C·(V² − V_min²) at the derated capacitance. *)

val can_supply : t -> band:degradation_band -> power:Units.Power.t -> lasting:Time.t -> bool

val supply_duration : t -> band:degradation_band -> power:Units.Power.t -> Time.t
(** How long the cell can hold the given draw before dropping under
    [v_min]. *)

val discharge : t -> power:Units.Power.t -> during:Time.t -> [ `Ok | `Exhausted ]
(** Draws energy, updating the terminal voltage (datasheet capacitance).
    [`Exhausted] once the voltage falls below [v_min]; the voltage then
    reads as its below-minimum value. *)

val recharge : t -> unit
(** Restores full charge and counts one charge/discharge cycle. *)
