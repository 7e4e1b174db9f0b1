(** ATX power-supply model.

    The quantity of interest is the {e residual energy window}: the time
    between the PSU dropping its [PWR_OK] signal (input-power failure
    detected) and the first output-rail voltage droop. The window is
    limited both by the usable energy in the PSU's internal capacitance at
    the current DC load and by a controller hold-up cutoff; both vary
    wildly between PSU models, which is exactly what Figure 7 measures.
    Per-PSU parameters are calibrated to the paper's measured windows
    (DESIGN.md §4). *)

open Wsp_sim

type rail = V12 | V5 | V3_3

val rail_nominal : rail -> Units.Voltage.t
val rail_name : rail -> string
val all_rails : rail list

type spec = {
  name : string;
  rated : Units.Power.t;
  residual_energy : Units.Energy.t;
      (** Usable output-side energy after [PWR_OK] drops. *)
  max_hold : Time.t;  (** Controller cutoff on the hold-up time. *)
  collapse_tau : Time.t;  (** RC time constant of rail collapse. *)
  run_jitter : float;  (** Fractional run-to-run window variation. *)
}

(** The four PSUs measured in Figure 7. *)

val atx_400 : spec
val atx_525 : spec
val atx_750 : spec
val atx_1050 : spec

val specs : spec list
val spec_by_name : string -> spec option

type t

val create : engine:Engine.t -> spec:spec -> load:Units.Power.t -> t
val spec : t -> spec
val load : t -> Units.Power.t
val set_load : t -> Units.Power.t -> unit

val nominal_window : t -> Time.t
(** The deterministic residual-energy window at the current load:
    [min (residual_energy / load) max_hold]. *)

val on_pwr_ok_drop : t -> (Engine.t -> unit) -> unit
(** Registers a callback run when [PWR_OK] falls. *)

val on_output_lost : t -> (Engine.t -> unit) -> unit
(** Registers a callback run when the output rails droop out of
    regulation — from this instant host DRAM, caches and CPUs are dead. *)

val fail_input : t -> ?jitter:Rng.t -> unit -> unit
(** Injects an input-power failure now: [PWR_OK] drops immediately and
    the rails droop one residual window later (scaled by per-run jitter
    when an [Rng.t] is supplied). *)

val restore_input : t -> unit
(** Input power is back (a later boot): [PWR_OK] rises and the rails
    regulate again, so another failure can be injected. Registered
    callbacks stay armed. *)

val pwr_ok : t -> at:Time.t -> bool

val rail_voltage : t -> rail -> at:Time.t -> Units.Voltage.t
(** Instantaneous rail voltage: nominal until the window closes, then an
    exponential collapse. *)

val powered : t -> at:Time.t -> bool
(** Whether the host is still within regulation at [at]. *)
