(** Figure 7 — residual energy windows across PSU and load
    configurations.

    Paper (worst of 3 runs, ms): AMD with 400 W PSU — busy 346 / idle
    392; AMD with 525 W — 22 / 71; Intel with 750 W — 10 / 10; Intel
    with 1050 W — 33 / 33. *)

open Wsp_sim

type row = {
  psu : Wsp_power.Psu.spec;
  platform : Wsp_machine.Platform.t;
  busy : bool;
  window : Time.t;  (** Worst (lowest) of the measured runs. *)
  paper : Time.t;
}

val data : unit -> row list
(** Each window is the worst of three captures. *)

val run : full:bool -> unit
