(** Design-choice ablations for the WSP save/restore protocol.

    Two safeguards DESIGN.md calls out get switched off to show what
    they buy:

    - the {e valid-image marker} (§6 "NVRAM failures"): without it, a
      save interrupted mid-flush restores a torn image as if it were
      good — silent corruption instead of a detected failure;
    - the {e restore-path device strategy} (§4): handling devices on the
      save path (ACPI) pushes the save far beyond the residual window,
      while both restore-path strategies keep it in the
      low-milliseconds. *)

open Wsp_sim

type marker_row = {
  marker_enabled : bool;
  outcome : string;
  claimed_recovery : bool;
  data_correct : bool;  (** Application-level verification. *)
}

val marker_data : unit -> marker_row list
(** Runs a deliberately torn save (ACPI strawman under stress) with the
    marker check on and off. *)

type strategy_row = {
  strategy : Wsp_core.System.restart_strategy;
  save_path : Time.t option;  (** Host save latency; None = blew the window. *)
  resume : Time.t option;  (** None when recovery failed. *)
  survived : bool;
}

val strategy_data : unit -> strategy_row list

val run : full:bool -> unit
