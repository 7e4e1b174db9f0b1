(** End-to-end WSP protocol runs (Figure 4 in action).

    Not a paper table, but the system the tables argue for: on each
    platform/PSU pair, populate a persistent heap, cut input power,
    race the save routine against the residual window, power back on and
    restore — verifying that the application state survived bit-for-bit.
    Includes the ACPI strawman, which blows the window and is caught by
    the valid-image marker. *)

open Wsp_sim

type row = {
  label : string;
  window : Time.t;
  host_save : Time.t option;  (** Interrupt to NVDIMM-save initiation. *)
  outcome : Wsp_core.System.outcome;
  data_intact : bool;
}

val data : unit -> row list
val run : full:bool -> unit
