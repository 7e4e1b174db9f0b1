(** Figure 6 — the residual energy window on the Intel testbed.

    Paper: oscilloscope trace of PWR_OK and the 12/5/3.3 V rails around
    an input power failure with the 1050 W PSU under full stress load;
    the rails hold for 33 ms after PWR_OK drops. *)

open Wsp_sim

type result = {
  traces : Trace.t list;  (** PWR_OK and one trace per rail. *)
  measured_window : Time.t option;
      (** From the paper's 95 %-for-250 µs detection rule. *)
  nominal_window : Time.t;
}

val data : unit -> result
val run : full:bool -> unit
