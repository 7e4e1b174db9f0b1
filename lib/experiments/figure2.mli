(** Figure 2 — ultracapacitor voltage and power draw during an NVDIMM
    save.

    Paper: for a 1 GB NVDIMM the save completes in under 10 s and the
    ultracapacitors can power the module for at least twice that long
    (usable down to a 6 V input). *)

open Wsp_sim

type result = {
  save_time : Time.t;
  supply_time : Time.t;  (** How long the bank could sustain save power. *)
  margin : float;  (** [supply_time / save_time]; the paper needs >= 2. *)
  voltage : Trace.t;
  power : Trace.t;
}

val data : unit -> result
(** The paper's 1 GB module. *)

val run : full:bool -> unit
