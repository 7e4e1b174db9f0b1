(** Figure 8 — context save and cache flush times vs. dirty bytes.

    Paper: on all four platforms the state save (contexts + wbinvd) is
    under 5 ms regardless of how many cache lines are dirty, and under
    3 ms on the two testbeds; wbinvd time depends only weakly on the
    dirty-byte count. *)

open Wsp_sim

type series = {
  platform : Wsp_machine.Platform.t;
  points : (int * Time.t) list;  (** (dirty bytes, state save time). *)
}

val data : unit -> series list
(** Sweeps dirty bytes over powers of four from 128 B to 16 MiB (capped
    at each platform's cache capacity). *)

val mechanistic_check :
  Wsp_machine.Platform.t -> dirty_bytes:int -> Time.t
(** Drives a real aggregate cache hierarchy: dirties the requested
    amount with stores, then times {!Wsp_machine.Hierarchy.flush_all};
    used to cross-check the analytic model. *)

val run : full:bool -> unit
