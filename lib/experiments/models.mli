(** §3.2 — the three persistence models, measured.

    The paper's taxonomy: (1) block-based (persistent buffer cache /
    RAMdisk), (2) persistent heaps (flush-on-commit), (3) whole-system
    persistence. Models 2 and 3 are Figure 5's subject; this experiment
    adds model 1 and measures the two §3.2 claims against it: block
    persistence roughly doubles the memory footprint and pays system-call
    plus block-transfer costs on every update. *)

open Wsp_sim

type row = {
  label : string;
  per_op_read : Time.t;  (** update probability 0. *)
  per_op_mixed : Time.t;  (** update probability 0.5. *)
  per_op_update : Time.t;  (** update probability 1. *)
  footprint_factor : float;
      (** Bytes of state kept per byte of live data (1.0 = no
          duplication). *)
}

val data : ?entries:int -> ?ops:int -> unit -> row list
val run : full:bool -> unit
