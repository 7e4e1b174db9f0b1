(** §7 transparency — the flush-on-fail advantage is structure-agnostic.

    NV-heaps support a fixed repertoire of persistent data structures;
    "WSP is transparent to applications and any in-memory data
    structures can be used". This ablation runs the same mixed workload
    over four structures (hash table, AVL tree, skip list, B-tree) under
    Mnemosyne-style flush-on-commit and under WSP, showing the FoC/FoF
    gap holds for every one of them. *)

open Wsp_sim
open Wsp_store

type row = {
  structure : Workload.structure;
  foc_stm : Time.t;  (** per-op under flush-on-commit STM. *)
  fof : Time.t;  (** per-op under WSP. *)
  slowdown : float;
}

val data : ?entries:int -> ?ops:int -> unit -> row list
val run : full:bool -> unit
