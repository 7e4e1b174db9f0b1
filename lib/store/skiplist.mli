(** A skip list in a persistent heap.

    One of the data structures §7 names (NV-heaps "allow use of … hash
    tables, binary trees, and skip lists"); under WSP it needs no special
    treatment at all — this implementation is an ordinary probabilistic
    skip list whose nodes happen to live in NVRAM.

    Tower levels are drawn from a deterministic, seedable generator; the
    generator itself is volatile state (losing it across a crash merely
    changes future coin flips, never the structure's correctness). *)

open Wsp_sim
open Wsp_nvheap

type t

val create : ?seed:int -> Pheap.t -> t
(** Allocates the head tower and publishes it as the heap root. *)

val attach : ?seed:int -> Pheap.t -> t
(** Re-adopts the list published as the heap root (post-recovery). *)

val heap : t -> Pheap.t

val insert : t -> key:int64 -> value:int64 -> unit
(** Inserts or overwrites. *)

val find : t -> int64 -> int64 option
val delete : t -> int64 -> bool
val size : t -> int
val to_list : t -> (int64 * int64) list

val level_of : t -> int64 -> int option
(** Tower height of a present key — test instrumentation. *)

val check : t -> (unit, string) result
(** Verifies key ordering on level 0 and that every level's chain is a
    subsequence of level 0. *)

val rng : t -> Rng.t
