(** The Figure 5 microbenchmark data structure: an open-chaining hash
    table in a persistent heap.

    Layout: a header cell [buckets_addr, n_buckets, count], a bucket
    array of node addresses, and 24-byte chain nodes
    [key, value, next]. All accesses go through the heap's transactional
    dispatch. *)

open Wsp_nvheap

type t

val create : ?buckets:int -> Pheap.t -> t
(** [buckets] defaults to 131072 (the benchmark holds 100,000 entries). *)

val attach : Pheap.t -> t
(** Re-adopts the table published as the heap root. *)

val attach_at : Pheap.t -> addr:int -> t
(** Re-adopts a table by its header address — for applications that keep
    several structures behind one root descriptor. *)

val heap : t -> Pheap.t
val bucket_count : t -> int

val insert : t -> key:int64 -> value:int64 -> unit
(** Inserts or overwrites. *)

val find : t -> int64 -> int64 option
val delete : t -> int64 -> bool

val count : t -> int
(** Entry count, O(1) from the header. *)

val to_list : t -> (int64 * int64) list

val check : t -> (unit, string) result
(** Verifies chain placement and the header count. *)
