(** A key-value store persisted the block-based way (§3.2, model 1).

    The working representation is an ordinary in-memory hash table; on
    every update the store also serialises a journal record and writes
    the containing 4 KiB block through the block device. This is what a
    persistent buffer cache / RAMdisk forces on an application, and it
    exhibits both problems the paper names: the state exists twice (table
    + blocks), and every update pays a system call and a block transfer.

    Recovery deserialises the journal and rebuilds the table — the
    representation conversion cost the paper's model 1 carries. *)

open Wsp_nvheap

type t

val create : ?buckets:int -> heap:Pheap.t -> device:Blockstore.t -> unit -> t
(** [heap] holds the in-memory representation (volatile without WSP);
    every block of [device] holds journal records. *)

val insert : t -> key:int64 -> value:int64 -> unit
val delete : t -> int64 -> bool
val find : t -> int64 -> int64 option
val count : t -> int

val to_list : t -> (int64 * int64) list
(** In-memory table contents, sorted by key — the checker's oracle view. *)

val check : t -> (unit, string) result
(** Structural invariants of the in-memory table. *)

val journal_records : t -> int
val memory_bytes : t -> int
(** In-memory footprint (table + nodes). *)

val block_bytes : t -> int
(** Block-device footprint consumed by the journal. *)

val recover : ?buckets:int -> heap:Pheap.t -> device:Blockstore.t -> unit -> t
(** Post-crash: rebuilds the in-memory table by replaying the journal
    from the block device (the in-memory copy is assumed lost). *)

exception Journal_full
