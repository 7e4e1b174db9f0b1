(** Workload generation and the Figure 5 microbenchmark runner.

    The benchmark pre-populates a persistent structure, then runs a stream of
    random operations with a configurable update probability; updates are
    equal parts inserts (of fresh keys) and deletes (of present keys), so
    the table size stays near its initial value. Each operation runs in a
    transaction when the heap configuration has logging, mirroring how
    applications use Mnemosyne; per-operation application compute (key
    generation, hashing, loop) is charged explicitly. *)

open Wsp_sim
open Wsp_nvheap

type op = Lookup | Insert | Delete

val pick_op : Rng.t -> update_prob:float -> op
(** Updates with probability [update_prob], split evenly between insert
    and delete. *)

module Key_pool : sig
  (** The set of keys currently in the table, with O(1) random choice and
      removal, plus a fresh-key counter. *)

  type t

  val create : ?capacity:int -> unit -> t
  val size : t -> int
  val fresh : t -> int64
  (** A key never produced before; the caller is expected to add it. *)

  val add : t -> int64 -> unit

  val remove_at : t -> int -> int64 option
  (** Removes the key at slot [i mod size]. *)
end

type result = {
  config : Config.t;
  ops : int;
  update_prob : float;
  elapsed : Time.t;  (** Simulated time over the measured phase. *)
  per_op : Time.t;
  lookups : int;
  inserts : int;
  deletes : int;
  final_count : int;  (** Entries left in the table. *)
  footprint : footprint option;  (** [Some] for the [Block] structure only. *)
}

and footprint = {
  table_bytes : int;  (** In-memory representation footprint. *)
  journal_bytes : int;  (** Block-device bytes holding the journal. *)
}

type structure =
  | Hash
  | Avl_tree
  | Skip_list
  | B_tree
  | Block
      (** The hash table persisted the block-based way (§3.2, model 1):
          every update also writes a journal block through a
          {!Wsp_nvheap.Blockstore} device on the high half of the NVRAM,
          and the table lives on the low half. *)

val structure_name : structure -> string

val structures : structure list
(** The four in-memory structures, without [Block]. *)

val run_structure_benchmark :
  ?entries:int ->
  ?ops:int ->
  ?heap_size:Units.Size.t ->
  ?hierarchy:Wsp_machine.Hierarchy.config ->
  ?distribution:[ `Uniform | `Zipfian of float ] ->
  structure:structure ->
  config:Config.t ->
  update_prob:float ->
  seed:int ->
  unit ->
  result
(** The Figure 5 benchmark over any persistent data structure
    ([structure:Hash] is the paper's hash table; [Block] is §3.2's
    block model of it; the other three carry the §7 transparency claim:
    under WSP any in-memory structure persists without modification, so
    the FoF-vs-FoC gap must hold for all of them). Every operation charges 60 ns of application compute. Defaults: 100,000
    entries and 1,000,000 operations as in the paper (callers scale
    down for quick runs), the Intel C5528 DRAM hierarchy ([hierarchy]
    lets the SCM experiments substitute slower memory), and uniform key
    popularity ([`Zipfian theta] gives YCSB-style skew). Raises
    [Invalid_argument] unless [0 <= update_prob <= 1]. *)
