(** An OpenLDAP-style directory server model (Table 1).

    The paper's benchmark runs an OpenLDAP server whose Berkeley DB back
    end has been replaced by an AVL tree in the Mnemosyne NV-heap, and
    inserts 100,000 randomly generated entries. This model keeps the
    same storage shape: an id-to-entry hash table holding the serialised
    entry blob, a dn-to-id AVL index and several attribute AVL indexes —
    all in one persistent heap — plus a fixed per-request protocol cost
    (ASN.1 decode, schema checks, ACLs) that is identical across
    persistence configurations. Each insert runs as one transaction. *)

open Wsp_sim
open Wsp_nvheap

type t

val create :
  ?config:Config.t ->
  ?entry_bytes:int ->
  ?indexes:int ->
  ?heap_size:Units.Size.t ->
  unit ->
  t
(** Every request pays 180 µs of protocol processing. Defaults: 4 KiB
    serialised entries, 8 attribute indexes (equality plus substring
    indexes over the benchmark schema). *)

val attach : Pheap.t -> unit -> t
(** Re-adopts a directory from a recovered heap (the heap root is the
    directory's descriptor block); updates run under the heap's own
    configuration. Raises [Invalid_argument] if the root is absent or
    not a directory. *)

val heap : t -> Pheap.t
val entry_count : t -> int

val add_entry : t -> Rng.t -> unit
(** Processes one LDAP add request with randomly generated attribute
    values. *)

val lookup_by_dn : t -> int64 -> int64 option
(** Returns the entry id bound to a DN key, if any. *)

val verify : t -> (unit, string) result
(** Cross-checks indexes against the entry table. *)

type result = {
  config : Config.t;
  entries : int;
  elapsed : Time.t;
  updates_per_s : float;
  per_op : Time.t;
}

val run_benchmark :
  ?entries:int ->
  ?config:Config.t ->
  ?entry_bytes:int ->
  ?indexes:int ->
  seed:int ->
  unit ->
  result
(** The Table 1 run: inserts [entries] (default 100,000) random entries
    into an empty directory and reports update throughput. *)
