(** Durable lock-free structures in the style of "Delay-Free
    Concurrency on Faulty Persistent Memory": non-transactional
    protocols whose durability comes from explicit
    store → clflush → fence chains (or, under flush-on-fail, from the
    WSP save path making every issued store durable).

    Each structure exists in a {e clean} variant, whose protocol orders
    every persist before the point it is relied upon, and a {e racy}
    ([~racy:true]) variant that commits a deliberate persist-ordering
    bug from the Delay-Free taxonomy — acks or publishes that outrun
    the persist backing them. Clean and racy variants are what the
    static race detector ({!Wsp_analysis.Crules}) and the crash sweep
    of the same drivers ({!Wsp_analysis.Canalyzer.sweep})
    cross-certify.

    Every protocol step that matters to a race analysis is announced
    through a {!hook} callback, interleaved with the structure's bus
    events exactly where the step happens in program order — the bridge
    a trace consumer maps onto its own sync-edge vocabulary without
    this library depending on the analysis layer. *)

(** A protocol announcement. [obj] is a caller-meaningful 64-bit
    identity (a queue sequence number, a handoff key); [addr] the
    object's backing byte address; [chan] a release/acquire channel
    id local to the structure. *)
type note =
  | Wrote of { obj : int64; addr : int }
      (** The object's value was just stored (durability pending). *)
  | Observed of { obj : int64 }  (** The object's value was consumed. *)
  | Acked of { obj : int64 }
      (** The operation on [obj] became client-visible. *)
  | Published of { chan : int }  (** Release edge on [chan]. *)
  | Acquired of { chan : int }  (** Acquire edge on [chan]. *)
  | Handoff_persisted of { obj : int64 }
      (** Cross-heap move: destination copy declared persisted. *)
  | Tombstoned of { obj : int64 }
      (** Cross-heap move: source copy retired. *)

type hook = note -> unit

(** Multi-producer single-consumer ring queue on one heap. Producers
    store the slot, persist it, then publish the advanced tail;
    the consumer acquires the tail and drains. The racy variant
    publishes the tail {e before} storing the slot and defers the slot
    flush to the next enqueue — the Delay-Free "persist the index
    before the payload" bug: an ack can outrun its slot persist
    (flush-on-commit) and a crash between publish and store leaves the
    published slot torn even under a perfect WSP save, because a store
    never issued cannot be saved. *)
module Dqueue : sig
  type t

  val create : ?hook:hook -> ?racy:bool -> Pheap.t -> cap:int -> t
  (** Allocates the ring and publishes it as the heap root. *)

  val attach : ?hook:hook -> Pheap.t -> t
  (** Re-adopts the ring from the heap root after a crash. *)

  val enqueue : t -> int64 -> int
  (** Returns the slot's global sequence number. *)

  val drain : t -> int64 list
  (** The single consumer: everything between head and tail, oldest
      first; advances and persists the head. *)

  val tail : t -> int
  val head : t -> int
  val cap : t -> int

  val slot_value : t -> seq:int -> int64
  (** Raw slot contents for sequence [seq] — audit access. *)

  val expected : seq:int -> int64
  (** The deterministic non-zero value {!enqueue} stores for sequence
      [seq] in the certification workloads. *)

  val enqueue_expected : t -> int
  (** [enqueue q (expected ~seq:(tail q))]. *)
end

(** A durable counter behind a release/acquire channel (chan 0): each
    increment acquires, reads, stores, persists, then acks and
    releases. The racy variant acks and releases {e before} the persist
    and skips the flush entirely — recovered value can trail the acked
    count under flush-on-commit; flush-on-fail obviates the bug
    (the paper's argument, made checkable). *)
module Dcounter : sig
  type t

  val create : ?hook:hook -> ?racy:bool -> Pheap.t -> t
  val attach : ?hook:hook -> Pheap.t -> t

  val incr : t -> unit
  val value : t -> int64
end

(** A fixed array of cells migrated one key at a time from a source
    heap to a destination heap — the shard handoff protocol in
    miniature. The clean move persists the destination copy and
    announces it {e before} retiring the source; the racy move
    tombstones the source first, so a crash in between loses the key
    from both heaps under {e every} configuration: WSP cannot save a
    destination store that was never issued. *)
module Handoff : sig
  type t

  val create :
    ?hook:hook -> ?racy:bool -> src:Pheap.t -> dst:Pheap.t -> slots:int -> unit -> t
  val attach : ?hook:hook -> src:Pheap.t -> dst:Pheap.t -> unit -> t

  val put : t -> key:int -> unit
  (** Durable insert of [expected ~key] into the source cell. *)

  val move : ?switch:([ `Src | `Dst ] -> unit) -> t -> key:int -> unit
  (** Migrates one key. [switch] is called whenever the protocol's
      acting side changes — a race-lint driver uses it to re-attribute
      subsequent events to the other logical domain; defaults to a
      no-op. *)

  val slots : t -> int
  val src_value : t -> key:int -> int64
  val dst_value : t -> key:int -> int64

  val expected : key:int -> int64
  (** Deterministic non-zero per-key payload. *)
end
