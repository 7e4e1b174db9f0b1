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
    as an {!Event.sync} on the acting heap's {!Nvram.sync_bus},
    interleaved with the heap's persistency events exactly where the
    step happens in program order — the feed a race detector subscribes
    to without this library depending on the analysis layer. *)

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

  val create : ?racy:bool -> Pheap.t -> cap:int -> t
  (** Allocates the ring and publishes it as the heap root. *)

  val attach : Pheap.t -> t
  (** Re-adopts the ring from the heap root after a crash. *)

  val drain : t -> int64 list
  (** The single consumer: everything between head and tail, oldest
      first; advances and persists the head. *)

  val tail : t -> int
  val head : t -> int
  val cap : t -> int

  val slot_value : t -> seq:int -> int64
  (** Raw slot contents for sequence [seq] — audit access. *)

  val expected : seq:int -> int64
  (** The deterministic non-zero value {!enqueue_expected} stores for
      sequence [seq] in the certification workloads. *)

  val enqueue_expected : t -> int
  (** Enqueues [expected ~seq:(tail q)]; returns the slot's global
      sequence number. *)
end

(** A durable counter behind a release/acquire channel (chan 0): each
    increment acquires, reads, stores, persists, then acks and
    releases. The racy variant acks and releases {e before} the persist
    and skips the flush entirely — recovered value can trail the acked
    count under flush-on-commit; flush-on-fail obviates the bug
    (the paper's argument, made checkable). *)
module Dcounter : sig
  type t

  val create : ?racy:bool -> Pheap.t -> t
  val attach : Pheap.t -> t

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
    ?racy:bool -> src:Pheap.t -> dst:Pheap.t -> slots:int -> unit -> t
  val attach : src:Pheap.t -> dst:Pheap.t -> unit -> t

  val put : t -> key:int -> unit
  (** Durable insert of [expected ~key] into the source cell. *)

  val move : t -> key:int -> unit
  (** Migrates one key. Each step annotates on the heap that acts: the
      destination's read and persist on [dst], the tombstone on
      [src]. *)

  val slots : t -> int
  val src_value : t -> key:int -> int64
  val dst_value : t -> key:int -> int64

  val expected : key:int -> int64
  (** Deterministic non-zero per-key payload. *)
end
