(** The persistency-event vocabulary — the one type every emitter
    publishes and every observer subscribes to.

    Each emitter publishes one sub-stream on {!Nvram.bus}: {!Nvram}
    its primitives as {!type-mem}, {!Rawlog} its operations as
    {!type-log}, {!Txn} its transaction boundaries as {!type-tx}, and
    {!Alloc} its heap lifetime as {!type-heap}. Producers and consumers
    alike name the types here; no module restates them.

    Events are announced {e before} the primitive mutates any state, so
    a subscriber that raises models a power failure exactly between two
    stores (see {!Bus.publish} in [wsp_events]). *)

(** {1 Per-emitter sub-streams} *)

type mem =
  | Store of { addr : int; len : int }  (** Cached write (dirties lines). *)
  | Store_nt of { addr : int }  (** 8-byte non-temporal store. *)
  | Fence  (** WC-buffer drain point. *)
  | Clflush of { addr : int }
  | Flush_range of { addr : int; len : int }
  | Wbinvd  (** The NVRAM's persistency-affecting primitives. *)

type log = Append of { kind : int; n_values : int } | Truncate
(** Log-level annotations; the word-granular stores and fences an
    operation issues are announced separately as {!type-mem} events. *)

type tx =
  | Begin of int64
  | Commit of { txid : int64; written_lines : int list }
      (** [written_lines] is the sorted set of line-base addresses the
          transaction wrote (including undo-logged allocator headers) —
          exactly the lines the commit protocol must make durable, so
          consumers need not re-derive it from raw stores. Empty for
          read-only transactions. *)
  | Abort of int64
(** Transaction-boundary annotations, fired before the boundary's first
    store. [Commit] marks commit {e entry}: stores announced between it
    and the next [Begin] are the commit protocol itself (log records,
    in-place apply, truncation). *)

type heap =
  | Alloc of { addr : int; size : int }
      (** A payload of [size] bytes (already aligned/rounded) was handed
          out at [addr]. Emitted before the header mutations. *)
  | Free of { addr : int; size : int }
      (** The payload at [addr] (of [size] bytes) was returned. Emitted
          before the header mutations. *)
  | Header_write of { addr : int }
      (** A block-header word at [addr] is about to be written — lets an
          observer whitelist allocator-metadata stores that are not
          stores to any payload. *)
(** Heap-lifetime annotations: the companion of the {!type-mem} events
    for the use-after-free lint. *)

(** {1 The unified stream} *)

type t =
  | Mem of mem
  | Log of log
  | Tx of tx
  | Wb of { line : int; explicit : bool }
      (** A dirty cache line left the hierarchy — [explicit] for flush
          instructions and NT displacement, [false] for silent capacity
          evictions. Machine-level enrichment bridged up from
          {!Wsp_machine.Hierarchy}; not a crash point (the corresponding
          flush already is one). *)
  | Heap of heap

val pp : Format.formatter -> t -> unit

(** {1 Race annotations}

    A cross-domain synchronisation or durability annotation, published
    on {!Nvram.sync_bus} by protocol code ({!Dstruct}, the shard
    service) and consumed by the race detector
    ({!Wsp_analysis.Crules}). Annotations are not crash points: they
    never travel on {!Nvram.bus}, so {!Crash} and every other
    persistency observer never see them.
    Objects are caller-chosen 64-bit identities (a key, a queue
    sequence number); [addr] is the object's backing byte address when
    the caller persists it with explicit flushes, or negative when a
    transaction commit is what makes it durable. *)

type sync =
  | Write of { obj : int64; addr : int }
      (** The domain stored the object's current value. *)
  | Read of { obj : int64 }  (** The domain consumed the object. *)
  | Ack of { obj : int64 }
      (** The domain made the object's write client-visible. *)
  | Publish of { chan : int }
      (** Release half of a cross-domain edge (tail publish, lock
          release). *)
  | Acquire of { chan : int }
      (** Acquire half: absorb everything published on [chan]. *)
  | Handoff_persist of { obj : int64 }
      (** Migration: destination declares the object persisted. *)
  | Tombstone of { obj : int64 }
      (** Migration: source retires its copy of the object. *)
  | Barrier
      (** Full clock join across every domain — a round join or a WSP
          save/restore point. *)

val pp_sync : Format.formatter -> sync -> unit
