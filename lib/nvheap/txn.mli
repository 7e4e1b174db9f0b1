(** Transactional access to NVRAM under a persistence configuration.

    One manager owns an NVRAM region's log and dispatches every data
    access on its configuration's {!Config.protocol}:

    - {b Undo logging}: the old value is logged before the first in-place
      write to each address; commit (under flush-on-commit) flushes the
      written lines and truncates the log. Recovery rolls back
      uncommitted transactions.
    - {b Redo STM}: reads are instrumented against a read set, writes are
      buffered in a write set; commit logs redo records, then applies the
      writes in place. Recovery replays committed transactions and drops
      uncommitted ones.
    - {b Plain}: plain loads and stores (the WSP configuration).
    - {b Msync page commit}: data writes are buffered in tracked dirty
      pages; commit journals whole-page post-images with fenced
      non-temporal appends, seals the epoch, then applies and flushes in
      place — a double-buffered failure-atomic msync. Allocator headers,
      written in place by the allocator, are covered by durable undo
      records instead, rolled back by the same path as undo logging's.

    Transactions are single-threaded (the paper's benchmarks are too);
    the STM machinery still performs read-set validation so its costs are
    charged faithfully.

    Every transaction boundary publishes an [Event.Tx] annotation on the
    owning {!Nvram.bus} before its first store. The [Plain] protocol
    (the [No_log] configuration) has no transaction machinery and
    publishes nothing.

    Under every protocol, [Plain] included, {!commit} and {!abort} bump
    the [nvheap.txn.commits] and [nvheap.txn.aborts] counters of
    {!Nvram.metrics} inline. *)


type t

val create :
  nvram:Nvram.t ->
  config:Config.t ->
  log:Rawlog.t ->
  unit ->
  t

val attach :
  nvram:Nvram.t ->
  config:Config.t ->
  log:Rawlog.t ->
  unit ->
  t
(** Like {!create} but runs {!recover} first — the post-crash path. *)

val config : t -> Config.t
val nvram : t -> Nvram.t

val log : t -> Rawlog.t
(** The log this manager owns — checker instrumentation attaches its
    {!Rawlog} hook through this. *)

val in_tx : t -> bool

(** {1 Log record kinds}

    The record-kind tags this manager writes through {!Rawlog.append},
    exported so trace consumers can classify [Rawlog] append events. *)

val k_undo : int
val k_redo : int
val k_commit : int

val begin_tx : t -> unit
(** Raises [Invalid_argument] if a transaction is already open. *)

val commit : t -> unit
val abort : t -> unit

val with_tx : t -> (unit -> 'a) -> 'a
(** Runs the function inside a transaction; commits on return, aborts and
    re-raises on exception. *)

val read_u64 : t -> addr:int -> int64

val read_int : t -> addr:int -> int
(** [Int64.to_int (read_u64 t ~addr)], unboxed outside a buffering
    transaction. *)

val write_u64 : t -> addr:int -> int64 -> unit

val buffers_writes : t -> bool
(** Whether data writes are currently buffered (msync backend, inside a
    transaction) — when true, {!note_free} must be told about payload
    frees. *)

val note_free : t -> addr:int -> size:int -> unit
(** Drops buffered writes covered by a freed payload block
    [\[addr, addr+size)]: they are dead, and applying them at commit
    would store into a freed block. No-op unless {!buffers_writes}. *)

val log_header_write : t -> addr:int -> unit
(** Hook for allocator metadata: undo-logs the word about to change when
    undo logging is active (no-op otherwise). Pass as [on_header_write]
    to {!Alloc.alloc}/{!Alloc.free}. *)

val on_crash : t -> unit
(** Discards volatile transaction state — the process died with the
    power. Called by {!Pheap.crash}; {!recover} then repairs NVRAM. *)

val recover : t -> unit
(** Post-crash repair: rolls back (undo) or replays (redo/page journal)
    according to the log, then truncates it. Safe to call on a clean
    heap. *)

val quiesce : t -> unit
(** Empties the log outside any transaction (flushing the data it
    protects first, under flush-on-commit). Log records embed absolute
    addresses, so a quiesced log is a precondition for saving a
    relocatable heap image. Raises [Invalid_argument] inside a
    transaction. *)
