(** The persistent heap facade.

    Bundles an NVRAM region, its allocator, its raw log and a transaction
    manager under one of the five persistence configurations. Region
    layout: a small root/metadata area, then the log, then the heap.

    This is the API the paper's workloads are written against: the same
    data-structure code runs unchanged under Mnemosyne-style
    flush-on-commit STM, undo logging, or plain WSP operation — only the
    configuration changes, exactly as in §5.1. *)

open Wsp_sim

type t

val create :
  ?hierarchy:Wsp_machine.Hierarchy.config ->
  ?config:Config.t ->
  ?log_size:Units.Size.t ->
  size:Units.Size.t ->
  unit ->
  t
(** Defaults: the {!Config.fof} configuration, a 4 MiB log, and the
    Intel C5528 single-thread hierarchy. *)

val create_in :
  ?config:Config.t ->
  ?log_size:Units.Size.t ->
  nvram:Nvram.t ->
  base:int ->
  len:int ->
  unit ->
  t
(** Formats a heap inside an existing NVRAM region [\[base, base+len)] —
    how an application heap is carved out of a machine's NVDIMM-backed
    memory, leaving the low addresses to the WSP save area. *)

val attach_in :
  ?config:Config.t ->
  ?log_size:Units.Size.t ->
  nvram:Nvram.t ->
  base:int ->
  len:int ->
  unit ->
  t
(** Re-adopts a previously formatted region after a crash/restore and
    runs recovery. [log_size] must match the value used at format time. *)

val nvram : t -> Nvram.t

val bus : t -> Event.t Wsp_events.Bus.t
(** The heap's unified persistency event bus — shorthand for
    [Nvram.bus (nvram t)]. Everything this heap does (stores, fences,
    flushes, log appends, transaction boundaries, write-backs,
    allocations) arrives here. *)

val txn : t -> Txn.t

val log : t -> Rawlog.t
(** The transaction log. Its events already arrive on {!bus}. *)

val allocator : t -> Alloc.t
val config : t -> Config.t

val clock : t -> Time.t
(** Total simulated time charged by this heap's operations. *)

val dirty_bytes : t -> int
(** Dirty cache state attributable to this heap's NVRAM — the exact
    amount a flush-on-fail save would have to write back right now.
    O(dirty lines). *)

val reset_clock : t -> unit

(** {1 Allocation} *)

val alloc : t -> int -> int
(** Allocates [n] bytes; metadata writes are transaction-logged when a
    transaction is open. *)

val free : t -> int -> unit

(** {1 Data access} — dispatched through the transaction manager. *)

val read_u64 : t -> addr:int -> int64

val read_int : t -> addr:int -> int
(** [Int64.to_int (read_u64 t ~addr)]; unboxed where the configuration
    reads NVRAM directly. *)

val write_u64 : t -> addr:int -> int64 -> unit

(** {1 Transactions} *)

val with_tx : t -> (unit -> 'a) -> 'a

val durably : t -> (unit -> 'a) -> 'a
(** Runs one durable update: inside {!with_tx} when the heap's own
    configuration has a transaction protocol, bare under
    {!Config.Plain} (flush-on-fail needs no brackets, and a bare update
    counts no commit). *)

val begin_tx : t -> unit
val commit : t -> unit
val abort : t -> unit

(** {1 Root object} *)

val set_root : t -> int -> unit
(** Publishes the address applications start recovery from (0 = none).
    The slot stores a tagged {e base-relative} word, so a published
    root survives image relocation unchanged and a genuine offset-0
    root is distinguishable from "none". Raises [Invalid_argument] for
    a non-zero address outside the region. *)

val root : t -> int
(** The published root as an absolute address, 0 for none. *)

val root_opt : t -> int option
(** The published root as an absolute address; [None] when unset.
    Raises [Invalid_argument] on an untagged (corrupt) root word. *)

(** {1 Failure and recovery} *)

val crash : t -> unit
(** Power failure without a WSP save: all cached state is lost. *)

val wsp_flush : t -> unit
(** What the WSP save path does for this heap: flush every cache line to
    NVRAM (flush-on-fail). After this, {!crash} loses nothing. *)

val recover : t -> unit
(** Post-crash software recovery: transaction log repair, then allocator
    index rebuild. *)

val quiesce : t -> unit
(** Flushes protected data (flush-on-commit) and empties the log. Log
    records embed absolute addresses, so this is the precondition for
    {!Image.save}. Raises [Invalid_argument] inside a transaction. *)

val heap_base : t -> int
val heap_size : t -> int

val base : t -> int
(** First byte of the heap's whole region (root area). *)

val region_len : t -> int
(** Total bytes of the region: root area + log + heap. *)

val log_bytes : t -> int
(** Bytes of the log area — what [log_size] resolved to at format
    time; an {!attach_in} of the same region must be given this. *)
