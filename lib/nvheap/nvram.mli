(** Byte-addressable simulated NVRAM behind a write-back cache hierarchy.

    This is the mechanism that makes crash experiments honest: ordinary
    stores update a volatile dirty-line buffer and only reach the
    persistent backing bytes on cache eviction, [clflush], [wbinvd], or a
    drained non-temporal store. {!crash} discards the dirty buffer and any
    undrained write-combining data — afterwards readers see exactly what
    had actually reached NVRAM, which is what recovery code must cope
    with.

    Every operation charges simulated time to the NVRAM's clock, giving
    the performance side of the evaluation. Addresses are byte offsets in
    [\[0, size)].

    The dirty buffer is a paged direct index from line number to the
    line's volatile copy, so a word access costs one hierarchy access,
    two array loads and the word's own load or store: no hash, no
    division (the line size is a power of two) and no allocation once
    the line's copy exists. *)

open Wsp_sim

type t

val create :
  ?hierarchy:Wsp_machine.Hierarchy.config ->
  ?backing:Bytes.t ->
  ?metrics:Wsp_obs.Metrics.t ->
  size:Units.Size.t ->
  unit ->
  t
(** The default hierarchy is one hardware thread of the paper's Intel
    C5528 testbed. When [backing] is given it becomes the persistent
    store (it must be at least [size] bytes) — this is how a machine
    aliases its NVRAM onto an NVDIMM's DRAM, so that an NVDIMM save
    persists exactly what cache write-backs and flushes have reached.
    [metrics] is the registry this NVRAM and everything layered on it
    count into (default: the creating domain's ambient registry); a
    private one lets a worker domain own every counter it writes. *)

val size : t -> int
val line_size : t -> int

val hierarchy : t -> Wsp_machine.Hierarchy.t
(** The cache hierarchy behind this NVRAM, for callers that need its
    geometry or tag state. Its write-backs reach observers as [Wb]
    events on {!bus}. *)

val metrics : t -> Wsp_obs.Metrics.t
(** The registry given to (or defaulted by) {!create}. Each counted
    event on {!bus} bumps one counter here, inline, in the layer that
    executes it, whether or not anyone subscribes: the NVRAM counts
    cached stores ([nvheap.stores]); the hierarchy counts non-temporal
    stores, fences and flushes ([machine.flush.*]) and adds each
    write-back as one line to a byte counter; {!Rawlog}, {!Txn} and
    {!Alloc} resolve their [nvheap.log.*], [nvheap.txn.*] and
    [nvheap.alloc.*] counters here too. Each is counted before its
    publish, so one a raising subscriber aborts is still counted. *)

val clock : t -> Time.t
(** Simulated time consumed by memory operations so far. *)

val reset_clock : t -> unit

val charge : t -> Time.t -> unit
(** Adds non-memory work (computation, bookkeeping) to the clock. *)

(** {1 Cached accesses} *)

val read_u64 : t -> addr:int -> int64

val read_int : t -> addr:int -> int
(** [Int64.to_int (read_u64 t ~addr)] — the same access and charge —
    without boxing the word: for pointers and small counters. *)

val write_u64 : t -> addr:int -> int64 -> unit
val read_bytes : t -> addr:int -> len:int -> Bytes.t
val write_bytes : t -> addr:int -> Bytes.t -> unit

(** {1 Non-temporal path}

    Non-temporal stores bypass the cache through write-combining buffers.
    They are {e not} durable until a {!fence} drains them: a crash before
    the fence discards undrained data. A cached load or store to a line
    holding a queued word drains the whole queue first, so it sees the
    word and never buries it under an older copy of the line. *)

val write_u64_nt : t -> addr:int -> int64 -> unit

val write_int_nt : t -> addr:int -> int -> unit
(** [write_u64_nt] of [Int64.of_int w], for callers whose words fit in
    an [int]: the word is never boxed. *)

val fence : t -> unit
val pending_nt_bytes : t -> int

(** {1 Flushes} *)

val clflush : t -> addr:int -> unit
(** Synchronously writes back and invalidates one line (latency-bound:
    issue cost plus a memory write round-trip when dirty). *)

val flush_range : t -> addr:int -> len:int -> unit
val wbinvd : t -> unit

(** {1 The persistency event bus}

    The instrumentation interface the crash-consistency checker and the
    static analyzer are built on: every primitive
    that can change (or fail to change) what a power failure preserves
    publishes itself {e before} mutating any state, so a subscriber that
    raises models a crash exactly between two stores. Reads are not
    announced — they cannot alter the persistent image. *)

val bus : t -> Event.t Wsp_events.Bus.t
(** The unified persistency event bus for this NVRAM and everything
    layered on it: the NVRAM's own primitives arrive as [Mem] events,
    {!Rawlog}, {!Txn} and {!Alloc} publish their annotations here too,
    and hierarchy write-backs arrive as [Wb] events. Any number of
    observers may subscribe concurrently; a subscriber's exception
    aborts the announced primitive with no state change. Every emitter
    tests {!Wsp_events.Bus.active} before building its event, so with
    no subscriber an emit is a single branch and allocates nothing. *)

val sync_bus : t -> Event.sync Wsp_events.Bus.t
(** The race-annotation bus next to {!bus} (see {!Event.sync}). Both
    dispatch synchronously, so a subscriber to both sees one
    program-ordered stream; an observer of {!bus} alone ({!Crash}, the
    trace recorder) never sees an annotation. *)

(** {1 Fault injection} *)

type fault =
  | No_fault
  | Broken_fence
      (** [fence] charges latency but never drains write-combining
          buffers, silently breaking every durable log append — the
          sabotage the checker must detect. [wbinvd] still drains (the
          flush-on-fail path is separate hardware). *)

val set_fault : t -> fault -> unit
val fault : t -> fault

(** {1 Access budgets}

    A bound on cached accesses, for callers that walk state of unknown
    integrity: post-crash recovery and the checker's oracles can be
    handed a structure whose torn pointers form a cycle, and an
    unmetered traversal would never terminate. Every budgeted access is
    one {!read_u64}/{!write_u64}-style primitive (multi-line ranges
    count once); with no budget set the cost is a single branch. *)

exception Budget_exhausted
(** Raised by the access that would exceed the configured budget, before
    it mutates or charges anything. *)

val set_step_budget : t -> int option -> unit
(** [set_step_budget t (Some n)] allows [n] further cached accesses;
    [None] (the initial state) removes the limit. Raises
    [Invalid_argument] on a negative budget. *)

(** {1 Failure} *)

val crash : t -> unit
(** Power failure: dirty lines and undrained non-temporal data vanish;
    the clock resets (a new execution begins at restore). *)

val dirty_bytes : t -> int

val persistent_image : t -> Bytes.t
(** A copy of the backing bytes only — what would survive a crash right
    now. Test instrumentation; charges no time. *)

val volatile_image : t -> Bytes.t
(** The full logical contents as running software sees them: backing
    overlaid with dirty cache lines and undrained write-combining data —
    exactly what a flush-on-fail save must make persistent. Test/checker
    instrumentation; charges no time. *)

val peek_u64 : t -> addr:int -> int64
(** Reads the {e backing store} directly, ignoring cached dirty data.
    Test instrumentation; charges no time. *)

(** {1 The replay tap}

    A synchronous observer of every {e data} mutation, in exact
    chronological order — the raw material of the incremental
    crash-point checker. The event bus cannot serve this purpose: events
    are published {e before} the primitive mutates anything and carry no
    payload, whereas replaying a crash prefix needs the bytes and the
    exact moment they land. At most one tap may be attached; with none,
    each mutation pays a single branch. *)

type tap = {
  on_slice : addr:int -> src:Bytes.t -> off:int -> len:int -> unit;
      (** [len] bytes were just written to the dirty overlay at [addr].
          They span a single cache line by construction (multi-line
          stores fire once per line, interleaved with any evictions they
          cause) and sit in [src] from [off]. [src] is the line's live
          overlay buffer: the callback copies what it keeps, and writes
          nothing to it. *)
  on_nt : addr:int -> v:int64 -> unit;
      (** An 8-byte non-temporal store was appended to the
          write-combining queue. *)
  on_wb : line:int -> data:Bytes.t -> unit;
      (** [line]'s dirty-overlay buffer is being written back to backing
          and dropped from the overlay. Ownership of [data] transfers to
          the callback — the overlay never mutates a removed buffer. *)
  on_drain : unit -> unit;
      (** The write-combining queue was flushed to backing (a drained
          {!fence}, {!wbinvd}, or a cached access to a line holding a
          queued word). *)
}

val set_tap : t -> tap option -> unit
(** Attaches or detaches the tap. Raises [Invalid_argument] when a tap
    is already attached and [Some _] is given. *)

(** {1 Raw-state accessors}

    Charge no time, publish no events; used by the incremental checker's
    waypoint snapshots. *)

val overlay_lines : t -> (int * Bytes.t) list
(** Copies of the dirty-overlay buffers, as [(line, data)] pairs in
    unspecified order. *)

val iter_overlay : t -> (int -> Bytes.t -> unit) -> unit
(** [iter_overlay t f] calls [f line data] on every dirty-overlay line,
    in ascending line order. [data] is the live buffer: [f] copies what
    it keeps, and writes nothing to it. *)

val pending_nt : t -> (int * int64) list
(** The write-combining queue, oldest first. *)

val blit_backing : t -> addr:int -> len:int -> Bytes.t -> dst_off:int -> unit
(** Copies [len] backing bytes at [addr] into [dst]. *)

val peek_volatile : t -> addr:int -> len:int -> Bytes.t -> dst_off:int -> unit
(** Copies [len] bytes of the volatile view at [addr] — backing
    overlaid with dirty cache lines and undrained write-combining data,
    as {!volatile_image} sees it — into [dst] at [dst_off]. Reads only
    the range: a saved heap image captures its live extents this way.
    Unlike {!read_bytes} it charges no time, spends no step budget and
    publishes no event. *)

val load_backing : t -> addr:int -> Bytes.t -> unit
(** Writes [src] directly into the persistent backing at [addr] — a
    DMA-style load, as when a shipped heap image is adopted by a node.
    Cached state overlapping the range (dirty-overlay lines, pending
    non-temporal stores) is invalidated, not written back. Charges no
    time and publishes no events. *)

val clear_backing : t -> addr:int -> len:int -> unit
(** Zeroes [len] backing bytes at [addr], invalidating overlapping
    cached state like {!load_backing}. Charges no time and publishes no
    events. *)
