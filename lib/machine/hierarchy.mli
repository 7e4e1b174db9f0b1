(** A multi-level, inclusive, write-back cache hierarchy.

    The hierarchy models *which lines are cached and which are dirty*, and
    charges access latencies; line contents are owned by the backing store,
    which is notified through [on_writeback] whenever a dirty line leaves
    the hierarchy (LLC eviction, [clflush], [flush_all]). A power failure
    is modelled by {!drop_volatile}, which discards all cache state with
    {e no} write-back — exactly the data loss the paper's flush-on-fail
    save path exists to prevent.

    Inclusion is maintained by back-invalidating upper levels when a lower
    level evicts, merging dirty bits downwards, so the set of dirty lines
    reported by {!dirty_lines} is exact. *)

open Wsp_sim

type config = {
  levels : Cache.config list;
      (** Ordered L1 first; all share a line size, a power of two. *)
  memory_latency : Time.t;  (** Memory read latency on LLC miss. *)
  memory_bandwidth : Units.Bandwidth.t;  (** Read/fill bandwidth. *)
  memory_write_bandwidth : Units.Bandwidth.t;
      (** Write-back bandwidth. Equal to [memory_bandwidth] for DRAM;
          much lower for SCMs such as phase-change memory (§6) — see
          {!Scm}. *)
  nt_store_latency : Time.t;
      (** Amortised cost of a write-combining non-temporal store of one
          line. *)
  fence_latency : Time.t;  (** Cost of [mfence]/WC-buffer drain. *)
  clflush_issue : Time.t;  (** Per-line issue cost of [clflush]. *)
  wbinvd_line_walk : Time.t;
      (** Per-line tag-walk cost of [wbinvd] (paid for {e every} line slot,
          dirty or not — this is what makes wbinvd time flat in the number
          of dirty lines, cf. Figure 8). *)
}

type t

val create :
  ?on_writeback:(line:int -> explicit:bool -> unit) ->
  ?metrics:Wsp_obs.Metrics.t ->
  config ->
  t
(** [on_writeback] is the backing store's data path — where dirty bytes
    go when a line leaves the hierarchy ([explicit] distinguishes flush
    instructions and NT displacement from silent capacity evictions).
    Fixed at creation: it is wiring, not an observation hook. The
    [machine.*] counters live in [metrics] (default: the creating
    domain's ambient registry). *)

val config : t -> config
val line_size : t -> int

val config_line_size : config -> int
(** The shared line size of a (non-empty) level list, without building
    the hierarchy — lets a caller size line buffers before {!create}. *)

val config_line_shift : config -> int
(** [log2] of {!config_line_size}. Raises [Invalid_argument] unless the
    line size is a power of two, as {!create} does. *)

val load : t -> addr:int -> Time.t
(** Reads one word; returns the charged latency. *)

val store : t -> addr:int -> Time.t
(** Writes one word through the cache (write-allocate), dirtying a line. *)

type instr = Nt_store | Fence | Clflush | Flush_range | Wbinvd

val count : t -> instr -> unit
(** Counts one instruction in its [machine.flush.*] counter. The
    instructions below count only the bytes they write back, so a
    caller can count one before announcing it: one an observer aborts
    is then counted but never executed. *)

val writeback_byte_counters : string list
(** The byte counters of the write-back causes: eviction, [clflush],
    {!flush_lines}, [wbinvd] and NT displacement. Each write-back adds
    one line to exactly one of them. *)

val store_nt : t -> addr:int -> Time.t
(** Non-temporal store: the touched line is flushed from the hierarchy if
    present and the write goes straight to the backing store (the caller
    performs the actual data write after this returns). *)

val fence : t -> Time.t
(** [mfence]: orders and drains write-combining buffers. *)

val clflush : t -> addr:int -> Time.t
(** Flushes one line: written back if dirty, invalidated everywhere. *)

val flush_lines : t -> addr:int -> len:int -> Time.t
(** [clflush] over every line of the byte range [\[addr, addr+len)]. *)

val flush_all : t -> Time.t
(** [wbinvd]: writes back every dirty line and invalidates every level.
    Cost = full tag walk + dirty write-back at memory bandwidth. *)

val drop_volatile : t -> unit
(** Power failure: all cache state vanishes, nothing is written back. *)

val dirty_lines : t -> int list
(** De-duplicated union of dirty lines across levels. O(dirty lines),
    via each level's intrusive dirty index. *)

val iter_dirty : t -> (int -> unit) -> unit
(** Applies the callback to the de-duplicated dirty-line union without
    building a list. The callback must not mutate the hierarchy. *)

val dirty_line_count : t -> int
(** Number of distinct dirty lines; O(dirty lines). *)

val dirty_bytes : t -> int
(** [dirty_line_count * line_size]. O(dirty lines) — this is polled
    inside residual-energy-window and protocol loops, where the former
    fold over every way of every level slot dominated simulation time. *)

val resident_lines : t -> int

val resident_at : t -> level:int -> line:int -> bool
(** Whether level [level] (0 is L1) holds [line]; reads tag state
    without touching LRU recency. For inclusion checks. *)

val total_line_slots : t -> int
(** Configured capacity of every level, in lines, whether or not a set
    has been touched: what {!flush_all}'s tag walk is charged for. *)
