(** The sharded directory service.

    N independent shards, each an {!Wsp_store.Avl} tree on its own
    persistent heap in its own simulated NVRAM, served round-by-round on
    its own {!Wsp_sim.Parallel} worker domain. A consistent-hash
    {!Router} splits the keyspace; a closed-loop {!Client} population
    drives load; each shard has a bounded admission queue that sheds
    (and counts) requests beyond its capacity.

    The round protocol is what makes parallel execution deterministic:
    request generation, routing, topology changes and key migration all
    happen on the coordinating domain, each worker then serves only its
    own shard's batch (no shared mutable state), and the return of
    [Parallel.pool_map] orders every worker write before the
    coordinator reads results. One pool of worker domains lives for
    the whole run. Simulated time, not wall-clock, is the
    only clock in the report, so JSON output is byte-identical across
    [--jobs] widths.

    {2 Online topology changes}

    [grow_at]/[shrink_at] change the ring mid-run. The moved keys drain
    from source to destination heap in bounded per-round batches while
    clients keep issuing, under a double-ownership handoff: each key is
    persisted at the destination (and fenced) {e before} the source
    tombstones it, and a volatile pending table routes the key to the
    source until its handoff lands. A power failure at any persistency
    event of the migration recovers to a lossless directory with every
    key owned by exactly one shard — {!crash_sweep} proves it point by
    point.

    {2 Power failures}

    [crash_at] alone power-fails the whole service at a round boundary
    (every shard runs the paper's Figure-4 save, synchronously).
    [crash_shard] narrows the failure to one shard: it saves, restores,
    and catches up on its backlog while the other N−1 shards keep
    serving; the report books the availability dip. Each shard keeps a
    volatile model of its acknowledged writes, and the post-restore
    audit counts acked updates the recovered tree lost — which must be
    zero under WSP. *)

open Wsp_sim
open Wsp_nvheap

type params = {
  shards : int;
  vnodes : int;  (** Router virtual points per shard. *)
  clients : int;  (** Closed-loop population = requests per round. *)
  requests : int;  (** Total operations to issue. *)
  keyspace : int;
  theta : float;  (** Zipfian skew; 0 = uniform. *)
  mix : Client.mix;
  queue_cap : int;
      (** Per-shard, per-round admission bound; arrivals beyond it are
          shed and counted, never silently dropped. *)
  config : Config.t;
  shard_heap : Units.Size.t;  (** NVRAM region per shard. *)
  log_size : Units.Size.t;
  seed : int;
  crash_at : int option;
      (** Power-fail after this 0-based round (clamped to the end of
          the run): the whole service, or just [crash_shard]. *)
  crash_shard : int option;
      (** Stable id of the one shard [crash_at] takes down; the other
          shards keep serving while it restores. Requires [crash_at]. *)
  grow_at : int option;
      (** Add a shard after this round and start draining the moved
          keys (deferred past any migration already in flight). *)
  shrink_at : int option;
      (** Remove the highest-index shard after this round; it drains
          its whole keyspace share, then retires. *)
  migrate_batch : int;  (** Max key handoffs per source per round. *)
  migrate_mode : [ `Drain | `Image ];
      (** How a topology change moves data. [`Drain] hands each key off
          out of the live source tree. [`Image] first ships the source's
          heap as a relocatable {!Image} to a staging node —
          quiesce, save, serialise, validate, restore at a {e different}
          base, swizzle ({!Wsp_store.Avl.attach_relocated}) — then hands
          keys off out of the restored replica, falling back to the live
          source only for keys a client wrote after the ship (counted in
          [image_deltas]). Both modes converge to identical final
          directories; the double-ownership handoff protocol and its
          crash-atomicity are shared. *)
  lint : bool;
      (** Stream the static persistency analyzer off each shard's bus. *)
  race_lint : bool;
      (** Stream every shard's bus and annotation bus
          ({!Wsp_nvheap.Nvram.sync_bus}: the serve loop's and the
          migration protocol's sync annotations) into the
          {!Wsp_analysis.Crules} cross-domain race
          detector: one vector-clock domain per stable shard id, a
          happens-before barrier at each round join, and
          handoff/tombstone edges at each migration step. Rules R6–R9
          judge the interleaved stream; the verdict lands in
          [report.race]. *)
  broken_handoff : bool;
      (** Test-only sabotage: migrate each key tombstone-first, so the
          value survives only in a volatile binding between the halves.
          R8 convicts it statically; {!crash_sweep} loses acked keys at
          the inter-half crash points. Requires a topology change. *)
  record_lookups : bool;
      (** Keep every lookup's (serial, result) — the oracle-equivalence
          hook for tests; costs memory, off by default. *)
}

val default : params
(** 16 shards × 256 clients, 100k requests over a 20k keyspace at
    YCSB skew, plain-WSP ({!Config.fof}) heaps, no crash, no topology
    change, 64-key migration batches. *)

type restore = {
  shard : int;
  dirty_bytes : int;  (** Footprint priced into the save budget. *)
  save_fits : bool;  (** Figure-4 total within the residual window. *)
  save_total : Time.t;
  window : Time.t;
  flush_cost : Time.t;  (** Simulated flush-on-fail (wbinvd) time. *)
  restore_cost : Time.t;  (** Re-attach + recovery simulated time. *)
  lost_acked : int;  (** Acknowledged updates the restore lost. *)
}

type topology_change = {
  change : [ `Grow | `Shrink ];
  at_round : int;  (** Round after which the ring changed. *)
  from_shards : int;
  to_shards : int;
  moved_fraction : float;  (** Keyspace share the ring re-owned. *)
  mutable moved_keys : int;  (** Keys actually handed off. *)
  mutable migration_rounds : int;  (** Rounds the drain was active. *)
}

type shard_stats = {
  shard : int;  (** Stable id, constant across renumbering. *)
  served : int;
  shed : int;
  crash_shed : int;
      (** Arrivals lost to a full backlog while powered off (or still
          backlogged when the run ended). *)
  lookups : int;
  hits : int;
  inserts : int;
  deletes : int;
  final_keys : int;
  migrated_in : int;  (** Keys received in topology handoffs. *)
  migrated_out : int;  (** Keys surrendered in topology handoffs. *)
  retired : bool;  (** Shrink victim, fully drained and stopped. *)
  downtime : Time.t;  (** Simulated time spent powered off. *)
  down_rounds : int;  (** Whole rounds missed while powered off. *)
  busy : Time.t;  (** Total simulated serving time. *)
  p50 : Time.t;  (** Per-operation service latency percentiles. *)
  p99 : Time.t;
  lat_max : Time.t;
  stores : int;
      (** Persistency events published on the shard's bus since the
          shard was formatted, per class, read off the counters of the
          registry its NVRAM counts into ({!Wsp_nvheap.Nvram.metrics}):
          [stores] is [nvheap.stores] plus [machine.flush.nt_stores],
          [flushes] the three [machine.flush] instruction counts,
          [fences] [machine.flush.fences], [writebacks] the
          {!Wsp_machine.Hierarchy.writeback_byte_counters} over the
          line size, and the rest
          [nvheap.txn.commits], [nvheap.log.appends] and
          [nvheap.alloc.*]. Counted whether or not anyone subscribed;
          the merged [--metrics] export holds the same counters. *)
  flushes : int;
  fences : int;
  writebacks : int;
  tx_commits : int;
  log_appends : int;
  allocs : int;
  frees : int;
  lint_errors : int;
  lint_advisories : int;
  bus_subscribers : int;
      (** Subscribers still on the shard's bus when the run ended: the
          race detector's tap under [race_lint], and nothing else. *)
}

type report = {
  params : params;
  issued : int;
  served : int;
  shed : int;
  crash_shed : int;  (** Total arrivals lost to powered-off shards. *)
  rounds : int;
  makespan : Time.t;
      (** Σ over rounds of the slowest shard's round time, plus
          migration time — the simulated wall-clock of the service. *)
  throughput_mops : float;  (** Served ops per simulated second, /1e6. *)
  availability : float;
      (** 1 − (shard-down time / total shard time): the dip one shard's
          power failure costs the fleet. 1.0 when nothing went down. *)
  p50 : Time.t;  (** Global service-latency percentiles. *)
  p99 : Time.t;
  p999 : Time.t;
  lat_max : Time.t;
  lost_acked : int;  (** Total across restores; 0 in a correct run. *)
  keys_moved : int;  (** Keys handed off by all topology changes. *)
  migration_time : Time.t;  (** Simulated time spent draining. *)
  mig_events : int;  (** Memory events during migration steps. *)
  dup_resolved : int;
      (** Double-owned keys a crash recovery resolved in favour of the
          destination. *)
  images_shipped : int;
      (** Relocatable heap images shipped to staging nodes ([`Image]
          mode: one per migration source, plus re-ships after a crash
          discards a stale staged copy). *)
  image_bytes : int;  (** Total wire bytes of shipped images. *)
  image_deltas : int;
      (** Handoffs that took the live value over the shipped copy
          because a client write raced the ship. *)
  misplaced_keys : int;
      (** Keys not resident where the directory routes them; 0 in a
          correct run. *)
  topology : topology_change list;  (** In firing order. *)
  restores : restore list;  (** One per shard per power failure. *)
  per_shard : shard_stats list;  (** In stable-id order. *)
  checksum : int64;
      (** Order-sensitive digest of every shard's final key→value
          contents, shard 0 first — equal checksums mean equal final
          states. *)
  race : Wsp_analysis.Rules.result option;
      (** When [race_lint]: the merged cross-domain analysis — R6–R9
          over the interleaved stream plus each domain's embedded R1–R5
          verdicts, witnesses rebased to global interleaved indices. *)
  lookup_results : (int * int64 option) array option;
      (** When [record_lookups]: every lookup's (issue serial, answer),
          sorted by serial — shard-count invariant when nothing sheds. *)
  final_contents : (int64 * int64) array option;
      (** When [record_lookups]: the merged final key→value contents of
          all shards, sorted by key — the oracle-equivalence surface. *)
}

val run : ?jobs:int -> params -> report
(** Drives the full closed loop, then fires each trigger at or past the
    last round once: topology changes first, each drained, then the
    crash. [jobs] caps worker domains exactly as
    {!Wsp_sim.Parallel.with_pool} does; the report is identical at any
    width.
    Raises [Invalid_argument] on malformed or conflicting params, and
    mid-run when [crash_shard] names a shard a shrink already retired. *)

(** {2 Checker-driven mid-migration crash sweep} *)

type sweep_point = {
  event : int;  (** Migration memory event the failure hit. *)
  lost : int;  (** Acked writes lost — must be 0. *)
  misplaced : int;  (** Keys not owned exactly once — must be 0. *)
  dups : int;  (** Handoffs recovery resolved toward the destination. *)
  state_ok : bool;
      (** Final contents, lookup answers and checksum all equal the
          crash-free golden run. *)
}

type sweep = {
  golden : report;  (** The crash-free reference run. *)
  total_events : int;  (** Migration memory events available. *)
  points : sweep_point list;  (** One per injected failure. *)
}

val crash_sweep : ?jobs:int -> ?points:int -> params -> sweep
(** Runs the service once crash-free to count the migration's memory
    events, then re-runs it with a whole-service power failure
    ({!Wsp_nvheap.Crash}) before each of up to [points] of them (default
    64; a {!Wsp_nvheap.Crash.select} sample seeded by [params.seed]). Requires [grow_at]
    or [shrink_at]; overrides any crash settings in [params]. Raises
    [Invalid_argument] on a non-positive [points], when the golden run
    has no migration memory event to inject (nothing moved), since such
    a sweep would certify nothing, and when [lint] or [race_lint] is
    set, since the sweep reports neither verdict. *)

val sweep_violations : sweep -> sweep_point list
(** The points that lost data, double/zero-owned a key, or diverged
    from the golden state — empty for a correct migration protocol. *)

val race_errors : report -> int * int
(** [(errors, advisories)] among the cross-domain rules R6–R9 only —
    the race-lint exit-code inputs. [(0, 0)] when [race_lint] was
    off; R1–R5 diagnostics the embedded per-domain streams raised are
    excluded (they belong to [lint]). *)

(** {2 Output} *)

val to_json : report -> string
(** Canonical JSON: simulated quantities only (picosecond integers,
    fixed-precision floats), so equal reports render byte-identically.
    [crash_at]/[crash_shard]/[grow_at]/[shrink_at] render as [null]
    when unset, never as a sentinel round index. *)

val sweep_to_json : sweep -> string

val pp_report : Format.formatter -> report -> unit
(** The human summary the CLI prints. *)

val pp_sweep : Format.formatter -> sweep -> unit
