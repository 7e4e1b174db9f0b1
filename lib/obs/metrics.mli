(** Simulation-time metrics: a zero-dependency registry of monotonic
    counters, gauges, and fixed-bucket log-scale histograms, keyed by
    dotted names ("machine.cache.hits").

    Design constraints, in priority order:

    - {b Allocation-free on the hot path.} Instrumented code resolves
      its metric handles once (at object-creation time) and then only
      mutates record fields; nothing on the per-access path hashes a
      name or allocates.
    - {b Deterministic under parallelism.} Each domain records into its
      own ambient registry; [merged] combines every ambient registry
      with commutative operations (sum for counters and histogram
      buckets, peak for gauges), so the merged export is byte-identical
      no matter how work was split across domains.
    - {b Deterministic export.} [to_json] sorts by metric name and
      skips never-touched metrics, so a reset-and-rerun produces the
      same bytes. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit

  val value : t -> int
  (** Monotonic total; 0 when never touched. *)
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  (** Records the instantaneous value; the peak is tracked. *)

  val value : t -> float
  (** Last value set; 0 when never set. *)

  val peak : t -> float
  (** Largest value ever set; after a merge the peak across all merged
      registries (the last value is not meaningful across domains). *)
end

module Histogram : sig
  type t

  val observe : t -> int -> unit
  (** Records one non-negative integer sample (a duration in
      picoseconds, a byte count, ...) into log2-scaled buckets: bucket
      0 holds samples [<= 0], bucket [i >= 1] holds samples in
      [[2{^i-1}, 2{^i})], and the last bucket absorbs the tail. *)

  val count : t -> int
  val sum : t -> int
  val max_sample : t -> int

  val bucket_counts : t -> int array
  (** A copy of the per-bucket counts. *)

  val bucket_lower_bound : int -> int
  (** Smallest sample landing in bucket [i]. *)
end

type t
(** A metrics registry. *)

val create : unit -> t
(** A fresh, private registry (not included in [merged]). *)

val counter : t -> string -> Counter.t
val gauge : t -> string -> Gauge.t
val histogram : t -> string -> Histogram.t
(** Get-or-create by dotted name. Raises [Invalid_argument] when the
    name is already registered as a different metric kind. *)

val merge_into : into:t -> t -> unit
(** Folds a registry into [into]: counters and histograms add, gauge
    peaks take the maximum. Raises [Invalid_argument] on a metric-kind
    clash. *)

val to_json : t -> string
(** Compact JSON object [{"counters":{...},"gauges":{...},
    "histograms":{...}}] with names sorted; metrics that were never
    touched are omitted. *)

val ambient : unit -> t
(** The calling domain's registry, bound on first use: a registry an
    exited domain left behind, or else a new one registered for
    [merged]. A reused registry keeps its earlier domain's counts; since
    [merged] sums and takes peaks, this changes nothing it reports, and
    spawning domain after domain does not grow a registry per domain. *)

val merged : unit -> t
(** A fresh registry holding the merge of every ambient registry ever
    created by any domain. *)

val reset_all : unit -> unit
(** Zeroes every metric in every ambient registry — for tests and
    benchmarks that need an isolated measurement window. *)
