(** The lint rule engine: one forward pass over a persistency-trace
    recording, driving the {!Pdag} frontier and judging the rules below.
    No recovery is executed and no crash points are enumerated — the
    bug classes are exactly the missing-flush / missing-fence /
    redundant-flush taxonomy of "Persistent Memory Transactions"
    (Marathe et al.), plus heap lifetime and the paper's own
    flush-on-fail energy-budget obligation.

    {b R1 — unflushed commit} (error, flush-on-commit only): a line in a
    transaction's written set is not persist-ordered (flushed {e and}
    fenced) before the commit record that discards (undo) or stops
    replaying (redo, at truncation) the log records protecting it.

    {b R2 — unsealed commit record} (error, flush-on-commit only): a
    durable-mode commit record's non-temporal words are not drained by a
    working fence before a later store, log operation, or the end of the
    trace makes the program depend on them.

    {b R3 — redundant flush / fence} (advisory): a flush instruction
    covering no program-dirty line, or a fence with nothing to order —
    correct but wasted simulated time, estimated from the machine
    model's calibrated latency tables. Suppressed on a [fences_broken]
    machine, where fence semantics are void anyway.

    {b R4 — heap lifetime} (error): a store into the allocator region
    that hits no currently-allocated payload (freed or never allocated).
    Allocator-header words and undo-rollback writes are exempt.

    {b R5 — flush-on-fail reliance gap} (error, flush-on-fail only): the
    trace's worst-case dirty footprint cannot be saved — either the
    machine's WSP save is sabotaged ([wsp_save_broken]) while dirty data
    exists, or {!Wsp_core.System.save_budget} says the PSU's worst-case
    residual window cannot cover the Figure-4 save path at that
    footprint.

    {b R10 — unsettled page commit} (error, msync backend only): an
    in-place line applied by a sealed msync epoch is not persist-ordered
    before the truncation that discards the page journal protecting
    it — the msync analogue of R1's settling obligation. *)

open Wsp_nvheap

type machine = {
  config : Config.t;  (** Persistence configuration the trace ran under. *)
  fences_broken : bool;  (** The checker's [Broken_fences] sabotage. *)
  wsp_save_broken : bool;  (** The checker's [Broken_wsp_save] sabotage. *)
  hierarchy : Wsp_machine.Hierarchy.config;
      (** Latency tables for R3 waste estimates. *)
  platform : Wsp_machine.Platform.t;  (** R5 budget: load + save costs. *)
  psu : Wsp_power.Psu.spec;  (** R5 budget: residual window. *)
  busy : bool;  (** R5 budget: DC load drawn during the window. *)
}

val default_machine : config:Config.t -> unit -> machine
(** Intel C5528 / 1050 W PSU / idle, no sabotage — matching
    {!Wsp_core.System.create} defaults. *)

type severity = Error | Advisory

val severity_name : severity -> string

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10
(** R1–R5 and R10 are single-trace rules this engine emits; R6–R9 are
    the cross-domain persistency-race rules {!Crules} emits (durability
    race, ack-before-persist, handoff-order violation, and
    unpublished-fence reliance). One id space, so [--expect] and report
    rendering treat both families uniformly. *)

val rule_name : rule -> string
(** ["R1"].. ["R10"] — the ids the CLI's [--expect] flag takes. *)

val rule_slug : rule -> string
val rule_of_name : string -> rule option

type diagnostic = {
  rule : rule;
  severity : severity;
  message : string;
  line : int option;  (** Cache line number, when line-specific. *)
  txid : int64 option;  (** Transaction, when attributable. *)
  witness : int list;
      (** Ascending trace-event indices forming the shortest violating
          path (e.g. store → flush → commit-record append). *)
  wasted_ns : float option;  (** R3: estimated wasted simulated time. *)
}

type stats = {
  events : int;  (** Full interleaved trace length. *)
  mem_events : int;
  txns : int;  (** Commits observed. *)
  epochs : int;  (** Working-fence epoch splits. *)
  max_dirty_bytes : int;  (** Machine-view footprint high-water mark. *)
}

type result = { diagnostics : diagnostic list; stats : stats }

val compare_diagnostics : diagnostic -> diagnostic -> int
(** The canonical report order ([analyze]'s sort): severity first, then
    first witness index, rule rank, line, message. Exposed so {!Crules}
    can merge per-domain results and re-sort on rebased global
    indices. *)

val analyze : machine -> Wsp_check.Trace.recording -> result
(** One pass, O(events); diagnostics are sorted canonically (errors
    first, then by witness position) so reports are deterministic. *)

(** {1 Streaming}

    The same pass fed one event at a time — what the shard service's
    [--lint] and {!Crules} subscribe to a heap's
    {!Wsp_nvheap.Pheap.bus}: no recording is materialised, the {!Pdag}
    frontier is the only state. [analyze] is exactly [stream_create] /
    [stream_step] per event / [stream_finish]. *)

type stream

val stream_create :
  machine -> line_size:int -> alloc_base:int -> alloc_limit:int -> stream
(** Geometry arguments mirror {!Wsp_check.Trace.recording}'s fields.
    Feed any pre-existing allocation baseline (see
    {!Wsp_check.Trace.iter_baseline}) before live events. *)

val stream_step : stream -> Wsp_nvheap.Event.t -> unit
(** Judges one event; events are implicitly numbered in arrival order,
    matching recorded-trace indices. *)

val stream_finish : stream -> result
(** End-of-trace obligations (undrained commit records, the R5 energy
    budget), then the canonical sort. The stream must not be fed
    afterwards. *)

val stream_pdag : stream -> Pdag.t
(** The stream's persist-before frontier. {!Crules} queries it to
    decide whether an annotated object's backing line is
    persist-ordered at a sync point, instead of running a second
    frontier over the same events. *)
