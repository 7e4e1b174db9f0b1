(** Systematic power-fail injection over whole workload executions.

    The checker turns the simulator into a sanitizer: it records the
    persistency trace of a deterministic, seed-generated transactional
    workload, then for each chosen crash point reconstructs the machine
    state {e exactly before} that memory event (see {!engine}): the
    bytes a real failure would preserve (drained stores only; dirty
    cache lines and unfenced write-combining data lost, unless the
    configuration's flush-on-fail save rescues them). Each crash state
    is handed to the {e real} recovery path and judged against
    oracles:

    - {b durability}: recovered contents equal the committed model — or,
      when the cut fell inside a commit, the model with the in-flight
      transaction either fully present or fully absent;
    - {b no torn log entry}: recovery completes without raising;
    - {b structural invariants}: the data structure's own [check];
    - {b allocator}: free-list/index consistency;
    - {b image completeness} (flush-on-fail configurations): the
      post-save persistent image equals the pre-crash volatile contents
      byte for byte — WSP resumes rather than recovers, so nothing else
      may be demanded, and nothing less suffices.

    Crash points are {!Wsp_nvheap.Crash}'s, in its [Freeze] mode. Short
    traces are enumerated exhaustively; long ones are sampled by
    {!Wsp_nvheap.Crash.select} from a seeded {!Wsp_sim.Rng}, so every
    report is reproducible from its seed. Failing traces are shrunk
    greedily to a 1-minimal reproducer (no single transaction or
    operation can be dropped without losing the failure). *)

open Wsp_nvheap

(** {1 Workloads} *)

type kind = Btree | Hash_table | Skiplist | Block_kv

val all_kinds : kind list
val kind_name : kind -> string
val kind_of_name : string -> kind option

type op = Insert of int64 * int64 | Delete of int64

type script = op list list
(** One transaction per inner list (per-operation atomic updates for
    {!Block_kv}, which journals each operation individually). *)

val gen_script :
  rng:Wsp_sim.Rng.t ->
  txns:int ->
  ops_per_txn:int ->
  keyspace:int ->
  setup_entries:int ->
  script
(** Deterministic workload: [setup_entries] single-insert transactions,
    then [txns] transactions of 1..[ops_per_txn] operations (3:1
    insert:delete) over keys [1..keyspace]. *)

(** {1 Fault injection} *)

type fault =
  | No_fault
  | Broken_fences
      (** Fences never drain write-combining buffers: every durable log
          append is silently lost. Detectable under flush-on-commit
          configurations; harmless under WSP, whose save path does not
          rely on fences. *)
  | Broken_wsp_save
      (** The flush-on-fail save skips the cache flush: the saved image
          misses everything still in cache. Detectable under
          flush-on-fail configurations. *)

val fault_name : fault -> string

val apply_fault : Nvram.t -> fault -> unit
(** Arms the fault's sabotage on the NVRAM: [Broken_fences] breaks its
    fences; the other two leave it untouched ([Broken_wsp_save] acts on
    the save path, not on the NVRAM). *)

(** {1 Single executions without crash enumeration} *)

val run_workload :
  ?txns:int ->
  ?fault:fault ->
  kind:kind ->
  config:Config.t ->
  seed:int ->
  observe:(Pheap.t -> unit) ->
  finish:(Pheap.t -> unit) ->
  unit ->
  unit
(** One complete execution of the deterministic seeded workload with
    caller-chosen observation: [observe] receives the freshly built heap
    before the first operation (the place to subscribe to {!Pheap.bus})
    and [finish] receives it after the last. The streaming backbone of
    {!record_workload} and of the analyzer's live mode. The workload
    shape is {!check}'s default one: up to 3 operations per
    transaction over keys 1..40 after 16 setup inserts, and [txns]
    (default 32) transactions. *)

val record_workload :
  ?txns:int ->
  ?fault:fault ->
  kind:kind ->
  config:Config.t ->
  seed:int ->
  unit ->
  Trace.recording
(** Records one complete execution of the same deterministic seeded
    workload {!check} explores — no crash points, no recovery — and
    returns the trace with its heap geometry: the static analyzer's
    input. The workload shape is {!run_workload}'s. *)

(** {1 Checking} *)

type violation = {
  point : int;  (** Crash fell before memory event [point]. *)
  where : string;  (** Human-readable crash-point description. *)
  message : string;  (** Which oracle failed, and how. *)
}

type shrunk = {
  script : script;  (** 1-minimal failing workload. *)
  point : int;  (** First failing crash point of the shrunk trace. *)
  trace_length : int;
  message : string;
}

type report = {
  kind : kind;
  config : Config.t;
  seed : int;
  fault : fault;
  trace_length : int;  (** Memory events in the full trace. *)
  points_explored : int;
  exhaustive : bool;  (** All points covered (vs. seeded sample). *)
  violations : violation list;
  shrunk : shrunk option;
}

type engine =
  | Incremental
      (** Record one golden execution (trace + replayable mutation log +
          committed-op journal), then reconstruct each crash state by
          replaying only the delta from the previous point — cost
          proportional to the post-crash suffix, not the trace. *)
  | Full_replay
      (** Re-execute the workload from scratch for every crash point —
          the original O(points × trace) engine, kept as the reference
          the incremental engine is tested against. *)

val check :
  ?jobs:int ->
  ?points:int ->
  ?txns:int ->
  ?ops_per_txn:int ->
  ?keyspace:int ->
  ?setup_entries:int ->
  ?fault:fault ->
  ?shrink:bool ->
  ?engine:engine ->
  ?snapshot_stride:int ->
  kind:kind ->
  config:Config.t ->
  seed:int ->
  unit ->
  report
(** Runs the full record → enumerate → inject → recover → judge cycle.
    Crash points fan out over {!Wsp_sim.Parallel.map} ([jobs] defaults to
    the pool's [WSP_JOBS]-aware width; results are identical at any job
    count and under either [engine]). [points] (default 1000) caps
    exploration; [shrink] (default [true]) minimises the first failing
    trace. [snapshot_stride] (default 256) is the incremental engine's
    waypoint interval in crash points — also its parallel chunk size; [0]
    disables waypoints (every chunk replays from the base image, the
    stride=∞ behaviour). Raises [Invalid_argument] on a non-positive
    [points], a negative [txns] or a negative [snapshot_stride]. *)

(** {1 The incremental engine's parts}

    {!check} composes these; they are exported so tests can drive the
    judging loop over a cursor they hold. *)

type mark_info
(** The software state sampled at one mark: the pending atom, whether
    the commit protocol was running, and the committed-journal length. *)

type golden
(** One recorded execution: its trace, its replayable mutation log and
    its committed-op journal. *)

val record_golden :
  stride:int -> kind:kind -> config:Config.t -> fault:fault -> script -> golden
(** Executes [script] once under [fault], recording it for the
    incremental engine. [stride] is {!Replay.record}'s waypoint
    interval. *)

val golden_replay : golden -> mark_info Replay.t

val crash_state :
  kind:kind ->
  config:Config.t ->
  fault:fault ->
  point:int ->
  script ->
  Replay.state option
(** The full-replay engine's crash state: {!Replay.capture} of a fresh
    execution of [script] frozen just before memory event [point], or
    [None] when the trace ends first. The reference a cursor's state is
    tested against. *)

val judge_marks :
  ?cursor:mark_info Replay.cursor ->
  ?until_violation:bool ->
  golden ->
  int list ->
  (int * string option) list
(** Verdicts for ascending crash points, judged on one cursor ([cursor],
    or a fresh one over the recording): [None] = survived, [Some]
    message = bug. Each state is judged in place; the cursor's state is
    left exactly as {!Replay.seek} made it. With [until_violation]
    (default [false]) the list ends at the first failing point. *)

val reports_to_json : report list -> string
(** Stable machine-readable rendering of a batch of reports. Two runs
    agree iff the JSON is byte-equal — the CI determinism job compares
    engines and job counts this way. *)

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit
