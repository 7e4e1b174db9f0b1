(** The concurrent lint and its dynamic twin: a registry of
    deterministic multi-domain workloads over the
    {!Wsp_nvheap.Dstruct} durable structures, analysed live by
    {!Crules} ({!clint}) and crash-swept on the very same drivers
    ({!sweep}), so the static and dynamic race verdicts judge one
    execution.

    Every workload is single-OS-thread deterministic: logical domains
    are interleaved by the driver, which re-attributes heap bus events
    by switching the current domain between operations. Reports reuse
    {!Analyzer.report}, so JSON/human rendering and the [--expect]
    exit-code logic are shared with the single-trace lint — and remain
    byte-identical at any [--jobs] width. *)

(** The execution context a concurrent workload drives:
    [add_heap ~domains heap] registers the heap for each listed domain
    ({!Crules.register}, which replays its allocation baseline) and
    feeds the heap's {!Wsp_nvheap.Nvram.bus} events and
    {!Wsp_nvheap.Nvram.sync_bus} annotations to the detector — to the
    one domain when a single one is listed, else to the {e current}
    domain. Call it after the structure is created so the baseline
    covers its blocks. [set_domain] switches the current domain.
    {!sweep} drives the same workload under a crash context that
    {!Wsp_nvheap.Crash.watch}es the added heaps, collects the acks from
    their annotation buses and ignores domains. *)
type ctx = {
  add_heap : domains:int list -> Wsp_nvheap.Pheap.t -> unit;
  set_domain : int -> unit;
}

type cworkload = {
  cname : string;  (** ["dqueue-racy/foc-ul"] — structure slash config. *)
  cconfig : Wsp_nvheap.Config.t;
  cdomains : int;  (** Minimum logical domains the driver needs. *)
  crun : ctx -> domains:int -> txns:int -> seed:int -> unit;
  caudit : Wsp_nvheap.Pheap.t list -> acked:int64 list -> bool * bool;
      (** After a crash: the re-attached heaps in [add_heap] order and
          the objects acked by the crash instant, to (loss, torn). A
          loss is an acked object the recovered state no longer shows
          (R7's dynamic shadow, R8's when a handoff drops a key from
          both heaps); torn state is visible but wrong (R9's). *)
}

val cregistry : cworkload list
(** The three Delay-Free structures, clean and racy, under FoC-UL and
    FoF: [dqueue] (producers + consumer on one heap), [dcounter]
    (peer incrementers behind a release/acquire channel) and [handoff]
    (two heaps, one migration coordinator pair). *)

val cfind : ?workload:string -> ?config:string -> unit -> cworkload list
(** Same filter semantics as {!Analyzer.find}. *)

val clint :
  ?jobs:int ->
  ?buses:int ->
  ?txns:int ->
  ?seed:int ->
  workloads:cworkload list ->
  unit ->
  Analyzer.report list
(** Runs each workload under a fresh {!Crules} stream, fanning out over
    {!Wsp_sim.Parallel.map}. [buses] raises the domain count above each
    workload's minimum (extra producers for [dqueue], extra peers for
    [dcounter]; [handoff] keeps its pair). Defaults: 24 operations,
    seed 1. Reports come back in workload order regardless of
    [jobs]. Raises [Invalid_argument] on a negative [txns] or
    [buses]. *)

type verdict = {
  points : int;  (** Crash points swept (= uncrashed memory events). *)
  losses : int;  (** Points whose audit found an acked object gone. *)
  torn : int;  (** Points whose audit found visible-but-wrong state. *)
  first_bad : int option;  (** Earliest convicting point, if any. *)
}

val clean : verdict -> bool
(** No losses and nothing torn. *)

val sweep : cworkload -> txns:int -> verdict
(** Runs the workload's own [crun] once to count its memory events,
    then once per event [k], failing power immediately before it: a
    plain cut when the backend is durable without WSP, otherwise a WSP
    save ([wsp_flush]) then the cut — the semantics of
    {!Wsp_check.Checker}. Each crashed run is re-attached and judged by
    [caudit]. Deterministic: same arguments, same verdict. *)
