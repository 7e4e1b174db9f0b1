(** The lint driver: a registry of deterministic workloads, parallel
    fan-out of record + analyze over {!Wsp_sim.Parallel}, and rendering
    to machine-readable JSON or a human report with witness chains.

    Reports are canonical: workloads are analysed in registry order and
    each diagnostic list is sorted by {!Rules.analyze}, so the JSON
    output is byte-identical at any [--jobs] width. *)

type workload = {
  name : string;  (** ["btree/foc-ul"] — structure slash config slug. *)
  config : Wsp_nvheap.Config.t;
  run :
    fault:Wsp_check.Checker.fault ->
    txns:int ->
    seed:int ->
    observe:(Wsp_nvheap.Pheap.t -> unit) ->
    finish:(Wsp_nvheap.Pheap.t -> unit) ->
    unit;
      (** One deterministic execution with caller-chosen observation:
          [observe] receives the heap after setup (mkfs is not under
          analysis) and before the first operation under analysis;
          [finish] after the last. *)
}

val config_slug : Wsp_nvheap.Config.t -> string
(** ["foc-ul"], ["fof-stm"], ["fof"], … — the names used in workload
    ids and the CLI's [--config] filter. *)

val registry : workload list
(** Every seed workload the repo certifies: the checker's four
    structures under FoC-UL / FoC-STM / FoF, the remaining persistence
    models on the hash table, plus two lint-specific workloads — a
    [bank] transfer workload with aborts (rollback + allocator churn
    inside transactions) and the [avl] tree the experiments use. *)

val matches :
  workload:string option -> config:string option -> name:string ->
  Wsp_nvheap.Config.t -> bool
(** The registry filter {!find} and [Canalyzer.cfind] share: [workload]
    names the structure (the part before the slash) or the whole
    [name], [config] the config slug; [None] passes anything. *)

val find : ?workload:string -> ?config:string -> unit -> workload list
(** Registry entries that {!matches} the optional filters. *)

type report = {
  workload : string;
  config_name : string;
  fault : Wsp_check.Checker.fault;
  result : Rules.result;
  witness_text : (int * string) list;
      (** Rendering of every event index cited by a witness. *)
}

val lint :
  ?jobs:int ->
  ?fault:Wsp_check.Checker.fault ->
  ?txns:int ->
  ?seed:int ->
  ?psu:Wsp_power.Psu.spec ->
  ?platform:Wsp_machine.Platform.t ->
  ?busy:bool ->
  workloads:workload list ->
  unit ->
  report list
(** Records and then analyses each workload in one
    {!Wsp_sim.Parallel.map} item, so each heap is simulated once;
    results come back in workload order regardless of [jobs].
    Defaults: no sabotage, 32 transactions, seed 1, the
    {!Rules.default_machine} platform/PSU, idle load. Raises
    [Invalid_argument] on a negative [txns]. *)

val errors : expect:Rules.rule list -> report list -> int * int
(** [(unexpected_errors, unexpected_advisories)]: diagnostics whose rule
    is not in the [expect] allowlist, split by severity — the exit-code
    inputs. *)

val to_json : expect:Rules.rule list -> report list -> string
(** The machine-readable report (schema in EXPERIMENTS.md). Deliberately
    excludes anything host-dependent (wall-clock, job width) so output
    is byte-identical across runs and [--jobs] values. *)

val pp_human : expect:Rules.rule list -> Format.formatter -> report list -> unit
(** Per-workload verdict lines; each diagnostic with its shortest
    witness chain rendered as [#idx event -> #idx event -> …]. *)
