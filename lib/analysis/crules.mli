(** The concurrent persistency race detector: happens-before crossed
    with persist-before, over any number of event-bus streams tagged
    with a source domain.

    Each domain is one logical event source — a shard worker, a
    producer thread on a shared heap, the migration coordinator. Every
    domain advances its own {!Vclock} component once per event;
    cross-domain edges exist {e only} at the annotated sync points fed
    through {!step}: publish/acquire channel pairs, migration
    handoff/tombstone pairs, and full barriers (round joins, WSP
    save/restore points). A store's {e persist} is tracked per writing
    domain — under flush-on-fail every store is durable the moment it
    issues (the paper's whole point), while under flush-on-commit an
    object's durability waits for its line to become persist-ordered in
    the writer's own {!Pdag} frontier (address-annotated objects) or
    for the writer's commit record to seal (transactional objects,
    annotated with a negative address).

    The rules judged on top of that model:

    {b R6 — durability race} (error): a domain overwrites an object
    last written by another domain whose persist is not ordered before
    the writer's frontier — the two stores race on what a failure
    preserves.

    {b R7 — ack-before-persist} (error): a client-visible ack of an
    object whose persist is not in the acker's past. The static twin of
    the shard service's dynamic acked-write audit.

    {b R8 — handoff-order violation} (error): a source-side tombstone
    not dominated by the destination-side persist of the same object —
    the cross-heap migration invariant WSP cannot repair, because a
    store never issued at the destination cannot be saved there.

    {b R9 — unpublished-fence reliance} (error): a cross-domain read of
    an object whose persist is still pending at the reader's frontier —
    the reader's continuation can survive a failure the data does not.

    Per-domain bus events are {e also} fed to an embedded per-domain
    {!Rules} stream, so single-trace R1–R5 findings surface in the same
    merged report with their witness indices rebased onto the global
    interleaved numbering. *)

type item =
  | Bus of Wsp_nvheap.Event.t
      (** One event from the domain's heap bus, in arrival order. *)
  | Sync of Wsp_nvheap.Event.sync
      (** An annotation from the domain's {!Wsp_nvheap.Nvram.sync_bus}. *)

type stream

val create : Rules.machine -> domains:int -> stream
(** All [domains] clocks exist from the start; bus analysis for a
    domain begins at {!register}. Raises [Invalid_argument] if
    [domains <= 0]. *)

val register : stream -> domain:int -> Wsp_nvheap.Pheap.t -> unit
(** Attach a per-domain {!Rules} stream with the heap's geometry and
    feed it the heap's allocation baseline ({!Wsp_check.Trace.iter_baseline})
    — required before the first [Bus] item for that domain. Sync-only
    domains (a coordinator that never owns a heap) need no
    registration. Raises [Invalid_argument] on a second registration. *)

val step : stream -> domain:int -> item -> unit
(** Judge one event from one domain. Events are numbered globally in
    arrival order — those indices are what diagnostics' witnesses
    cite. *)

val finish : stream -> Rules.result
(** Finishes every per-domain {!Rules} stream, rebases their witnesses
    onto global indices, merges in the R6–R9 race diagnostics and
    sorts canonically. The stream must not be fed afterwards. *)

val index : stream -> int
(** Events fed so far across all domains. *)

val witness_text : stream -> Rules.result -> (int * string) list
(** Human renderings for witness indices still in the recent-event
    ring (the last 1024 events) — older indices degrade to bare
    [#idx]. *)
