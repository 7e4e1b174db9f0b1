(** The event-derived reference for the six [nvheap.*] counters, and a
    subscriber whose cost is one hooked dispatch per event.

    The counters themselves are kept inline by their emitters, resolved
    once from {!Nvram.metrics}: [nvheap.fences] by {!Nvram.fence},
    [nvheap.log.appends], [nvheap.log.append_words] and
    [nvheap.log.truncates] by {!Rawlog}, [nvheap.txn.commits] and
    [nvheap.txn.aborts] by {!Txn}. This subscriber counts the same names
    from the events on a bus instead, so a test can check that the
    inline counts are what the bus carried, and a benchmark can price a
    store with one subscriber attached.

    The two disagree in one place by design: the [No_log] configuration
    publishes no [Tx] events (there is no transaction machinery to
    announce), so only the inline counters see its commits and
    aborts. *)

val attach :
  ?metrics:Wsp_obs.Metrics.t ->
  Event.t Wsp_events.Bus.t ->
  Wsp_events.Bus.subscription
(** Attaches the counting subscriber to one bus; counters resolve from
    [metrics] (default: a fresh private registry, so attaching never
    double-counts into the registry the inline counters use). *)
