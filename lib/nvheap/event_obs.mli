(** The event-derived reference for every counter that counts one event
    at a time, and a subscriber whose cost is one hooked dispatch per
    event.

    The counters themselves are kept inline, once per event, by the
    layer that executes it, resolved once from {!Nvram.metrics}:
    [nvheap.stores] by {!Nvram}'s cached stores;
    [machine.flush.nt_stores], [machine.flush.fences],
    [machine.flush.clflush], [machine.flush.flush_range] and
    [machine.flush.wbinvd] by the NVRAM's cache hierarchy;
    [nvheap.log.appends], [nvheap.log.append_words] and
    [nvheap.log.truncates] by {!Rawlog}; [nvheap.txn.commits] and
    [nvheap.txn.aborts] by {!Txn}; [nvheap.alloc.allocs] and
    [nvheap.alloc.frees] by {!Alloc}. This subscriber counts the same
    names from the events on a bus instead, so a test can check that
    the inline counts are what the bus carried, and a benchmark can
    price a store with one subscriber attached.

    Two differences are by design. The [No_log] configuration publishes
    no [Tx] events (there is no transaction machinery to announce), so
    only the inline counters see its commits and aborts. And a [Wb]
    event is not counted here: the hierarchy counts each write-back as
    one line of the byte counter of its cause (an eviction, a flush, a
    non-temporal store), which the event does not name. *)

val attach :
  ?metrics:Wsp_obs.Metrics.t ->
  Event.t Wsp_events.Bus.t ->
  Wsp_events.Bus.subscription
(** Attaches the counting subscriber to one bus; counters resolve from
    [metrics] (default: a fresh private registry, so attaching never
    double-counts into the registry the inline counters use). *)
