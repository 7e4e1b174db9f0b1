(** The metrics bridge: nvheap-level counters derived from the event bus
    instead of being hand-threaded through each emitter's call sites.

    When enabled, every {!Nvram.create} attaches one counting subscriber
    to the new NVRAM's bus, resolving counter handles from the NVRAM's
    registry ({!Nvram.metrics}) — so per-registry counts merge
    commutatively and [--jobs N] metrics exports stay byte-identical,
    exactly as the inline counters did. When disabled (the default), nothing is
    attached and an unobserved NVRAM pays only the bus's zero-subscriber
    branch per event.

    Counters maintained: [nvheap.fences], [nvheap.log.appends],
    [nvheap.log.append_words], [nvheap.log.truncates],
    [nvheap.txn.commits], [nvheap.txn.aborts]. The [No_log]
    configuration's commits and aborts publish no events (there is no
    transaction machinery to announce), so {!Txn} counts those two
    inline — totals match the event-derived counts of the logging
    configurations. *)

val set_enabled : bool -> unit
(** Globally enables/disables the bridge for NVRAMs created {e after}
    the call (in any domain). The CLI's [--metrics] plumbing turns this
    on. *)

val enabled : unit -> bool

val attach :
  ?metrics:Wsp_obs.Metrics.t ->
  Event.t Wsp_events.Bus.t ->
  Wsp_events.Bus.subscription
(** Attaches the counting subscriber to one bus explicitly, regardless
    of {!enabled}; counters resolve from [metrics] (default: the calling
    domain's ambient registry). *)
