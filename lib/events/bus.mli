(** A typed, multi-subscriber event bus.

    The publish side is built for instrumentation points on simulation
    hot paths: with no subscriber attached, {!publish} is one load and
    one branch — no closure call, no option probe per emitter. The
    event itself is built by the caller before [publish] runs, so hot
    emitters guard its construction with {!active}: an unobserved
    emitter then allocates nothing. Subscribers are held in a flat
    array rebuilt on (un)subscribe, so dispatch is a tight loop over
    immutable state and the subscribe path may be as slow as it likes.

    Subscriptions are {e scoped}: {!subscribe} returns a handle and
    {!unsubscribe} removes exactly that handle, leaving every other
    subscriber attached — unlike the single-slot [set_hook] style it
    replaces, where a second observer silently clobbered the first.
    Subscribers run in subscription order.

    Exceptions raised by a subscriber propagate to the publisher and
    skip the remaining subscribers. This is load-bearing: the
    crash-consistency checker's injected observer raises to model a
    power failure {e before} the announced primitive takes effect, and
    the bus must not swallow or reorder that. *)

type 'a t
(** A bus carrying events of type ['a]. *)

type subscription
(** A handle for one attached subscriber; detach it with
    {!unsubscribe}. *)

val create : unit -> 'a t

val publish : 'a t -> 'a -> unit
(** Delivers the event to every subscriber in subscription order.
    A no-op (single branch) when nobody is subscribed. A subscriber
    exception propagates; later subscribers are skipped. *)

val active : 'a t -> bool
(** Whether anyone is subscribed: the guard an emitter puts around
    building an event, so an unobserved emitter allocates nothing. *)

val subscribe : 'a t -> ('a -> unit) -> subscription
(** Attaches a subscriber after all current ones. Composes: existing
    subscriptions are untouched. *)

val unsubscribe : subscription -> unit
(** Detaches exactly this subscription; other subscribers keep
    receiving events. Idempotent. *)

val subscriber_count : 'a t -> int

val with_subscriber : 'a t -> ('a -> unit) -> (unit -> 'b) -> 'b
(** [with_subscriber bus f body] runs [body] with [f] subscribed,
    unsubscribing on return or exception. *)
