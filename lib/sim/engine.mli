(** The discrete-event simulation engine.

    An engine owns a clock and an event queue. Handlers run at their
    scheduled timestamp with the clock already advanced; a handler may
    schedule further events at or after the current time. Scheduled
    events are never cancelled: a handler whose moment has passed checks
    its own state when it fires, as [System.guard] does. The engine is
    single-threaded and deterministic: equal timestamps fire in
    scheduling order. *)

type t

val create : unit -> t
(** An engine with its clock at [Time.zero]. *)

val now : t -> Time.t
(** Current simulated time. *)

val schedule : t -> after:Time.t -> (t -> unit) -> unit
(** [schedule t ~after f] runs [f] at [now t + after]. [after] must be
    non-negative. *)

val pending : t -> int
(** Number of events still scheduled. *)

val run : t -> unit
(** Runs until the queue is empty. *)

val run_until : t -> Time.t -> unit
(** Runs every event scheduled strictly before or at the given time, then
    advances the clock to exactly that time. *)
