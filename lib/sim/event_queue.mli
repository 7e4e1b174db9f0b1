(** A priority queue of timed events.

    Events at equal timestamps are delivered in insertion order, which
    keeps simulations deterministic. Nothing is ever cancelled: a
    handler whose moment has passed checks its own state when it fires,
    as [System.guard] does. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
(** Number of queued events. *)

val push : 'a t -> at:Time.t -> 'a -> unit

val peek_time : 'a t -> Time.t option
(** Timestamp of the next event, if any. *)

val pop : 'a t -> (Time.t * 'a) option
(** Removes and returns the earliest event. *)
