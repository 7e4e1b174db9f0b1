(** Time-series recording of simulated signals.

    A trace is an append-only sequence of (time, value) samples, recorded
    by instruments such as the simulated oscilloscope and rendered by the
    experiment harness. Samples must be appended in non-decreasing time
    order. *)

type t

val create : name:string -> t
val name : t -> string
val record : t -> Time.t -> float -> unit
val length : t -> int

val samples : t -> (Time.t * float) array
(** All samples, oldest first. *)

val value_at : t -> Time.t -> float option
(** Most recent sample at or before the given time (sample-and-hold). *)

val first_crossing_below : t -> threshold:float -> hold:Time.t -> Time.t option
(** [first_crossing_below t ~threshold ~hold] is the earliest sample time
    from which the signal stays below [threshold] for at least [hold]
    (used for the paper's "250 µs below 95 % of nominal" voltage-drop
    rule). *)
