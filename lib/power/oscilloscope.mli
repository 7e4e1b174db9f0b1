(** The measurement instrument used in §5.2.

    Samples PSU signals at 100 kHz with additive measurement noise, and
    applies the paper's detection rule: an output-voltage drop is any
    250 µs interval in which a rail reads below 95 % of nominal; the
    residual energy window is the time from the [PWR_OK] drop to the first
    such interval. *)

open Wsp_sim

type t

val create : rng:Rng.t -> Psu.t -> t
(** Samples at 100 kHz with gaussian noise of 0.3 % of each rail's
    nominal voltage. *)

val capture :
  t -> from:Time.t -> until:Time.t -> rails:Psu.rail list -> Trace.t list
(** Records one trace per rail plus a trace named ["PWR_OK"] (5 V logic).
    Sampling is instantaneous w.r.t. simulated time. *)

val measure_window : t -> fail_at:Time.t -> until:Time.t -> Time.t option
(** Runs a capture around an already-injected input failure and applies
    the detection rule; [None] if no drop was observed before [until]. *)
