(** Streaming and batch statistics for experiment reporting. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

type t
(** A streaming accumulator (Welford's algorithm for variance). *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val stddev : t -> float

val min : t -> float
(** Raises [Invalid_argument] when empty. *)

val max : t -> float
(** Raises [Invalid_argument] when empty. *)

val summary : t -> summary

val of_list : float list -> summary
(** Batch summary of a non-empty list. *)

val percentile : float list -> float -> float
(** [percentile xs p] is the [p]-th percentile (0–100) by linear
    interpolation of the sorted sample. Raises [Invalid_argument] when
    the list is empty, when [p] is NaN or outside [0, 100], or when a
    sample is NaN. *)

module Histogram : sig
  type h

  val create : lo:float -> hi:float -> buckets:int -> h
  val add : h -> float -> unit

  val counts : h -> int array
  (** Per-bucket counts; out-of-range samples land in the edge buckets. *)

  val total : h -> int
end
