(** Batch statistics for experiment reporting. *)

val percentile : float list -> float -> float
(** [percentile xs p] is the [p]-th percentile (0–100) by linear
    interpolation of the sorted sample. Raises [Invalid_argument] when
    the list is empty, when [p] is NaN or outside [0, 100], or when a
    sample is NaN. *)
