(** Batch statistics for experiment reporting. *)

val percentile : float array -> float -> float
(** [percentile sorted p] is the [p]-th percentile (0–100) by linear
    interpolation of [sorted], a sample in ascending
    [Float.compare] order: sort once, then ask for every [p]. Raises
    [Invalid_argument] when the sample is empty, when [p] is NaN or
    outside [0, 100], or when a sample is NaN (which [Float.compare]
    sorts first). *)
