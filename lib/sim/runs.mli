(** Sorting for samples that arrive as one run per producer, such as
    the latency samples of each shard of a service: sort each run once,
    then merge the sorted runs into the whole set. *)

val sort : int array -> unit
(** Sorts in place into ascending order: a stable merge sort with an
    inlined integer compare. *)

val merge : int array list -> int array
(** The runs, each in ascending order, merged into one ascending array.
    The result may be one of the runs itself. *)

val merge_by : ('a -> 'a -> int) -> 'a array list -> 'a array
(** {!merge} for runs in ascending [cmp] order; among equal elements,
    an earlier run's come first. *)

val sort_by_key : ('a -> int) -> 'a array -> 'a array
(** A copy in ascending order of [key], equal keys in their original
    order, sorted by {!sort}. Raises [Invalid_argument] unless every key
    is in [\[0, max_int / length)]. *)
