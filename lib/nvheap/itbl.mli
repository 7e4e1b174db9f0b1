(** Int-keyed hash tables that call neither the polymorphic hash nor the
    polymorphic compare.

    {!hash} is exactly the value [Hashtbl.hash] gives an [int], computed
    monomorphically, so a table built by the same sequence of operations
    iterates in the same order as a polymorphic [(int, _) Hashtbl.t] —
    which matters where iteration order is observable, as a commit's
    flush order is simulated output. *)

val hash : int -> int
(** [hash x = Hashtbl.hash x] for every [int]. *)

include Hashtbl.S with type key = int
