(** A B-tree in a persistent heap.

    The kind of "on-disk" structure §7 discusses (CDDS B-Trees build a
    crash-consistent one by hand); under WSP an ordinary volatile-style
    B-tree needs no versioning or flushing at all. Minimum degree 4:
    nodes hold 3–7 keys and fit in three cache lines, the layout a
    main-memory database would pick.

    Standard CLRS algorithms: preemptive splits on the way down for
    insertion; borrow/merge rebalancing for deletion. *)

open Wsp_nvheap

type t

val create : Pheap.t -> t
(** Allocates an empty root leaf and publishes it as the heap root. *)

val attach : Pheap.t -> t
(** Re-adopts the tree published as the heap root (post-recovery). *)

val heap : t -> Pheap.t

val insert : t -> key:int64 -> value:int64 -> unit
(** Inserts or overwrites. *)

val find : t -> int64 -> int64 option

val delete : t -> int64 -> bool
(** [true] if the key was present. *)

val size : t -> int
val height : t -> int
val to_list : t -> (int64 * int64) list

val check : t -> (unit, string) result
(** Verifies key ordering, per-node occupancy bounds and uniform leaf
    depth. *)
