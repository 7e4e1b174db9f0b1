(** Back-end checkpoints: the last-resort recovery tier (§3.1, §3.2).

    WSP makes NVRAM the {e first} resort after a crash; a storage back
    end remains necessary for failures NVRAM cannot cover (torn saves,
    hardware loss, software corruption). Applications therefore
    periodically checkpoint their state to the back end and fall back to
    the most recent checkpoint when the local image is unusable — paying
    the full transfer cost and losing updates made since the checkpoint.

    The back end here is a simple bounded-bandwidth object store holding
    named snapshots of a heap region. *)

open Wsp_sim
open Wsp_nvheap

type backend

val create_backend : ?bandwidth:Units.Bandwidth.t -> unit -> backend
(** Default bandwidth: 0.5 GiB/s, the paper's high-end storage array. *)

val stored_names : backend -> string list

val checkpoint : backend -> name:string -> Pheap.t -> Time.t
(** Snapshots the heap's current logical contents (root slot, log and
    heap region) to the back end under [name], overwriting any previous
    snapshot with that name. Returns the transfer time; the heap's clock
    is charged the same amount. *)

val restore : backend -> name:string -> Pheap.t -> Time.t
(** Overwrites the heap region with the named snapshot and flushes it to
    NVRAM. Raises [Not_found] for an unknown name. *)

val latest : backend -> string option
(** Name of the most recently written snapshot. *)
