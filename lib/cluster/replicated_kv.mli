(** A replicated key-value service and the §6 distributed-recovery
    tradeoff.

    Scale-out stores already tolerate server failures by re-replicating
    state from live replicas — at full-state-transfer cost. The paper's
    observation: with WSP, a briefly-failed server comes back with state
    that is {e stale but mostly relevant}, so if replicas keep a
    versioned update log the returning node only needs the updates it
    missed. This module implements that design: a primary applying
    sequenced updates to a replica set, per-node retained update logs,
    and the two recovery paths (log catch-up vs. full transfer —
    automatically falling back to the latter when the outage outlived
    the log retention).

    A machine that never comes back restores on a spare instead; that
    path is priced fleet-wide by {!Recovery_storm} ([spares]), not
    simulated here. *)

open Wsp_sim

module Node : sig
  type t

  val id : t -> int
  val get : t -> int64 -> int64 option

  val state_bytes : t -> int
  (** Approximate serialised size of the full store. *)
end

type t

val create : ?replicas:int -> ?log_retention:int -> ?value_bytes:int -> unit -> t
(** Defaults: 3 replicas, 100,000 retained log entries, 64-byte values. *)

val nodes : t -> Node.t list
val live_nodes : t -> Node.t list

val put : t -> key:int64 -> value:int64 -> unit
(** Applies to every live replica. Raises [Failure] if none is alive. *)

val delete : t -> int64 -> unit

val fail_node : t -> int -> unit
(** The node stops applying updates; with NVRAM its state freezes
    (stale), without it would be gone entirely. *)

type recovery = {
  mode : [ `Log_catch_up | `Full_transfer ];
  transferred_bytes : int;
  duration : Time.t;
  missed_updates : int;
}

val recover_node : t -> int -> recovery
(** Brings a failed node back: catch-up from a live peer's log when the
    retention window still covers the outage, otherwise a full state
    transfer, either over a 1 GiB/s network. After return the node is
    live and exactly consistent with the primary. *)

val consistent : t -> bool
(** All live replicas hold identical state. *)
