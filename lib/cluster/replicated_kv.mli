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
    the log retention). *)

open Wsp_sim

type update = {
  seq : int;
  key : int64;
  value : int64 option;  (** [None] is a delete. *)
}

module Node : sig
  type t

  val id : t -> int
  val alive : t -> bool
  val last_seq : t -> int
  val get : t -> int64 -> int64 option
  val key_count : t -> int

  val state_bytes : t -> int
  (** Approximate serialised size of the full store. *)

  val updates_since : t -> int -> update list option
  (** Updates with sequence beyond the given one, oldest first; [None]
      when the log no longer retains that far back. *)
end

type t

val create : ?replicas:int -> ?log_retention:int -> ?value_bytes:int -> unit -> t
(** Defaults: 3 replicas, 100,000 retained log entries, 64-byte values. *)

val nodes : t -> Node.t list
val live_nodes : t -> Node.t list
val seq : t -> int

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

(** {2 Restore on a different node}

    Image-shipping failover: when a failed machine is not coming back,
    a spare adopts the dead node's (stale but intact) NVRAM image and
    catches up from a live peer's log — the whole-image analogue of
    {!recover_node}. *)

val add_spare : t -> int
(** Registers a cold spare (empty, not serving) and returns its id. *)

type failover = {
  spare : int;
  mode : [ `Image_catch_up | `Image_plus_full ];
      (** [`Image_catch_up]: the adopted image plus the peer-log delta
          sufficed. [`Image_plus_full]: the outage outlived the log
          retention, so the spare re-cloned a live peer wholesale. *)
  image_bytes : int;  (** The dead node's shipped image. *)
  transferred_bytes : int;  (** Image plus catch-up (or full) traffic. *)
  duration : Time.t;
  missed_updates : int;  (** Sequence gap the image was behind. *)
}

val failover_node : t -> failed:int -> spare:int -> failover
(** Ships the failed node's image to [spare], catches it up, brings it
    live, and retires the failed node from the roster permanently.
    Raises [Invalid_argument] if the failed node is live or the spare
    already serves. After return the spare is exactly consistent with
    the primary. *)

val consistent : t -> bool
(** All live replicas hold identical state. *)
