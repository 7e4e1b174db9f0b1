(** §6 "Distributed applications" — catch-up vs. re-replication.

    A replicated KV service loses one node for a while; when it returns
    with NVRAM-intact (stale) state, recovery ships only the missed
    updates from a peer's retained log — until the outage outlives the
    log retention, where it degrades to the pre-WSP behaviour: a full
    state transfer. *)

open Wsp_cluster

type row = {
  missed_updates : int;
  recovery : Replicated_kv.recovery;
  full_transfer_bytes : int;  (** What re-replication would have moved. *)
  savings : float;  (** full / actual transferred bytes. *)
}

val data : ?keys:int -> ?log_retention:int -> unit -> row list
val run : full:bool -> unit
