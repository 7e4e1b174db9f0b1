(** The recovery-storm model motivating the paper (§1–2, §6).

    A correlated power outage fells a fleet of main-memory servers; each
    must refresh its state before serving again. Without NVRAM the whole
    dataset is re-read from a shared back end (checkpoint read plus log
    replay), which is I/O bound and scales with fleet size. With WSP a
    server restores locally from its NVDIMMs and only fetches the
    updates it missed during the outage. *)

open Wsp_sim

type params = {
  servers : int;
  state_per_server : Units.Size.t;
  backend_bandwidth : Units.Bandwidth.t;
      (** Aggregate read bandwidth of the storage back end. *)
  update_rate_per_server : Units.Bandwidth.t;
      (** Rate at which each server's state is freshly updated. *)
  outage : Time.t;  (** How long the servers were down. *)
  nvdimm_restore : Time.t;  (** Local flash-to-DRAM restore time. *)
  replay_factor : float;
      (** Log replay costs this much more than streaming the bytes
          (CPU-bound reconstruction); 1.0 = free replay. *)
}

val default : params
(** A 32-server rack: 256 GB per server, a 0.5 GB/s back end, 30 s
    outage. *)

val single_server : params
(** The §2 arithmetic: one server, 256 GB at 0.5 GB/s — over 8 minutes
    even with the whole back end to itself. *)

type result = {
  params : params;
  full_recovery : Time.t;
      (** All servers re-read everything from the back end. *)
  wsp_recovery : Time.t;
      (** Local NVDIMM restore plus missed-update catch-up. *)
  speedup : float;
  backend_bytes_full : float;
  backend_bytes_wsp : float;
}

val run : params -> result
(** Raises [Invalid_argument] on a non-positive server count or a
    negative state size or outage. *)

val recovery_timeline :
  params -> fraction:float -> [ `Full | `Wsp ] -> Time.t
(** Time until the given fraction of servers is back in service
    (servers recover in sequence as back-end bandwidth frees up). *)

val pp_result : Format.formatter -> result -> unit

(** {1 Fleet-scale storms}

    The rack model above answers "how long does recovery take"; at
    datacenter scale the question becomes "what does the {e tail} look
    like". A thousand-node storm is simulated event-driven: PSU
    failures are staggered over a configurable window (breaker trips
    ripple, they are never perfectly simultaneous), every node restores
    its NVDIMM image locally in parallel, and the missed-update
    catch-up contends for a bounded number of back-end slots. The
    output is the per-node restore-latency distribution (p50/p99/max)
    and aggregate fleet availability over an observation horizon. *)

type fleet_params = {
  node : params;
      (** Per-node state/rates; the [servers] field is ignored. *)
  nodes : int;
  stagger : Time.t;
      (** PSU failure times are uniform in [\[0, stagger)]; zero means
          a perfectly correlated outage. *)
  restore_concurrency : int;
      (** Back-end catch-up streams served simultaneously, each at the
          full [backend_bandwidth] per-stream rate — the provisioning
          knob: fewer slots congest the restore queue, more add real
          capacity. *)
  horizon : Time.t;  (** Availability observation window. *)
  failures : int;
      (** How many nodes fail. [0] (or [nodes]) is the classic
          whole-fleet PSU wave; [k < nodes] draws k random nodes to
          fail while the rest of the fleet keeps serving — the
          single-node-failure regime WSP makes cheap. *)
  spares : int;
      (** Failed machines that never come back: the first this-many
          failures (in failure order) restore on spare nodes, which
          must pull the dead node's whole NVRAM image through a
          back-end slot — the image-shipping failover path — instead
          of restoring from local NVDIMMs. *)
  seed : int;  (** Stagger schedule seed — runs are reproducible. *)
}

val default_fleet : fleet_params
(** 1000 nodes, 5 s stagger, 32 restore slots, a 10-minute horizon,
    whole-fleet failure. *)

type fleet_result = {
  fleet : fleet_params;
  latencies : Time.t array;
      (** Failure-to-back-in-service latency per node, in node order;
          {!Wsp_sim.Time.zero} for nodes that never failed. *)
  p50 : Time.t;  (** Percentiles are over the failed nodes only. *)
  p99 : Time.t;
  worst : Time.t;
  mean : Time.t;
  availability : float;
      (** [1 - Σ downtime / (nodes × horizon)], downtime clipped to the
          horizon. The denominator counts the whole fleet, so partial
          storms score higher — the point of the comparison. *)
  failed_in_window : int;
      (** Nodes whose failure landed inside the horizon. Equal to the
          drawn failure count, since [stagger > horizon] is rejected
          rather than allowed to hide failures past the window. *)
  spare_failovers : int;
      (** Failures that restored on a spare via a full shipped image. *)
  last_online : Time.t;
      (** When the final node is back in service, measured from the
          start of the outage. *)
}

val storm : fleet_params -> fleet_result
(** Deterministic for a given [seed]. Raises [Invalid_argument] on a
    non-positive node count, concurrency or horizon, a negative
    per-node state size or outage, a [failures]
    count outside [\[0, nodes\]], or a stagger window that is negative
    or wider than the horizon (failures landing after the horizon
    would silently skew availability toward 1.0). *)

val pp_fleet_result : Format.formatter -> fleet_result -> unit
