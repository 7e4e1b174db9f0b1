(** The platform catalog.

    Each value describes one of the machines measured in the paper, with
    its processor topology, cache hierarchy, memory system, power draw and
    the calibration constants for the flush-instruction cost model
    (documented in DESIGN.md §4). *)

open Wsp_sim

type t = {
  name : string;
  short_name : string;  (** CLI-friendly identifier, e.g. ["c5528"]. *)
  sockets : int;
  cores_per_socket : int;
  threads_per_core : int;
  frequency_ghz : float;
  l1d_per_core : Units.Size.t;
  l2_per_core : Units.Size.t;
  l3_per_socket : Units.Size.t option;  (** [None] for LLC = L2 (Atom). *)
  line_size : int;
  memory : Units.Size.t;
  memory_latency : Time.t;
  memory_bandwidth : Units.Bandwidth.t;
  nt_store_latency : Time.t;
  fence_latency : Time.t;
  clflush_issue : Time.t;
  wbinvd_line_walk : Time.t;
  ipi_latency : Time.t;  (** Inter-processor interrupt delivery. *)
  context_save_latency : Time.t;  (** Per-core register save to memory. *)
  serial_irq_latency : Time.t;
      (** Power-monitor serial line to first interrupt. *)
  power_busy : Units.Power.t;  (** DC draw with all stress tests running. *)
  power_idle : Units.Power.t;
}

val llc_total : t -> Units.Size.t
(** Total last-level cache across sockets — the largest amount of distinct
    data the hierarchy can hold (caches are modelled inclusive). *)

val cache_total : t -> Units.Size.t
(** All cache bytes across all levels and sockets (tag-walk footprint). *)

val cycles : t -> float -> Time.t
(** [cycles p n] is the duration of [n] core clock cycles. *)

val core_hierarchy : t -> Hierarchy.config
(** The hierarchy seen by one hardware thread (its L1/L2 plus one socket's
    LLC) — what single-threaded workload runs execute against. *)

val aggregate_hierarchy : t -> Hierarchy.config
(** Every cache on the machine folded into one hierarchy — what
    machine-wide flush timing (Figure 8, Table 2) walks. *)

(* Measured platforms; [all] adds the Westmere X5650 (Figure 8 only). *)

val intel_c5528 : t
(** The paper's high-end testbed: 2-socket Nehalem, 2 × 8 MB L3. *)

val amd_4180 : t
(** The paper's low-end testbed: 6-core Opteron, 6 MB L3. *)

val intel_d510 : t
(** Atom, 1 MB L2 as LLC (Figure 8 only). *)

val all : t list
val testbeds : t list
(** The two platforms used for the residual-energy experiments. *)

val by_name : string -> t option
(** Looks up by [short_name] or [name], case-insensitively. *)
