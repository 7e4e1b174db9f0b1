(** Storage-class-memory projections (§6, "SCM-based NVRAMs").

    The paper predicts that byte-addressable SCMs such as phase-change
    memory — reads ≈2× slower than DRAM, writes 10–100× slower — will
    make flush-on-commit {e more} expensive and therefore flush-on-fail
    {e more} attractive, while WSP's save cost stays a function of cache
    size, not memory size. A profile rewrites a DRAM hierarchy
    configuration into its SCM equivalent so that prediction can be
    measured (the [scm] experiment). *)

open Wsp_sim

type profile = {
  name : string;
  read_latency_factor : float;
  write_bandwidth_factor : float;  (** < 1: writes are slower. *)
  nt_store_factor : float;
      (** Non-temporal stores land in the slow write path. *)
  fence_factor : float;  (** Draining write buffers waits on slow writes. *)
  write_energy_factor : float;
      (** Per-byte write energy relative to DRAM (for provisioning). *)
}

val dram : profile
(** The identity profile. *)

val pcm_optimistic : profile
(** Phase-change memory, optimistic corner: reads 2×, writes 10×. *)

val profiles : profile list
val by_name : string -> profile option

val apply : profile -> Hierarchy.config -> Hierarchy.config
(** Rewrites the memory-side parameters; cache levels are unchanged
    (caches stay SRAM). *)

val flush_energy :
  profile -> platform:Platform.t -> dirty_bytes:int -> Units.Energy.t
(** Energy to write the dirty bytes back at failure time, for supercap
    provisioning: DRAM write energy ≈ 60 pJ/byte scaled by the
    profile. *)
