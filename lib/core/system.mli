(** A whole WSP machine, and the paper's save/restore protocol (Figure 4).

    A system assembles the substrates: a platform's CPUs and caches, all
    main memory on an NVDIMM, an ATX PSU with its residual energy window,
    the NetDuino power monitor, and a device suite. Injecting an input
    power failure races the WSP save routine against the PSU's window:

    + the monitor raises a serial interrupt on the control processor;
    + the control processor IPIs all others;
    + every core saves its context and the caches are flushed (wbinvd);
    + the other cores halt;
    + the control processor sets up the resume block,
    + writes and flushes the valid-image marker,
    + signals the NVDIMM save over I2C, and
    + halts; the NVDIMM save then completes on ultracapacitor power.

    If the rails droop before the NVDIMM save is initiated, the monitor
    triggers an emergency NVDIMM save of whatever reached memory; the
    missing marker then tells the next boot that the image is not a
    complete whole-system image. Restore inverts the sequence: NVDIMM
    restore, marker check, context restore, device restart. *)

open Wsp_sim
open Wsp_machine
open Wsp_nvheap

(** How device state is brought back (§4 "Device restart"). *)
type restart_strategy =
  | Acpi_save
      (** Strawman: suspend all devices on the save path (slow — Figure 9). *)
  | Restore_reinit  (** Re-initialise the device stack on restore. *)
  | Virtualized_replay
      (** Reboot a fresh host OS and replay I/O on virtual devices. *)

val strategy_name : restart_strategy -> string

type outcome =
  | Recovered of { resume_latency : Time.t; ios_failed : int; ios_replayed : int }
      (** In-memory state intact; a failure became suspend/resume. *)
  | Invalid_marker
      (** A flash image exists but the host flush never completed: the
          image is not a consistent whole-system snapshot. *)
  | No_image  (** No complete flash image; memory contents are gone. *)

val outcome_name : outcome -> string

(** {1 Save-protocol crash points}

    The Figure-4 save routine, cut at a chosen step: the checker's way of
    asking "what if the residual window expired exactly here?". Each
    [Before_x] cuts the rails at the instant step [x] would have run;
    [After_nvdimm_signal] cuts just after the host signals the NVDIMM, so
    only the ultracapacitor-powered save remains in flight. *)

type save_step =
  | Before_interrupt
  | Before_contexts
  | Before_flush
  | Before_marker
  | Before_nvdimm_signal
  | After_nvdimm_signal

val save_steps : save_step list
(** All steps, in protocol order. *)

val save_step_name : save_step -> string

type save_report = {
  mutable power_fail_at : Time.t option;
  mutable window : Time.t;  (** The PSU window drawn for this failure. *)
  mutable interrupt_at : Time.t option;
  mutable acpi_done_at : Time.t option;
  mutable contexts_saved_at : Time.t option;
  mutable flush_done_at : Time.t option;
  mutable dirty_bytes_flushed : int;
  mutable marker_written_at : Time.t option;
  mutable nvdimm_initiated_at : Time.t option;
  mutable nvdimm_done_at : Time.t option;
  mutable nvdimm_ok : bool;
  mutable emergency_save : bool;
  mutable host_save_complete : bool;
}

val host_save_latency : save_report -> Time.t option
(** Interrupt to NVDIMM-save initiation — the part that must fit in the
    residual energy window. *)

(** {1 Static save-budget analysis} *)

type save_budget = {
  window : Time.t;
      (** Worst-case residual-energy window: the PSU's nominal window at
          the given load, derated by its run-to-run jitter. *)
  detection : Time.t;  (** Monitor polling + serial interrupt delivery. *)
  host_save : Time.t;
      (** Interrupt to NVDIMM-save initiation: IPI + context save +
          wbinvd at the given dirty footprint + marker + I2C signal. *)
  total : Time.t;  (** [detection + host_save]. *)
  fits : bool;  (** [total <= window]. *)
}

val save_budget :
  ?platform:Platform.t ->
  ?psu:Wsp_power.Psu.spec ->
  ?busy:bool ->
  dirty_bytes:int ->
  unit ->
  save_budget
(** Prices the Figure-4 save path statically — no engine, no machine —
    against the worst-case residual window. Models the
    [Restore_reinit]/[Virtualized_replay] strategies (no ACPI suspend on
    the save side) with the {!Wsp_power.Power_monitor} default
    latencies. Defaults match {!create}: Intel C5528, 1050 W PSU, idle
    load. The static analyzer's FoF reliance check (rule R5) feeds the
    max observed dirty footprint in as [dirty_bytes]. *)

type t

val create :
  ?platform:Platform.t ->
  ?psu:Wsp_power.Psu.spec ->
  ?memory:Units.Size.t ->
  ?strategy:restart_strategy ->
  ?busy:bool ->
  ?seed:int ->
  ?validate_marker:bool ->
  unit ->
  t
(** Defaults: the Intel C5528 testbed with its 1050 W PSU, 16 MiB of
    NVDIMM memory, [Restore_reinit], idle load.

    [validate_marker:false] disables the boot-time valid-image check —
    an ablation knob (the [ablation] experiment) demonstrating why the
    marker exists: a torn save then restores silently corrupted state. *)

val engine : t -> Engine.t
val platform : t -> Platform.t
val psu : t -> Wsp_power.Psu.t
val nvram : t -> Nvram.t
val nvdimm : t -> Wsp_nvdimm.Nvdimm.t
val cpu : t -> Cpu.t
val devices : t -> Device.t list
val report : t -> save_report
val powered : t -> bool
val strategy : t -> restart_strategy

val set_busy : t -> bool -> unit
(** Applies/removes the stress load: PSU draw and device queue depths. *)

val app_base : t -> int

val heap : ?config:Config.t -> ?log_size:Units.Size.t -> t -> Pheap.t
(** Formats an application heap in the machine's NVRAM. *)

val attach_heap : ?config:Config.t -> t -> Pheap.t
(** Re-adopts the heap after a restore, running software recovery. The
    heap must have been formatted with {!heap}'s default 4 MiB log. *)

val inject_power_failure : t -> unit
(** Fails input power now and runs the engine until the machine is off
    and any NVDIMM save has finished. Inspect {!report} afterwards. *)

val inject_power_failure_at : t -> save_step -> unit
(** Like {!inject_power_failure}, but the rails die at the given protocol
    step instead of when the PSU window expires — deterministic
    worst-case crash-point injection for the checker. The emergency
    NVDIMM save still fires for steps before the host signalled it. *)

val power_on_and_restore : t -> outcome
(** Boots after a failure: NVDIMM restore, marker check, context
    restore, device restart. Runs the engine to completion. *)

val run_failure_cycle : t -> outcome
(** {!inject_power_failure} followed by {!power_on_and_restore}. *)
