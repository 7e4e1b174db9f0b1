(** Device models for the device-restart problem (§4, Figure 9).

    After a WSP restore the in-memory state of drivers is inconsistent
    with devices that were power-cycled, and I/Os that were in flight at
    the failure must be cancelled, failed or retried. Each device here
    carries the two latencies that matter: its D3 (sleep) transition time
    — dominated by driver timeouts and by draining outstanding I/O — and
    its restore-path re-initialisation time. *)

open Wsp_sim

type kind = Gpu | Disk | Nic | Usb | Audio | Chipset

type spec = {
  name : string;
  kind : kind;
  d3_latency : Time.t;  (** Driver suspend cost with an empty queue. *)
  io_drain : Time.t;  (** Additional drain time per outstanding I/O. *)
  reinit_latency : Time.t;  (** Restore-path device stack re-init. *)
  busy_outstanding : int;  (** Queue depth under the stress workload. *)
}

type state = Powered | Suspended | Dead

type t

val create : spec -> t
val spec : t -> spec
val state : t -> state
val outstanding : t -> int

val set_busy : t -> bool -> unit
(** Busy devices carry [busy_outstanding] in-flight I/Os; idle ones
    none. *)

val submit_io : t -> unit
val complete_io : t -> unit

val suspend_duration : t -> Time.t
(** D3 transition time at the current queue depth. *)

val suspend : t -> unit
(** Drains the queue and enters D3. *)

val power_cycle : t -> unit
(** The rails died: in-flight I/Os are lost and the device needs
    re-initialisation. *)

val ios_lost : t -> int
(** I/Os dropped by power cycles so far. *)

val reinit : t -> replay:bool -> unit
(** Brings a [Dead] (or [Suspended]) device back to [Powered]. With
    [replay] the lost I/Os are re-issued (the hypervisor strategy);
    without it they are failed back to the application. *)

val ios_replayed : t -> int
val ios_failed : t -> int

(** Per-platform suites calibrated to Figure 9. *)

val suite_for : Wsp_machine.Platform.t -> t list
