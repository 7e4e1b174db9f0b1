(** The NetDuino-style power monitor.

    A microcontroller that watches the PSU's [PWR_OK] line and, when it
    drops, raises an interrupt on the host control processor over a serial
    line and forwards save/restore commands to the NVDIMMs over I2C. Its
    two latencies — detection polling and serial-line delivery — sit on
    the critical path of the WSP save routine. *)

open Wsp_sim

type t

val create : engine:Engine.t -> psu:Psu.t -> unit -> t

val detect_latency : Time.t
(** From the [PWR_OK] drop to the monitor noticing it: 10 µs. *)

val serial_latency : Time.t
(** From detection to the host's serial-line interrupt: 90 µs. *)

val i2c_latency : Time.t
(** Per command forwarded to the NVDIMM bus: 120 µs. These three are
    exported so static budget analysis (the lint's FoF reliance check)
    can reproduce the save path's detection and signalling costs
    without building a machine. *)

val on_power_fail : t -> (Engine.t -> unit) -> unit
(** Registers the host's serial-line interrupt handler; it fires
    [detect_latency + serial_latency] after [PWR_OK] drops. *)

val send_i2c : t -> (Engine.t -> unit) -> unit
(** Forwards one command to the NVDIMM bus, completing after the I2C
    latency. *)

val triggered : t -> bool
(** Whether the monitor has seen a power failure. *)
