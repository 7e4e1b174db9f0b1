(** An AgigaRAM-style battery-free NVDIMM.

    DRAM, NAND flash and an ultracapacitor bank integrated on one module.
    During normal operation the host sees plain DRAM. When the host (or
    the power monitor, over I2C) signals a save, the module copies its
    DRAM contents to flash powered entirely by its own ultracapacitors —
    host power may disappear the moment the save has been initiated. On
    the next boot a restore copies the flash image back.

    The module refuses to save or restore unless the DRAM has first been
    put into self-refresh, mirroring the firmware requirement described in
    §4 of the paper. *)

open Wsp_sim

type state =
  | Active  (** Normal operation; host reads and writes DRAM. *)
  | Self_refresh  (** Quiesced, ready for save/restore. *)
  | Saving
  | Saved
  | Restoring
  | Lost  (** Host power vanished with no save initiated: contents gone. *)

val state_name : state -> string

type t

val create :
  engine:Engine.t ->
  ?ultracap:Wsp_power.Ultracap.t ->
  size:Units.Size.t ->
  unit ->
  t
(** Follows the AgigaRAM datasheet shape: 4.5 W of save power per GiB
    of DRAM, flash bandwidth scaled so a full save takes ≈8.5 s
    regardless of module size (parallel flash channels per GiB) and, by
    default, 5 F of ultracapacitance per GiB. *)

val size : t -> Units.Size.t
val state : t -> state
val ultracap : t -> Wsp_power.Ultracap.t

val dram : t -> Bytes.t
(** The host-visible memory. Reading it in states other than [Active]
    reflects whatever the module holds (garbage after [Lost]). *)

val save_duration : t -> Time.t
(** Full DRAM-to-flash copy time. *)

val save_duration_for : size:Units.Size.t -> Time.t
(** {!save_duration} for a module of the given size, without building
    one (capacity-planning paths use this to avoid allocating the
    DRAM). *)

val save_power : t -> Units.Power.t

val enter_self_refresh : t -> unit
val exit_self_refresh : t -> unit

val initiate_save : t -> on_complete:(Engine.t -> [ `Saved | `Save_failed ] -> unit) -> unit
(** Starts the ultracap-powered save; requires [Self_refresh]. If the
    ultracapacitors exhaust mid-save the flash holds a torn (incomplete)
    image and the outcome is [`Save_failed]. *)

val host_power_lost : t -> unit
(** Host rails died. Harmless during [Saving]/[Saved] (the module is
    self-powered); in [Active] or [Self_refresh] the DRAM contents are
    destroyed. *)

val initiate_restore : t -> on_complete:(Engine.t -> [ `Restored | `No_image ] -> unit) -> unit
(** Boot-path restore; requires [Self_refresh]. [`No_image] when the
    flash image is torn or absent. *)

val image_complete : t -> bool

val recharge : t -> unit
(** Tops the ultracapacitors back up (counts a wear cycle). *)

val save_trace :
  t -> sample_period:Time.t -> horizon:Time.t -> Trace.t * Trace.t
(** [(voltage, power)] traces of the ultracapacitor bank from save start
    over [horizon], assuming the save starts at time 0 (Figure 2). After
    the save completes the module keeps drawing a small maintenance load
    until the bank is drained. Does not mutate the module. *)
