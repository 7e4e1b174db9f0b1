(** Physical quantities used throughout the simulator.

    All electrical quantities are floats in SI units. The modules exist to
    make call sites self-documenting ([Units.Power.watts 400.]) and to
    centralise the handful of derived-quantity computations (capacitor
    energy, discharge under constant power) used by the power substrate. *)

module Power : sig
  type t = float
  (** Watts. *)

  val watts : float -> t
  val to_watts : t -> float
  val pp : Format.formatter -> t -> unit
end

module Energy : sig
  type t = float
  (** Joules. *)

  val joules : float -> t
  val to_joules : t -> float

  val of_power_time : Power.t -> Time.t -> t
  (** Energy delivered by a constant power draw over a span. *)

  val duration_at : t -> Power.t -> Time.t
  (** [duration_at e p] is how long energy [e] lasts at constant draw [p]. *)

  val pp : Format.formatter -> t -> unit
end

module Voltage : sig
  type t = float
  (** Volts. *)

  val volts : float -> t
  val pp : Format.formatter -> t -> unit
end

module Capacitance : sig
  type t = float
  (** Farads. *)

  val farads : float -> t

  val stored_energy : t -> Voltage.t -> Energy.t
  (** [stored_energy c v] is ½·c·v². *)

  val voltage_after_discharge : t -> v0:Voltage.t -> drawn:Energy.t -> Voltage.t
  (** Voltage remaining after removing [drawn] joules from a capacitor
      charged to [v0]; 0 V once the stored energy is exhausted. *)

  val pp : Format.formatter -> t -> unit
end

module Size : sig
  type t = int
  (** Bytes. Sizes in this simulator always fit comfortably in an [int]. *)

  val bytes : int -> t
  val kib : int -> t
  val mib : int -> t
  val gib : int -> t
  val to_bytes : t -> int
  val to_mib : t -> float
  val to_gib : t -> float
  val pp : Format.formatter -> t -> unit
end

module Bandwidth : sig
  type t = float
  (** Bytes per second. *)

  val mib_per_s : float -> t
  val gib_per_s : float -> t
  val to_bytes_per_s : t -> float

  val transfer_time : t -> Size.t -> Time.t
  (** Time to move [size] bytes at this bandwidth. *)

  val pp : Format.formatter -> t -> unit
end
