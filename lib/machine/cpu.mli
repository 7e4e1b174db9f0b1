(** Simulated processors.

    A {!Core.t} is a hardware thread with an architectural register
    context and an execution state. The WSP save path serialises contexts
    into NVRAM bytes (so that restore genuinely reads them back from the
    persistent image) and halts the cores; restore deserialises and
    resumes them. *)

open Wsp_sim

module Context : sig
  type t = {
    regs : int64 array;  (** 16 general-purpose registers. *)
    rip : int64;
    rsp : int64;
    rflags : int64;
  }

  val size_bytes : int
  (** Serialised footprint of one context. *)

  val fresh : unit -> t
  (** The power-on context (all zero). *)

  val random : Rng.t -> t
  (** An arbitrary context, for tests and workloads. *)

  val equal : t -> t -> bool
  val write : t -> Bytes.t -> off:int -> unit
  val read : Bytes.t -> off:int -> t
  val pp : Format.formatter -> t -> unit
end

module Core : sig
  type state = Running | Halted

  type t

  val create : id:int -> socket:int -> t
  val id : t -> int
  val socket : t -> int
  val state : t -> state
  val context : t -> Context.t
  val halt : t -> unit
  val resume : t -> unit

  val scramble : t -> Rng.t -> unit
  (** Randomises the register context, standing in for ongoing execution. *)
end

type t
(** A processor complex: all hardware threads of a platform. *)

val create : sockets:int -> cores_per_socket:int -> threads_per_core:int -> t

val cores : t -> Core.t array
(** All hardware threads; index 0 is the boot (control) processor. *)

val core_count : t -> int
val control : t -> Core.t
val all_halted : t -> bool
val running_count : t -> int
val halt_all : t -> unit
val resume_all : t -> unit

val context_area_bytes : t -> int
(** Bytes needed to serialise every context. *)

val save_contexts : t -> Bytes.t -> off:int -> unit
val restore_contexts : t -> Bytes.t -> off:int -> unit
