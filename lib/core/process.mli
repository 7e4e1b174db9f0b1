(** Process persistence (§6): restoring only application state onto a
    freshly booted OS.

    The alternative to restoring the whole system is to save application
    processes (heap, stacks, thread contexts) in NVRAM and revive them on
    a new kernel instance, as Otherworld does for Linux. The application
    sees the same abstraction as WSP — threads and stacks come back — but
    the recovery path differs: the fresh OS has a clean device stack (no
    device-restart hazard), while the process's dependencies on kernel
    objects must be reconstructed.

    Whether that reconstruction is possible depends on encapsulation:
    a Drawbridge-style {e library OS} keeps most OS state inside the
    process image, leaving a narrow re-startable kernel interface; a
    process with {e direct} kernel dependencies (the ordinary Windows
    case the paper calls "complex") cannot be safely revived. *)

open Wsp_sim
open Wsp_nvheap

type handle_kind = File | Socket | Timer | Shared_memory | Device_handle

type encapsulation =
  | Direct_kernel  (** Handles point into the dead kernel's structures. *)
  | Library_os  (** Drawbridge: OS personality inside the process image. *)

type thread_state =
  | Running_user
  | Blocked_in_syscall of handle_kind

type t

val create :
  ?encapsulation:encapsulation ->
  heap:Pheap.t ->
  threads:int ->
  rng:Rng.t ->
  unit ->
  t
(** A process with scrambled (realistic) thread contexts over the given
    persistent heap. Default encapsulation: [Library_os]. *)

val encapsulation : t -> encapsulation
val handle_count : t -> int

val open_handle : t -> handle_kind -> int
(** Opens a kernel object; returns the handle id. *)

val block_thread : t -> thread:int -> on:handle_kind -> unit
(** Parks a thread in a system call on a handle of the given kind. *)

val thread_states : t -> thread_state list

val checkpoint : t -> unit
(** Serialises thread contexts and the handle table into the process's
    heap — the state the WSP save path will flush. *)

type restore_report = {
  outcome : [ `Restored | `Unrestorable of string ];
  syscalls_aborted : int;
      (** Blocked system calls failed with a retryable error. *)
  handles_recreated : int;  (** Re-established by the library OS. *)
  handles_dangling : int;  (** Lost references into the dead kernel. *)
  restart_latency : Time.t;  (** Fresh kernel boot + reconstruction. *)
  contexts_intact : bool;
      (** Thread register state matched the checkpoint. *)
}

val restore_on_fresh_os : t -> restore_report
(** Revives the process from its heap image on a new kernel, which
    takes 3 s to boot. [Library_os] processes reconstruct their handles and
    retry aborted system calls; [Direct_kernel] processes with open
    handles are unrestorable and must recover from the back end. *)
