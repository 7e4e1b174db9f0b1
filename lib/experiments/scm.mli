(** §6 — SCM-based NVRAMs: does flush-on-fail's advantage grow on slower
    memory?

    The paper predicts it does: flush-on-commit's synchronous log writes
    and flushes hit the slow SCM write path on every transaction, while
    flush-on-fail touches memory only through ordinary cached stores
    (write-backs are asynchronous) and pays the slow writes once, at
    failure time — where the energy budget scales with cache size, not
    memory size. *)

open Wsp_sim

type row = {
  profile : Wsp_machine.Scm.profile;
  foc_stm : Time.t;  (** per-op, update-heavy workload. *)
  fof : Time.t;
  slowdown : float;  (** FoC+STM over FoF. *)
  flush_energy : Units.Energy.t;
      (** Worst-case failure-time flush energy on this memory. *)
}

val data : ?entries:int -> ?ops:int -> unit -> row list

val run : full:bool -> unit
