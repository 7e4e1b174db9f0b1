(** Key-popularity skew and the flush-on-fail advantage.

    Real key-value traffic is Zipfian, not uniform (the motivating
    caches of §1–2 are exactly such systems). Skew concentrates the
    working set, so cache hit rates rise and WSP's in-memory operations
    get {e faster} — while flush-on-commit stays pinned to memory by its
    synchronous log writes and flushes. The FoC/FoF gap therefore widens
    on realistic traffic. *)

open Wsp_sim

type row = {
  label : string;
  distribution : [ `Uniform | `Zipfian of float ];
  foc_stm : Time.t;
  fof : Time.t;
  slowdown : float;
}

val data : ?entries:int -> ?ops:int -> unit -> row list
val run : full:bool -> unit
