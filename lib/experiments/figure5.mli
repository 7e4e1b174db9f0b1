(** Figure 5 — hash table microbenchmark: time per operation vs. update
    probability for the five persistence configurations.

    Paper: 100,000-entry table, 1,000,000 operations per point.
    FoC + STM is 6–13× slower than FoF; FoC + UL has a 60 % overhead on
    a read-only workload and is nearly 10× slower when write-intensive;
    the flush-on-fail variants sit close to FoF. *)

open Wsp_sim
open Wsp_nvheap

type series = { config : Config.t; points : (float * Time.t) list }

val data : ?entries:int -> ?ops:int -> ?points:int -> unit -> series list
(** Defaults (scaled down from the paper): 20,000 entries, 100,000 ops,
    6 update-probability points. *)

val slowdown_range : series list -> float * float
(** (min, max) of FoC+STM time over FoF time across the sweep — the
    paper's "6–13x". *)

val run : full:bool -> unit
