(** A small domain pool for embarrassingly parallel simulation sweeps,
    with deterministic result ordering, plus the per-domain output
    capture that lets concurrently-running experiments keep
    byte-identical, in-order terminal output.

    Independent simulations (the experiment registry's [run_all], the
    platform×PSU sweeps) fan out over OCaml 5 domains; everything each
    job prints through this module's [print_*] functions is buffered per
    domain and emitted by the caller in input order. *)

val default_jobs : unit -> int
(** Worker count used when {!map} is not given one: the [--jobs]
    override if set, else the [WSP_JOBS] environment variable, else
    [Domain.recommended_domain_count ()]. Returns [1] inside a pool
    worker, so nested sweeps run sequentially instead of multiplying
    domains. [WSP_JOBS=1] forces fully sequential execution. *)

val set_jobs : int -> unit
(** Process-wide override of {!default_jobs} ([0] clears it). *)

val map : ?jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to every element, running up to [jobs]
    applications concurrently on separate domains. [jobs] is a
    concurrency {e cap}: the number of domains actually spawned is
    additionally clamped to [Domain.recommended_domain_count ()] (at
    least 1), because oversubscribing
    domains only adds GC-synchronisation overhead (a measured 3-4x
    slowdown for [--jobs 4] on a single-core host). Workers claim
    [chunk] consecutive inputs at a time from the shared queue
    (default: enough to leave ~8 claims per worker), so per-claim
    overhead amortises over cheap items. Results are returned in input
    order regardless of completion order. If any application raises,
    every job still runs to completion and the exception of the
    {e earliest failing input} is re-raised, so the surfaced outcome
    does not depend on domain scheduling — including on a single-core
    host, where [jobs > 1] keeps pool semantics but spawns no extra
    domain (the calling domain drains the whole queue). With [jobs = 1]
    (or a singleton list) the call is exactly [List.map f xs]. *)

(** {1 A pool kept across calls}

    {!map} spawns its domains for one call, which costs a few hundred
    microseconds and starts each one on a cold core. A caller that maps
    many times in a row, like the shard service's rounds, keeps one
    pool instead. *)

type pool

val with_pool : ?jobs:int -> (pool -> 'a) -> 'a
(** [with_pool f] runs [f] with a pool capped at [jobs] concurrent
    applications ([jobs] defaults to {!default_jobs}). Its helper
    domains are spawned on first need, idle between {!pool_map} calls,
    and are joined when [f] returns or raises. *)

val pool_map : pool -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} with the pool's [jobs], run on the caller and the pool's
    helpers: the same chunking, input-order results and
    earliest-failure contract. Calls on one pool must not overlap; a
    call made from inside a running item maps sequentially. *)

(** {1 Capturable output}

    Report-style printing that respects an active {!capture}. Outside a
    capture these are the ordinary [Stdlib] printers. *)

val print_string : string -> unit
val print_char : char -> unit
val print_endline : string -> unit
val print_newline : unit -> unit
val printf : ('a, unit, string, unit) format4 -> 'a

val capture : (unit -> 'a) -> string * 'a
(** [capture f] runs [f] with this module's printers redirected to a
    fresh buffer local to the calling domain, returning the captured
    bytes alongside [f]'s result. Nests; on exception the previous sink
    is restored and the exception re-raised. *)
