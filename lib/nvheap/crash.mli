(** The one simulated power failure, shared by every crash verdict: the
    checker, the concurrent sweep and the shard migration sweep.

    A crash point is an index, from 0, into the {!Event.Mem} events
    announced on the watched NVRAMs' buses, counted across all of them.
    Power fails just {e before} the armed event takes effect. [Wb],
    [Log], [Tx] and [Heap] events are never counted nor raised at: a
    write-back follows a memory event that already was a crash point,
    and the annotations persist nothing. The failure unwinds the
    workload as an exception private to this module, which {!run}
    catches. *)

type mode =
  | Freeze
      (** Fail at the armed event and at every later memory event, so a
          rollback cannot store past the failure. *)
  | Defer
      (** Mark the trip at the armed event and fail at the next
          {!checkpoint}: under plain flush-on-fail, WSP saves all state
          and resumes, so finishing the operation and then failing is
          the same machine. *)

type t

val create : ?at:int -> ?on_trip:(unit -> unit) -> mode -> t
(** Armed at memory event [at]; without [at] it only counts. [on_trip]
    runs once at the trip instant, before the event takes effect: the
    place to capture the machine state. *)

val run : t -> Nvram.t list -> (unit -> 'a) -> 'a option
(** Runs [f] counting the memory events of [nvrams] (and of any
    {!watch}ed inside [f]); [None] if power failed. After a failure [t]
    keeps counting but never trips again. The count and an untaken trip
    carry over to the next [run]. Every subscriber is detached on return
    or exception. *)

val watch : t -> Nvram.t -> unit
(** Counts one more NVRAM until the enclosing {!run} returns; call it
    only inside a {!run}. *)

val checkpoint : t -> unit
(** Fails power, once, if [t] has tripped and not yet failed. *)

val events : t -> int
(** Memory events counted so far, the tripping ones included. *)

val select : rng:Wsp_sim.Rng.t -> total:int -> budget:int -> int list * bool
(** The crash points to try out of [total], ascending and distinct:
    all of them when [total <= budget] ([true]: exhaustive), else
    [budget] drawn without replacement by a shuffle of [rng]. Raises
    [Invalid_argument] on a non-positive [budget]. *)
