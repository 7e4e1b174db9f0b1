(** Deterministic pseudo-random number generation.

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] so that experiments are exactly reproducible from a seed, and
    independent components can be given independent streams via [split].
    The generator is xoshiro256** seeded through splitmix64. *)

type t

val create : seed:int -> t
(** A generator deterministically derived from [seed]. *)

val split : t -> t
(** A new generator whose stream is independent of the parent's future
    output. Advances the parent. *)

val copy : t -> t
(** A snapshot: the copy replays exactly the parent's future stream. *)

val bits64 : t -> int64
(** 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val uniform : t -> lo:float -> hi:float -> float

val gaussian : t -> mu:float -> sigma:float -> float
(** Normally distributed via Box–Muller. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

module Zipf : sig
  (** A Zipfian rank generator (the YCSB formulation): rank [r] is drawn
      with probability proportional to [1/(r+1)^theta]. Used for
      realistic skewed key popularity in workloads. *)

  type gen

  val create : ?theta:float -> n:int -> unit -> gen
  (** [theta] defaults to 0.99 (YCSB's default skew); [n] is the number
      of ranks. Setup is O(n) (exact zeta computation). *)

  val draw : gen -> t -> int
  (** A rank in [\[0, n)], rank 0 being the most popular. *)

  val n : gen -> int
end
