(** The closed-loop client population driving the sharded directory.

    [clients] logical clients each hold one outstanding request at a
    time (closed loop); per round every client issues exactly one
    operation. Keys follow a YCSB-style Zipfian popularity curve (or
    uniform at [theta = 0]), and the lookup/insert/delete split is a
    percentage mix.

    Determinism is the whole design: each client owns an independent
    {!Wsp_sim.Rng} stream derived from the master seed, and the key a
    client draws depends only on (seed, client index, round) — never on
    the shard count, batch sizes or [--jobs], so the same seed produces
    the same request stream against 1 shard or 64. *)

type op =
  | Lookup of int64
  | Insert of int64 * int64
  | Delete of int64

type mix = { lookups : int; inserts : int; deletes : int }
(** Operation percentages; must sum to 100. *)

val default_mix : mix
(** 70% lookups / 25% inserts / 5% deletes — YCSB-B leaning. *)

type t

val create :
  ?mix:mix ->
  ?theta:float ->
  clients:int ->
  keyspace:int ->
  seed:int ->
  unit ->
  t
(** [theta] is the Zipfian skew in [\[0, 1)); 0 means uniform keys and
    the default 0.99 is YCSB's. Raises [Invalid_argument] on a
    non-positive population or keyspace, a mix that does not sum to
    100, or a [theta] outside [\[0, 1)] (NaN included). *)

val clients : t -> int

val next : t -> client:int -> op
(** The next operation of client [client] (advances only that client's
    stream plus the shared popularity curve — both deterministic). *)

val key : op -> int64
(** The key an operation addresses, for routing. *)
