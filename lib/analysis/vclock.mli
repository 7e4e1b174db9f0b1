(** Vector clocks over a fixed universe of logical domains.

    The concurrent persistency race detector ({!Crules}) assigns one
    component per event-bus source — a shard, a logical producer thread,
    a migration coordinator — and advances a domain's own component once
    per event it emits. Cross-domain edges (migration handoffs, acks,
    save/restore barriers, publish/acquire pairs) merge clocks, so
    [leq a b] is exactly happens-before: every event [a] counts is also
    in [b]'s past. Clocks are dense [int array]s — the detector tracks a
    handful of domains, never thousands. *)

type t

val make : domains:int -> t
(** The zero clock: nothing has happened anywhere. *)

val domains : t -> int

val copy : t -> t
(** An independent snapshot; ticking the original does not move it. *)

val tick : t -> domain:int -> unit
(** Advances [domain]'s own component: one local event happened. *)

val get : t -> domain:int -> int

val merge : into:t -> t -> unit
(** Pointwise maximum: [into] absorbs everything the other clock has
    seen. The acquire half of every cross-domain edge. *)

val leq : t -> t -> bool
(** [leq a b]: every component of [a] is ≤ the matching component of
    [b] — the snapshot [a] is in [b]'s causal past (or equal). *)

val concurrent : t -> t -> bool
(** Neither [leq a b] nor [leq b a]: no happens-before edge in either
    direction. *)
