(** A single set-associative cache level.

    The cache tracks tag state only (presence, dirty bit, LRU age); line
    contents live with the memory backing store, which keeps a buffer of
    dirty-line data (see {!Wsp_nvheap.Nvram}). Addresses and line
    numbers are non-negative; the cache works internally in line numbers
    ([addr / line_size]).

    Tag state is allocated a page of consecutive sets at a time, at
    the page's first insert, so a level costs memory and build time in
    proportion to the sets it has touched, not to its configured
    capacity; an untouched set reads as all ways invalid. Within a set,
    tags, ages (with the dirty flag) and dirty-list links are separate
    runs of one int array, so picking a victim reads consecutive ints.
    A paged directory from line number to way makes each lookup
    ({!probe}, {!contains}, {!set_dirty}, {!is_dirty}, {!invalidate})
    two array loads, with no set scan; its pages too are allocated at
    their first insert. Dirty and resident state is tracked
    incrementally: per-cache counters plus an intrusive doubly-linked
    index of dirty ways make {!dirty_count}, {!resident_count},
    {!dirty_lines} and {!iter_dirty} O(dirty lines) rather than a fold
    over every slot.
    The flush-on-fail protocol and residual-energy-window loops poll
    these on every simulated step, so this is the simulator's hottest
    bookkeeping. *)

open Wsp_sim

type config = {
  name : string;  (** e.g. ["L1d"]. *)
  size : Units.Size.t;
  line_size : int;
  associativity : int;
  hit_latency : Time.t;
}

type t

val create : config -> t
val config : t -> config

val line_count : t -> int
(** Total configured capacity in lines, touched or not. *)

val probe : t -> line:int -> bool
(** [probe t ~line] is [true] on hit, updating LRU recency. *)

val contains : t -> line:int -> bool
(** Like {!probe} but without touching LRU state. *)

(** {1 Victims}

    An insert reports the way it displaced as an int code, so the fill
    path allocates nothing: {!no_victim}, or the evicted line and its
    dirty flag packed as [line lsl 1 lor dirty]. *)

val no_victim : int
val victim_line : int -> int
val victim_dirty : int -> bool

val insert : t -> line:int -> dirty:bool -> int
(** Allocates [line]; when the target set is full the LRU way is evicted
    and its victim code returned. Inserting a line already present
    merges the dirty flag instead and returns {!no_victim}. *)

val insert_absent : t -> line:int -> dirty:bool -> int
(** {!insert} for a caller that knows [line] is absent (a probe just
    missed it): the set is scanned only to pick the slot. Inserting a
    present line this way would duplicate it. *)

val set_dirty : t -> line:int -> unit
(** Marks a (present) line dirty. No-op if the line is absent. *)

val is_dirty : t -> line:int -> bool

val invalidate : t -> line:int -> bool
(** Drops the line if present; [true] iff it was present and dirty. *)

val dirty_lines : t -> int list
(** O(dirty); lines in most-recently-dirtied-first order. *)

val iter_dirty : t -> (int -> unit) -> unit
(** [iter_dirty t f] applies [f] to every dirty line, oldest first,
    without allocating. [f] must not mutate [t]. *)

val dirty_count : t -> int
(** O(1), maintained incrementally. *)

val resident_count : t -> int
(** O(1), maintained incrementally. *)

val clear : t -> unit
(** Invalidates everything without reporting write-backs; callers that
    need write-back semantics must consume {!dirty_lines} first.
    Skips pages no insert has touched. *)
