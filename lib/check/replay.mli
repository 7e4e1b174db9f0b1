(** Golden-run recording and incremental crash-state reconstruction.

    Records one complete execution of a workload through the NVRAM's
    {!Wsp_nvheap.Nvram.tap} — every data mutation (overlay writes,
    WC-queue appends, write-backs, drains) in exact chronological order,
    with a {e mark} per memory event — and rebuilds the machine state at
    any crash point by replaying only the recorded mutation ops, never
    the workload. This turns the checker's O(points × trace) crash
    enumeration into one execution plus O(delta) replay per point.

    Because NVRAM events are published {e before} their primitive
    mutates anything, the state a power failure at point [p] preserves
    is exactly the recorded ops strictly preceding mark [p].

    The recording is flat: an int code and a payload offset per op, and
    one byte arena for every payload.

    Copy-on-write waypoints: every [stride] marks the recorder snapshots
    the full state, saving only the backing lines written back since the
    previous waypoint, plus the overlay whole and the op index where the
    WC queue's words begin, so a cursor can land mid-trace — each
    parallel chunk of crash points starts at the nearest waypoint
    instead of replaying from zero. *)

type 'a t
(** A finished recording; ['a] is the caller's per-mark annotation
    (the checker stores its committed-op journal position there). *)

val record :
  nvram:Wsp_nvheap.Nvram.t ->
  ?stride:int ->
  info:(unit -> 'a) ->
  (unit -> unit) ->
  'a t
(** [record ~nvram ~stride ~info run] executes [run ()] with the tap and
    a bus subscriber attached (both removed on exit, even if [run]
    raises), capturing the base state first. [info] is sampled at every
    mark, i.e. at the instant each memory event is announced — the same
    instant the old checker's crash injection froze the machine.
    [stride] is the waypoint interval in marks (default 256); [0]
    disables waypoints (cursors then always restore to the base
    state — the stride=∞ behaviour). *)

val marks : 'a t -> int
(** Number of memory events recorded — the crash-point space, equal to
    [Trace.mem_length] of a trace of the same execution. *)

val info : 'a t -> mark:int -> 'a
(** The annotation sampled at mark [mark]. *)

(** {1 Crash states} *)

type judge
(** A machine a state keeps for {!with_nvram} to judge on. *)

type state = {
  backing : Bytes.t;
      (** The persistent bytes: what a power failure at this point
          preserves. *)
  overlay : (int, Bytes.t) Hashtbl.t;
      (** Dirty cache lines, keyed by line number, each [line_size]
          bytes. *)
  wc : (int * int64) Queue.t;
      (** Undrained non-temporal words [(addr, value)], oldest first. *)
  line_size : int;
  mutable judge : judge option;
      (** The machine {!with_nvram} built over [backing], kept for its
          next call: [None] until the first. *)
}
(** The machine's data state at a crash instant, as three components:
    the volatile view (what running software sees, and what a
    flush-on-fail save must persist) is [backing] overlaid with
    [overlay], then with [wc] applied oldest first. Only the lines the
    overlay or the WC queue touch differ between the two views, so a
    judge can compare them in O(overlay + WC), not O(region). *)

val capture : Wsp_nvheap.Nvram.t -> state
(** Copies of a live NVRAM's three components, taken without charging
    time or publishing events: the full-replay engine's crash state. *)

type 'a cursor
(** A mutable reconstruction of the machine state at some mark. Cheap to
    move forward; moving backward restores from the nearest preceding
    waypoint. Independent cursors over one recording do not share state
    (each chunk of a parallel sweep owns one). *)

val cursor : 'a t -> 'a cursor
(** A cursor positioned at mark 0 (the recording's base state). *)

val seek : 'a cursor -> mark:int -> unit
(** Positions the cursor at crash point [mark]: the state with exactly
    the ops preceding mark [mark] applied. *)

val state : 'a cursor -> state
(** The cursor's own state components, shared, not copied: they change
    on the next {!seek}. Equal, component for component, to {!capture}
    at the same point of a live execution. A caller may mutate them
    between seeks — the checker recovers on [backing] in place — but
    must put back every byte it changed before the next {!seek}, which
    applies its delta on top of what it finds. *)

val with_nvram :
  ?hierarchy:Wsp_machine.Hierarchy.config ->
  state ->
  (Wsp_nvheap.Nvram.t -> 'a) ->
  'a
(** [with_nvram st f] runs [f] on an NVRAM ([hierarchy] as in
    {!Wsp_nvheap.Nvram.create}) over [st.backing] itself — the crashed
    machine: the same persistent bytes, empty caches, a zero clock, no
    fault, no step budget and no subscribers — without copying the
    region. Copy-on-write: every backing line the NVRAM changes is put
    back when [f] returns or raises, so [st] is left as it was.

    The first call builds the NVRAM and [st] keeps it; each later call
    with the same [hierarchy] value, in a domain with the same ambient
    registry, reuses it. After each call the NVRAM is crashed and its
    fault and step budget cleared, so every call sees the machine a
    fresh one would be, with the same counts in the same registry. A
    cursor's state thus judges all its points on one machine.

    [f] must not attach a tap (this function holds the NVRAM's one tap),
    subscribe to its buses without unsubscribing, load or clear backing
    directly, or call [with_nvram] on [st] itself. *)
