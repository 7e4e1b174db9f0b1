(** A persistency trace: the ordered stream of events that determine what
    a power failure preserves.

    The checker's crash-point space is indexed over the {e memory} events
    ([Mem _]) — every store, fence and flush is an instant a power
    failure can fall before. Log- and transaction-level events are
    annotations interleaved into the same stream so a failing point can
    be reported as "before store 3 of the commit record of txn 7" rather
    than a bare address. *)

open Wsp_nvheap

type t

val create : unit -> t

val instrument : t -> Pheap.t -> unit
(** Replays the allocated-block baseline, then subscribes one recorder
    to the heap's {!Pheap.bus}. Recording changes no behaviour, and any
    number of traces (or other observers) may record the same heap
    concurrently. Raises [Invalid_argument] if this trace is already
    attached. *)

val detach : t -> unit
(** Removes exactly this trace's bus subscription — other observers on
    the same heap are untouched. Idempotent. *)

val iter_baseline : Pheap.t -> (Event.t -> unit) -> unit
(** The synthetic [Heap (Alloc _)] baseline {!instrument} replays:
    one event per already-allocated block, addresses ascending. Exposed
    for streaming consumers that feed an analysis directly from the bus
    and need the same starting state. *)

val mem_length : t -> int
(** Number of memory events recorded — the size of the crash-point
    space. *)

val events : t -> Event.t array
(** The full interleaved stream, in program order. *)

type recording = {
  events : Event.t array;  (** The full interleaved stream. *)
  line_size : int;  (** Cache-line size all line addresses refer to. *)
  alloc_base : int;  (** First byte of the allocator heap region. *)
  alloc_limit : int;  (** One past the last heap byte. *)
}
(** A finished trace bundled with the heap geometry a consumer needs to
    interpret it — the static analyzer's input. *)

val snapshot : t -> Pheap.t -> recording
(** The recording so far, with geometry read off the given heap. *)

val describe_mem : Event.t array -> int -> string
(** The [k]-th memory event with its nearest preceding log/transaction
    annotation — the human-readable name of crash point [k]. *)
