(** A first-fit free-list allocator over an NVRAM region.

    Block headers live in NVRAM (one 64-bit word per block holding the
    payload size and a used bit), so the heap structure itself survives a
    crash; a volatile free-list index is rebuilt by {!recover} after one.
    Payloads are 8-byte aligned.

    Allocator metadata writes go through the NVRAM's cached path and are
    therefore subject to the same crash semantics as everything else:
    transactional configurations must log them (the {!Pheap} facade does
    this automatically).

    Every allocation, free and header write publishes an [Event.Heap]
    annotation on the owning {!Nvram.bus} before mutating the header. *)

type t

val create : Nvram.t -> base:int -> len:int -> t
(** Formats the region as one large free block. *)

val attach : Nvram.t -> base:int -> len:int -> t
(** Adopts an already-formatted region without reinitialising it, e.g.
    after a crash; equivalent to {!recover} on a fresh handle. *)

val base : t -> int
val limit : t -> int

val alloc : t -> ?on_header_write:(addr:int -> unit) -> int -> int
(** [alloc t n] returns the address of an [n]-byte payload ([n > 0];
    rounded up to 8-byte multiples). [on_header_write] is invoked with
    the address of every header word the allocation mutates {e before}
    the mutation, letting transactions undo-log allocator metadata.
    Raises [Out_of_memory] when no block fits. *)

val free : t -> ?on_header_write:(addr:int -> unit) -> int -> unit
(** Returns a payload to the free list, coalescing with a free right
    neighbour. Freeing an unallocated address raises
    [Invalid_argument]. *)

val payload_size : t -> int -> int
(** Size of the payload allocated at the given address. *)

val is_allocated : t -> int -> bool
(** Walks the block chain from the base: O(blocks) charged reads. *)

val live_payload_sizes : t -> (int, int) Hashtbl.t
(** Every allocated payload address mapped to its size, from one walk
    of the block chain. For [n > 0], [is_allocated t p && payload_size t
    p >= n] holds exactly when [p] maps to a size of at least [n], so a
    caller validating many addresses pays one walk, not one per
    address. *)

val recover : t -> unit
(** Rebuilds the volatile free-list index by scanning headers — the
    post-crash path. *)

val allocated_bytes : t -> int

val check_invariants : t -> (unit, string) result
(** Walks the region verifying header chaining; used by tests. *)

val iter_allocated : t -> (addr:int -> size:int -> unit) -> unit

val live_extents : t -> (int * int) list
(** The [(addr, len)] ranges a copy of the region needs — every block
    header and every allocated payload, adjacent ones coalesced, in
    address order. Headers are read from the volatile view with
    {!Nvram.peek_volatile}, charging no time and publishing no event.
    The walk stops where {!recover} does. *)
