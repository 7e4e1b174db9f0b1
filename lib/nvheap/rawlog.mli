(** A torn-tolerant raw log in NVRAM (Mnemosyne-style).

    Records are sequences of 64-bit logical values, stored as 32-bit
    chunks tagged with the log's current 16-bit generation — the
    word-granularity analogue of Mnemosyne's torn bits. A record is valid
    only if {e every} one of its words carries the current generation, so
    a crash that persists only part of an append is detected and the scan
    stops there. Truncation bumps the generation, instantly invalidating
    all old records without touching them.

    Appends are written either {e durably} (non-temporal stores fenced at
    the record end — the flush-on-commit path) or {e cached} (plain
    stores left to the cache — the flush-on-fail path, durable only
    because WSP flushes caches on power failure).

    {!append} and {!truncate} publish an [Event.Log] annotation on the
    owning {!Nvram.bus} at operation entry, before any word is written;
    the words themselves arrive as [Event.Mem] events. *)

exception Log_full

type mode = Durable | Cached

type t

val create : Nvram.t -> base:int -> len:int -> t
(** Formats the region: generation 1, empty log. *)

val attach : Nvram.t -> base:int -> len:int -> t
(** Adopts an existing log (post-crash): reads the generation and scans
    to find the head. *)

val base : t -> int
val used_words : t -> int
val generation : t -> int

val append : t -> mode:mode -> kind:int -> int64 array -> unit
(** Appends one record. [kind] must fit in 8 bits. Raises {!Log_full}
    when the region cannot hold the record. *)

val append_addr : t -> mode:mode -> kind:int -> int -> int64 -> unit
(** [append_addr t ~mode ~kind addr v] is
    [append t ~mode ~kind [| Int64.of_int addr; v |]] — the shape of
    every undo and redo record — without building the array. *)

val truncate : t -> mode:mode -> unit
(** Empties the log by bumping the generation. *)

val scan : t -> (int * int64 array) list
(** All valid records in append order, stopping at the first torn or
    absent record — the recovery read path. *)

val scan_persistent : t -> (int * int64 array) list
(** Like {!scan} but reading the crash-surviving backing bytes directly,
    bypassing cached data; used by tests to ask "what would recovery see
    if power failed right now?". *)
