(** Relocatable heap images.

    A saved image carries only the bytes a restore needs from a heap's
    region: the root area, the (quiesced) log's generation word, and
    every allocator block header and allocated payload, as coalesced
    extents behind a versioned header with a word-wise checksum. Its
    size therefore follows what is live, not the region's length. It
    serializes for shipping to another simulated node. Because the
    published root is base-relative ({!Pheap.set_root}) and the log is
    emptied before capture (log records embed absolute addresses), the
    image can be restored at a {e different} base address; only
    intra-heap pointers stored by data structures remain absolute, and
    those are swizzled by the structure's own relocation pass (e.g.
    [Avl.attach_relocated]). *)

exception Corrupt of string
(** Raised by {!of_bytes} when validation fails — bad magic,
    unsupported version (including the whole-region version 1 form),
    a malformed extent table, length mismatch, checksum mismatch, or an
    inconsistent root word. The target NVRAM is never touched. *)

type t

val save : Pheap.t -> t
(** Captures the heap's live extents. Quiesces the heap first
    ({!Pheap.quiesce}); raises [Invalid_argument] inside a transaction.
    The capture is of the {e volatile} view — what a WSP flush-on-fail
    save would make persistent — read without charging simulated time,
    publishing events or bumping tallies on the source. *)

val version : t -> int
val src_base : t -> int
(** The base address the image was saved at. *)

val region_len : t -> int
val log_bytes : t -> int

val size_bytes : t -> int
(** Serialized size: header plus extent records. *)

val checksum : t -> int64
(** FNV-1a over the wire's 64-bit words, the checksum's own excepted:
    any single changed byte changes it. *)

val to_bytes : t -> Bytes.t
(** The wire form: versioned header (root word, extent count,
    checksum), then one (region offset, length, bytes) record per
    extent. *)

val of_bytes : Bytes.t -> t
(** Validates and re-adopts a wire-form image. Raises {!Corrupt}. *)

val restore_at :
  ?config:Config.t ->
  t ->
  nvram:Nvram.t ->
  base:int ->
  unit ->
  Pheap.t
(** Loads the image into [nvram] backing at [base] (a DMA-style
    adoption) and attaches the heap there. Every byte of the region is
    defined: bytes no extent covers read zero, so nothing a previous
    occupant left — stale log records included — survives. Damaged
    wire bytes never get this far: {!of_bytes} rejects them before any
    NVRAM is touched. The published root is valid immediately
    (base-relative); callers then run their structure's relocation
    pass to swizzle absolute intra-heap pointers when
    [base <> src_base]. Raises [Invalid_argument] when the region does
    not fit. *)
