(** Relocatable heap images.

    A saved image is the complete byte contents of a heap's region —
    root area, (quiesced) log, and heap — behind a versioned header
    with a checksum, serializable for shipping to another simulated
    node. Because the published root is base-relative ({!Pheap.set_root})
    and the log is emptied before capture (log records embed absolute
    addresses), the image can be restored at a {e different} base
    address; only intra-heap pointers stored by data structures remain
    absolute, and those are swizzled by the structure's own relocation
    pass (e.g. [Avl.attach_relocated]). *)

exception Corrupt of string
(** Raised by {!of_bytes} and {!restore_at} when validation fails —
    bad magic, unsupported version, length mismatch, checksum mismatch,
    or an inconsistent root word. The target NVRAM is never touched. *)

type t

val save : Pheap.t -> t
(** Captures the heap's region. Quiesces the heap first ({!Pheap.quiesce});
    raises [Invalid_argument] inside a transaction. The capture is of
    the {e volatile} view — exactly what a WSP flush-on-fail save would
    make persistent. *)

val version : t -> int
val src_base : t -> int
(** The base address the image was saved at. *)

val region_len : t -> int
val log_bytes : t -> int

val size_bytes : t -> int
(** Serialized size: header plus payload. *)

val checksum : t -> int64

val to_bytes : t -> Bytes.t
(** The wire form: versioned header, root word, checksum, payload. *)

val of_bytes : Bytes.t -> t
(** Validates and re-adopts a wire-form image. Raises {!Corrupt}. *)

val restore_at :
  ?config:Config.t ->
  ?costs:Config.Costs.costs ->
  t ->
  nvram:Nvram.t ->
  base:int ->
  unit ->
  Pheap.t
(** Loads the image payload into [nvram] backing at [base] (a DMA-style
    adoption) and attaches the heap there. Damaged wire bytes never get
    this far: {!of_bytes} rejects them before any NVRAM is touched. The
    published root is valid immediately (base-relative); callers then
    run their structure's relocation pass to swizzle absolute intra-heap
    pointers when [base <> src_base]. Raises {!Corrupt} before touching
    [nvram] on a damaged image; raises [Invalid_argument] when the
    region does not fit. *)
