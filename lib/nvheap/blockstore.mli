(** Block-based persistence on NVRAM (§3.2, model 1).

    A persistent RAMdisk / buffer cache: applications persist state by
    writing whole blocks through a system-call interface. The paper
    argues this model is the worst use of NVRAM — it duplicates state
    (one copy in the application's DRAM representation, one in blocks),
    and pays block-transfer and system-call overheads on every update.
    This module exists so that claim can be measured (see the [models]
    experiment).

    Blocks are written through to NVRAM with non-temporal copies plus a
    fence, so a completed {!write_block} is durable without any WSP
    support — like the flush-on-commit heaps, the cost is paid at
    runtime. *)

type t

val block_size : int
(** 4 KiB. *)

val create : Nvram.t -> base:int -> len:int -> unit -> t
(** Formats a block device over the NVRAM region. Every block read and
    write pays a 300 ns system call. *)

val attach : Nvram.t -> base:int -> len:int -> unit -> t
(** Adopts an existing device (post-crash). *)

val block_count : t -> int

val write_block : t -> idx:int -> Bytes.t -> unit
(** Writes one full block durably: system call + non-temporal copy +
    fence. The buffer must be exactly one block long. *)

val read_block : t -> idx:int -> Bytes.t
(** Reads one block: system call + copy. *)

val blocks_written : t -> int
val bytes_written : t -> int
(** Cumulative traffic, for the state-duplication accounting. *)
