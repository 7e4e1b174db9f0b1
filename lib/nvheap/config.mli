(** The five persistence configurations of Figure 5, plus the
    failure-atomic msync backend.

    Two axes: {e when} transient state reaches NVRAM (the backend), and
    {e what bookkeeping} runs during execution (full STM instrumentation
    with redo logging, plain undo logging, or nothing). *)

open Wsp_sim

type logging = No_log | Undo | Redo

(** When data becomes durable:
    - [Store]: never synchronously — durability relies on the WSP
      flush-on-fail save at power loss.
    - [Commit_seal]: at every transaction commit — fenced non-temporal
      log appends plus cache-line flushes of updated data
      (flush-on-commit, the Mnemosyne discipline).
    - [Msync]: at every transaction commit via a failure-atomic msync:
      writes are buffered in tracked dirty pages, journalled as whole
      pages, sealed, then applied and flushed in place (the
      Snapshot-style page-granularity design). *)
type backend = Store | Commit_seal | Msync

type t = {
  name : string;
  logging : logging;
  stm : bool;  (** Read/write-set instrumentation and validation. *)
  backend : backend;  (** When updates reach NVRAM durably. *)
}

val foc_stm : t
(** Flush-on-commit + STM: the default Mnemosyne configuration. *)

val foc_ul : t
(** Flush-on-commit + undo logging, no STM (the authors' minimal
    NV-heap). *)

val fof_stm : t
(** Flush-on-fail + STM: instrumentation and logging stay in-cache. *)

val fof_ul : t
(** Flush-on-fail + undo logging, in-cache. *)

val fof : t
(** Flush-on-fail, no transactions or logging: plain WSP operation. *)

val msync : t
(** Failure-atomic msync: no logging instrumentation during execution;
    per-page dirty tracking with a double-buffered page commit. *)

val all : t list
(** The five paper configurations, in the paper's legend order. *)

val all_backends : t list
(** [all] plus the msync backend — one representative per backend. *)

val msync_page : int
(** Aligned page size (bytes) of msync dirty tracking and journalling. *)

val flush_on_commit : t -> bool
(** [backend = Commit_seal]. *)

val by_name : string -> t option

val is_durable_without_wsp : t -> bool
(** Whether committed transactions survive a power failure {e without}
    the WSP cache flush (true for commit-seal and msync backends). *)

(** The transaction protocol a configuration runs — the one value
    {!Txn}, the static analyzer and every durable-update wrapper
    dispatch on:
    - [Plain]: no transaction machinery; updates run bare (FoF).
    - [Undo_log]: old values are logged before in-place writes and
      rolled back if the transaction never commits (FoC/FoF + UL).
    - [Redo_stm]: instrumented reads, writes buffered in a write set,
      redo-logged and applied at commit (FoC/FoF + STM).
    - [Page_commit]: writes buffered in dirty pages, journalled whole
      and sealed at commit; allocator headers are undo-logged and rolled
      back like [Undo_log]'s (the msync backend). *)
type protocol = Plain | Undo_log | Redo_stm | Page_commit

val protocol : t -> protocol

(** {1 Cost model}

    CPU-side costs of the transactional machinery, charged on top of the
    memory-system latencies the NVRAM model accounts for: 40 ns to begin
    a transaction, 25 ns fixed per commit, 55 ns per instrumented read,
    48 ns per write-set insertion, 8 ns per read-set entry validated at
    commit and 4 ns to format one log word. Values are calibrated against
    Figure 5 (see DESIGN.md §4 and EXPERIMENTS.md). *)

module Costs : sig
  val tx_begin : Time.t
  val tx_commit_base : Time.t
  val stm_read : Time.t
  val stm_write : Time.t
  val stm_validate : Time.t
  val log_word_cpu : Time.t
end
