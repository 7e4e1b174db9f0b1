open Wsp_sim

type logging = No_log | Undo | Redo
type backend = Store | Commit_seal | Msync

type t = {
  name : string;
  logging : logging;
  stm : bool;
  backend : backend;
}

let foc_stm = { name = "FoC + STM"; logging = Redo; stm = true; backend = Commit_seal }
let foc_ul = { name = "FoC + UL"; logging = Undo; stm = false; backend = Commit_seal }
let fof_stm = { name = "FoF + STM"; logging = Redo; stm = true; backend = Store }
let fof_ul = { name = "FoF + UL"; logging = Undo; stm = false; backend = Store }
let fof = { name = "FoF"; logging = No_log; stm = false; backend = Store }
let msync = { name = "Msync"; logging = No_log; stm = false; backend = Msync }
let all = [ foc_stm; foc_ul; fof_stm; fof_ul; fof ]
let all_backends = all @ [ msync ]

(* Page granularity of the failure-atomic msync backend: dirty tracking,
   journalling and commit all operate on aligned 256-byte pages (32
   words) — small enough that single-word transactions don't journal a
   whole 4 KiB OS page in the simulator's cost model. *)
let msync_page = 256

let flush_on_commit t = t.backend = Commit_seal

let normalize s =
  String.lowercase_ascii (String.concat "" (String.split_on_char ' ' s))

let by_name s =
  let s = normalize s in
  List.find_opt (fun c -> normalize c.name = s) all_backends

let is_durable_without_wsp t = t.backend <> Store

type protocol = Plain | Undo_log | Redo_stm | Page_commit

let protocol t =
  match (t.backend, t.logging) with
  | Msync, _ -> Page_commit
  | (Store | Commit_seal), No_log -> Plain
  | (Store | Commit_seal), Undo -> Undo_log
  | (Store | Commit_seal), Redo -> Redo_stm

module Costs = struct
  let tx_begin = Time.ns 40.0
  let tx_commit_base = Time.ns 25.0
  let stm_read = Time.ns 55.0
  let stm_write = Time.ns 48.0
  let stm_validate = Time.ns 8.0
  let log_word_cpu = Time.ns 4.0
end
