open Wsp_sim
module Bus = Wsp_events.Bus

let k_begin = 1
let k_undo = 2
let k_redo = 3
let k_commit = 4

(* A whole-page post-image journalled by the msync commit: the page's
   base address, then its [Config.msync_page / 8] words. *)
let k_page = 5

(* FoC redo logs are truncated (with data flushes) every this many
   commits, amortising the truncation-time flush the paper describes. *)
let redo_truncate_interval = 64

(* A transaction's undo entries in logging order: an address column
   and a packed old-value column (8 bytes per entry), so logging an
   entry allocates nothing once the buffer has grown. *)
type undo = {
  mutable u_addrs : int array;
  mutable u_olds : Bytes.t;
  mutable u_n : int;
}

let undo_push u addr old =
  let n = u.u_n in
  if n = Array.length u.u_addrs then begin
    let addrs = Array.make (2 * n) 0 and olds = Bytes.create (16 * n) in
    Array.blit u.u_addrs 0 addrs 0 n;
    Bytes.blit u.u_olds 0 olds 0 (8 * n);
    u.u_addrs <- addrs;
    u.u_olds <- olds
  end;
  Array.unsafe_set u.u_addrs n addr;
  Bytes.set_int64_le u.u_olds (8 * n) old;
  u.u_n <- n + 1

type tx = {
  txid : int64;
  write_set : int64 Itbl.t;
  mutable write_order : int list;  (* newest first; reversed at commit *)
  mutable read_set : int;
  undo_logged : unit Itbl.t;  (* addresses with an undo entry *)
  undo : undo;
  written_lines : unit Itbl.t;
      (* Iterated by the commit's flush, so its order is simulated
         output: an [Itbl] iterates as the polymorphic table would. *)
  mutable began_in_log : bool;  (* Begin record written (lazy) *)
}

type t = {
  nvram : Nvram.t;
  log : Rawlog.t;
  config : Config.t;
  protocol : Config.protocol;
  mutable next_txid : int64;
  mutable active : tx option;
  scratch : tx;  (* reused across transactions to avoid allocation churn *)
  mutable commits_since_truncate : int;
  unflushed : unit Itbl.t;  (* line-aligned addresses (FoC redo) *)
  m_commits : Wsp_obs.Metrics.Counter.t;
  m_aborts : Wsp_obs.Metrics.Counter.t;
}

(* Callers test [observed] first, so an unobserved transaction builds
   no event (nor sorts a commit's written lines). *)
let observed t = Bus.active (Nvram.bus t.nvram)
let emit t (ev : Event.tx) = Bus.publish (Nvram.bus t.nvram) (Event.Tx ev)

(* A commit or abort is counted whether or not anyone is subscribed. *)
let count_commit t = Wsp_obs.Metrics.Counter.incr t.m_commits
let count_abort t = Wsp_obs.Metrics.Counter.incr t.m_aborts

let log_mode t : Rawlog.mode =
  if Config.is_durable_without_wsp t.config then Rawlog.Durable
  else Rawlog.Cached

let charge_log_words t n =
  Nvram.charge t.nvram (Time.mul Config.Costs.log_word_cpu n)

let append t ~kind values =
  charge_log_words t (1 + (2 * Array.length values));
  Rawlog.append t.log ~mode:(log_mode t) ~kind values

let append_addr t ~kind addr v =
  charge_log_words t (1 + (2 * 2));
  Rawlog.append_addr t.log ~mode:(log_mode t) ~kind addr v

(* The Begin record is written lazily, just before the transaction's
   first log record: read-only transactions log nothing at all. *)
let ensure_began t tx =
  if not tx.began_in_log then begin
    tx.began_in_log <- true;
    append t ~kind:k_begin [| tx.txid |]
  end

let fresh_scratch () =
  {
    txid = 0L;
    write_set = Itbl.create 64;
    write_order = [];
    read_set = 0;
    undo_logged = Itbl.create 64;
    undo = { u_addrs = Array.make 64 0; u_olds = Bytes.create 512; u_n = 0 };
    written_lines = Itbl.create 64;
    began_in_log = false;
  }

let create ~nvram ~config ~log () =
  {
    nvram;
    log;
    config;
    protocol = Config.protocol config;
    next_txid = 1L;
    active = None;
    scratch = fresh_scratch ();
    commits_since_truncate = 0;
    unflushed = Itbl.create 256;
    m_commits = Wsp_obs.Metrics.counter (Nvram.metrics nvram) "nvheap.txn.commits";
    m_aborts = Wsp_obs.Metrics.counter (Nvram.metrics nvram) "nvheap.txn.aborts";
  }

let config t = t.config
let nvram t = t.nvram
let log t = t.log
let in_tx t = Option.is_some t.active

let line_base t addr =
  let ls = Nvram.line_size t.nvram in
  addr / ls * ls

let page_base addr = addr / Config.msync_page * Config.msync_page

let begin_tx t =
  if in_tx t then invalid_arg "Txn.begin_tx: transaction already open";
  if t.protocol = Config.Plain then ()
  else begin
    Nvram.charge t.nvram Config.Costs.tx_begin;
    let txid = t.next_txid in
    if observed t then emit t (Begin txid);
    t.next_txid <- Int64.add txid 1L;
    let tx = t.scratch in
    Itbl.clear tx.write_set;
    tx.write_order <- [];
    tx.read_set <- 0;
    Itbl.clear tx.undo_logged;
    tx.undo.u_n <- 0;
    Itbl.clear tx.written_lines;
    tx.began_in_log <- false;
    t.active <- Some { tx with txid }
  end

let active t =
  match t.active with
  | Some tx -> tx
  | None -> invalid_arg "Txn: no open transaction"

(* Redo STM and msync buffer a transaction's data writes in its write
   set until commit; the writer reads its own writes through it. Only
   the STM instruments the read (charged, and counted for validation
   when it reaches NVRAM). *)
let read_u64 t ~addr =
  match (t.active, t.protocol) with
  | Some tx, (Config.Redo_stm | Config.Page_commit) -> (
      let stm = t.protocol = Config.Redo_stm in
      if stm then Nvram.charge t.nvram Config.Costs.stm_read;
      match Itbl.find_opt tx.write_set addr with
      | Some v -> v
      | None ->
          if stm then tx.read_set <- tx.read_set + 1;
          Nvram.read_u64 t.nvram ~addr)
  | Some _, (Config.Plain | Config.Undo_log) | None, _ ->
      Nvram.read_u64 t.nvram ~addr

(* Buffered configurations take the boxed path; a plain read is the
   NVRAM's unboxed one. *)
let read_int t ~addr =
  match (t.active, t.protocol) with
  | Some _, (Config.Redo_stm | Config.Page_commit) ->
      Int64.to_int (read_u64 t ~addr)
  | Some _, (Config.Plain | Config.Undo_log) | None, _ ->
      Nvram.read_int t.nvram ~addr

let undo_log_write t tx ~addr =
  if not (Itbl.mem tx.undo_logged addr) then begin
    ensure_began t tx;
    let old = Nvram.read_u64 t.nvram ~addr in
    Itbl.add tx.undo_logged addr ();
    undo_push tx.undo addr old;
    append_addr t ~kind:k_undo addr old
  end

let write_u64 t ~addr v =
  match (t.active, t.protocol) with
  | Some tx, (Config.Redo_stm | Config.Page_commit) ->
      (* Under msync, dirty-page tracking is kernel-side bookkeeping: the
         store itself is a plain store into a tracked page, so only the
         STM charges for the write-set insertion; the msync commit pays
         for journalling whole pages. *)
      if t.protocol = Config.Redo_stm then
        Nvram.charge t.nvram Config.Costs.stm_write;
      if not (Itbl.mem tx.write_set addr) then
        tx.write_order <- addr :: tx.write_order;
      Itbl.replace tx.write_set addr v
  | Some tx, Config.Undo_log ->
      undo_log_write t tx ~addr;
      Itbl.replace tx.written_lines (line_base t addr) ();
      Nvram.write_u64 t.nvram ~addr v
  | Some _, Config.Plain | None, _ -> Nvram.write_u64 t.nvram ~addr v

let buffers_writes t = t.protocol = Config.Page_commit && in_tx t

(* Buffered writes into a block freed later in the same transaction are
   dead: drop them, so the commit neither journals nor applies stores
   into a freed block. A same-transaction re-allocation of the block
   re-buffers fresh writes afterwards. *)
let note_free t ~addr ~size =
  match t.active with
  | Some tx when t.protocol = Config.Page_commit ->
      let dead =
        Itbl.fold
          (fun a _ acc ->
            if a >= addr && a < addr + size then a :: acc else acc)
          tx.write_set []
      in
      List.iter (Itbl.remove tx.write_set) dead
  | _ -> ()

let log_header_write t ~addr =
  match (t.active, t.protocol) with
  | Some tx, (Config.Undo_log | Config.Page_commit) ->
      (* Allocator metadata is written in place by the allocator itself
         (it cannot be buffered), so even under msync it is protected by
         a durable undo record: an in-place header store evicted to
         NVRAM mid-epoch is rolled back if the epoch never seals. *)
      undo_log_write t tx ~addr;
      Itbl.replace tx.written_lines (line_base t addr) ()
  | Some _, (Config.Plain | Config.Redo_stm) | None, _ -> ()

let flush_written_lines t lines =
  Itbl.iter (fun line () -> Nvram.clflush t.nvram ~addr:line) lines;
  Nvram.fence t.nvram

(* The written-line set carried on Commit events: sorted so trace
   consumers (checker, static analyzer) see a canonical order. *)
let undo_commit_lines tx =
  Itbl.fold (fun line () acc -> line :: acc) tx.written_lines []
  |> List.sort_uniq compare

let redo_commit_lines t tx =
  List.rev_map (fun addr -> line_base t addr) tx.write_order
  |> List.sort_uniq compare

(* Failure-atomic msync commit (double-buffered page commit): journal
   the post-image of every dirty page with non-temporal fenced appends,
   seal the epoch with a commit record, and only then apply the
   buffered writes in place and flush their lines. A crash before the
   seal leaves the primary copy untouched (buffered writes never hit
   NVRAM; evicted header stores are rolled back from their undo
   records); a crash after the seal is repaired by re-applying the
   idempotent page journal. *)
let commit_msync t =
  let tx = active t in
  (* Dirty lines: buffered data writes plus undo-logged headers.
     [write_order] can hold addresses dropped by {!note_free}. *)
  List.iter
    (fun addr ->
      if Itbl.mem tx.write_set addr then
        Itbl.replace tx.written_lines (line_base t addr) ())
    tx.write_order;
  let lines = undo_commit_lines tx in
  count_commit t;
  if observed t then emit t (Commit { txid = tx.txid; written_lines = lines });
  Nvram.charge t.nvram Config.Costs.tx_commit_base;
  if lines <> [] then begin
    ensure_began t tx;
    let pages =
      List.map page_base lines |> List.sort_uniq compare
    in
    let words_per_page = Config.msync_page / 8 in
    List.iter
      (fun page ->
        let values =
          Array.init (words_per_page + 1) (fun i ->
              if i = 0 then Int64.of_int page
              else
                let addr = page + (8 * (i - 1)) in
                match Itbl.find_opt tx.write_set addr with
                | Some v -> v
                | None -> Nvram.read_u64 t.nvram ~addr)
        in
        append t ~kind:k_page values)
      pages;
    append t ~kind:k_commit [| tx.txid |];
    (* The epoch is sealed: apply the buffered writes to the primary
       copy and settle them before the journal is discarded. *)
    List.iter
      (fun addr ->
        match Itbl.find_opt tx.write_set addr with
        | Some v -> Nvram.write_u64 t.nvram ~addr v
        | None -> ())
      (List.rev tx.write_order);
    flush_written_lines t tx.written_lines;
    Rawlog.truncate t.log ~mode:(log_mode t)
  end;
  t.active <- None

let commit t =
  match t.protocol with
  | Config.Plain ->
      (* No transaction machinery and no [Commit] event, but the commit
         counter still counts it, keeping totals comparable with the
         logging configurations. *)
      count_commit t
  | Config.Undo_log ->
      let tx = active t in
      count_commit t;
      if observed t then
        emit t (Commit { txid = tx.txid; written_lines = undo_commit_lines tx });
      Nvram.charge t.nvram Config.Costs.tx_commit_base;
      if tx.began_in_log then begin
        (* Undo protocol: written data must be durable before the undo
           records protecting it can be discarded. *)
        if Config.flush_on_commit t.config then
          flush_written_lines t tx.written_lines;
        append t ~kind:k_commit [| tx.txid |];
        Rawlog.truncate t.log ~mode:(log_mode t)
      end;
      t.active <- None
  | Config.Redo_stm ->
      let tx = active t in
      count_commit t;
      if observed t then
        emit t (Commit { txid = tx.txid; written_lines = redo_commit_lines t tx });
      Nvram.charge t.nvram Config.Costs.tx_commit_base;
      Nvram.charge t.nvram
        (Time.mul Config.Costs.stm_validate tx.read_set);
      (if tx.write_order <> [] then begin
         let writes = List.rev tx.write_order in
         ensure_began t tx;
         List.iter
           (fun addr ->
             let v = Itbl.find tx.write_set addr in
             append_addr t ~kind:k_redo addr v)
           writes;
         append t ~kind:k_commit [| tx.txid |];
         (* In-place apply; the redo log already made the values durable
            (FoC), so these stores can stay cached. *)
         List.iter
           (fun addr ->
             let v = Itbl.find tx.write_set addr in
             Nvram.write_u64 t.nvram ~addr v;
             if Config.flush_on_commit t.config then
               Itbl.replace t.unflushed (line_base t addr) ())
           writes;
         t.commits_since_truncate <- t.commits_since_truncate + 1;
         if t.commits_since_truncate >= redo_truncate_interval then begin
           (* Log truncation: applied data must be flushed before the
              redo records protecting it are discarded. *)
           if Config.flush_on_commit t.config then
             flush_written_lines t t.unflushed;
           Itbl.reset t.unflushed;
           Rawlog.truncate t.log ~mode:(log_mode t);
           t.commits_since_truncate <- 0
         end
       end
       else if Config.flush_on_commit t.config then
         (* Mnemosyne's commit fences even when nothing was written:
            tearing down a durable transaction context orders the log. *)
         Nvram.fence t.nvram);
      t.active <- None
  | Config.Page_commit -> commit_msync t

let abort t =
  match t.protocol with
  | Config.Plain -> count_abort t
  | Config.Undo_log | Config.Page_commit ->
      let tx = active t in
      count_abort t;
      if observed t then emit t (Abort tx.txid);
      (* Every in-place write (all of them under undo logging, allocator
         headers under msync, whose buffered data writes are simply
         dropped) is restored from its undo entry, newest first. *)
      let u = tx.undo in
      for i = u.u_n - 1 downto 0 do
        Nvram.write_u64 t.nvram ~addr:u.u_addrs.(i)
          (Bytes.get_int64_le u.u_olds (8 * i))
      done;
      if tx.began_in_log then Rawlog.truncate t.log ~mode:(log_mode t);
      t.active <- None
  | Config.Redo_stm ->
      let tx = active t in
      count_abort t;
      if observed t then emit t (Abort tx.txid);
      t.active <- None

let with_tx t f =
  begin_tx t;
  match f () with
  | result ->
      commit t;
      result
  | exception exn ->
      if in_tx t then abort t;
      raise exn

let on_crash t =
  (* The process died with the power: any open transaction and all
     volatile bookkeeping evaporate. The log decides what recovery
     does about it. *)
  t.active <- None;
  Itbl.reset t.unflushed;
  t.commits_since_truncate <- 0

let recover t =
  if in_tx t then invalid_arg "Txn.recover: transaction open";
  let records = Rawlog.scan t.log in
  (* Undo logs and the msync journal hold at most one transaction
     (commit truncates), so one commit record means it was durable. *)
  let sealed = List.exists (fun (kind, _) -> kind = k_commit) records in
  (match (t.protocol, sealed) with
   | Config.Plain, _ | Config.Undo_log, true -> ()
   | (Config.Undo_log | Config.Page_commit), false ->
       (* Unsealed: roll the in-place writes back from their undo
          records, newest first. (Msync's buffered data writes never
          reached NVRAM; only evicted header stores need it.) *)
       List.rev records
       |> List.iter (fun (kind, values) ->
              if kind = k_undo then
                match values with
                | [| addr; old |] ->
                    Nvram.write_u64 t.nvram ~addr:(Int64.to_int addr) old
                | _ -> ())
   | Config.Page_commit, true ->
       (* Sealed: re-apply the page journal, which lands the primary
          copy exactly on the committed state. *)
       List.iter
         (fun (kind, values) ->
           if kind = k_page && Array.length values >= 1 then begin
             let page = Int64.to_int values.(0) in
             for i = 1 to Array.length values - 1 do
               Nvram.write_u64 t.nvram ~addr:(page + (8 * (i - 1))) values.(i)
             done
           end)
         records
   | Config.Redo_stm, _ ->
       (* Replay redo records of committed transactions in log order. *)
       let committed_txids = Hashtbl.create 16 in
       List.iter
         (fun (kind, values) ->
           if kind = k_commit then
             match values with
             | [| txid |] -> Hashtbl.replace committed_txids txid ()
             | _ -> ())
         records;
       let current = ref None in
       List.iter
         (fun (kind, values) ->
           if kind = k_begin then
             match values with
             | [| txid |] -> current := Some txid
             | _ -> ()
           else if kind = k_redo then
             match (!current, values) with
             | Some txid, [| addr; v |] when Hashtbl.mem committed_txids txid ->
                 Nvram.write_u64 t.nvram ~addr:(Int64.to_int addr) v
             | _ -> ())
         records);
  Itbl.reset t.unflushed;
  t.commits_since_truncate <- 0;
  Rawlog.truncate t.log ~mode:Rawlog.Durable

let quiesce t =
  if in_tx t then invalid_arg "Txn.quiesce: transaction open";
  if Rawlog.used_words t.log > 0 then begin
    (* Redo (FoC) logs may protect in-place data that is not yet
       settled; flush it before the records covering it are discarded.
       Log records embed absolute addresses, so a quiesced (empty) log
       is also what makes a heap image relocatable. *)
    if Config.flush_on_commit t.config then flush_written_lines t t.unflushed;
    Itbl.reset t.unflushed;
    t.commits_since_truncate <- 0;
    Rawlog.truncate t.log ~mode:(log_mode t)
  end

let attach ~nvram ~config ~log () =
  let t = create ~nvram ~config ~log () in
  recover t;
  t
