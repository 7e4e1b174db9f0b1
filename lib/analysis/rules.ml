open Wsp_nvheap
module Trace = Wsp_check.Trace
module Hierarchy = Wsp_machine.Hierarchy
module IntMap = Map.Make (Int)

type machine = {
  config : Config.t;
  fences_broken : bool;
  wsp_save_broken : bool;
  hierarchy : Hierarchy.config;
  platform : Wsp_machine.Platform.t;
  psu : Wsp_power.Psu.spec;
  busy : bool;
}

let default_machine ~config () =
  {
    config;
    fences_broken = false;
    wsp_save_broken = false;
    hierarchy =
      Wsp_machine.Platform.core_hierarchy Wsp_machine.Platform.intel_c5528;
    platform = Wsp_machine.Platform.intel_c5528;
    psu = Wsp_power.Psu.atx_1050;
    busy = false;
  }

type severity = Error | Advisory

let severity_name = function Error -> "error" | Advisory -> "advisory"

(* R1–R5 are judged by this engine over a single trace; R6–R9 are the
   concurrent rules {!Crules} judges over domain-tagged multi-trace
   streams. They share one rule id space so reports, [--expect]
   allowlists and JSON rendering treat both families uniformly. *)
type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10

let rule_name = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"
  | R10 -> "R10"

let rule_slug = function
  | R1 -> "unflushed-commit"
  | R2 -> "unsealed-commit-record"
  | R3 -> "redundant-flush-fence"
  | R4 -> "heap-lifetime"
  | R5 -> "fof-reliance-gap"
  | R6 -> "durability-race"
  | R7 -> "ack-before-persist"
  | R8 -> "handoff-order-violation"
  | R9 -> "unpublished-fence-reliance"
  | R10 -> "unsettled-page-commit"

let rule_of_name s =
  match String.uppercase_ascii (String.trim s) with
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "R8" -> Some R8
  | "R9" -> Some R9
  | "R10" -> Some R10
  | _ -> None

type diagnostic = {
  rule : rule;
  severity : severity;
  message : string;
  line : int option;
  txid : int64 option;
  witness : int list;
  wasted_ns : float option;
}

type stats = {
  events : int;
  mem_events : int;
  txns : int;
  epochs : int;
  max_dirty_bytes : int;
}

type result = { diagnostics : diagnostic list; stats : stats }

(* --- analysis state ------------------------------------------------- *)

type st = {
  m : machine;
  pdag : Pdag.t;
  alloc_base : int;
  alloc_limit : int;
  mutable diags : diagnostic list;  (* accumulated newest-first *)
  mutable mem_events : int;
  mutable txns : int;
  (* transaction / log tracking *)
  mutable cur_tx : int64 option;
  mutable undo_payload : (int64 * int list) option;
      (* Commit-event written_lines awaiting their k_commit append *)
  mutable msync_payload : (int64 * int list) option;
      (* Commit-event written_lines awaiting the page-journal truncation *)
  redo_acc : (int, int64) Hashtbl.t;
      (* line -> last committing txid since the last truncation *)
  mutable open_commit : (int * int64 option) option;
      (* k_commit append idx whose NT words are not yet drained *)
  mutable r2_nt_last : int;
  (* heap lifetime *)
  mutable allocated : int IntMap.t;  (* payload addr -> size *)
  mutable freed : (int * int) IntMap.t;  (* addr -> size, free event idx *)
  pending_headers : (int, unit) Hashtbl.t;
  mutable in_rollback : bool;
  mutable tx_heap_journal : Event.heap list;  (* newest first *)
}

let diag ?line ?txid ?wasted_ns st rule severity witness fmt =
  Fmt.kstr
    (fun message ->
      let d = { rule; severity; message; line; txid; witness; wasted_ns } in
      st.diags <- d :: st.diags)
    fmt

let flush_on_commit st = Config.flush_on_commit st.m.config
let durable_without_wsp st = Config.is_durable_without_wsp st.m.config
let protocol st = Config.protocol st.m.config

(* Undo logging and msync roll the in-place writes of an aborted
   transaction (allocator headers included) back from undo records;
   redo STM just drops its write set. *)
let undoes_in_place st =
  match protocol st with
  | Config.Undo_log | Config.Page_commit -> true
  | Config.Plain | Config.Redo_stm -> false

(* --- R1: written lines persist-ordered before the commit record ----- *)

(* One diagnostic per commit: the first offending line anchors the
   witness; the message carries the total count. [lines] holds
   line-aligned byte addresses (the {!Event.Commit} payload), converted
   to cache-line numbers here. *)
let check_commit_lines ?(rule = R1) st ~commit_idx ~txid ~what lines =
  let lines = List.map (Pdag.line_of st.pdag) lines in
  let offending =
    List.filter_map
      (fun line ->
        match Pdag.status st.pdag ~line with
        | Pdag.Never_stored | Pdag.Persist_ordered _ -> None
        | Pdag.Dirty { store } -> Some (line, store, None)
        | Pdag.Flushed { store; flush } -> Some (line, store, Some flush))
      lines
  in
  match offending with
  | [] -> ()
  | (line, store, flush) :: _ ->
      let witness =
        match flush with
        | None -> [ store; commit_idx ]
        | Some f -> [ store; f; commit_idx ]
      in
      let how =
        match flush with
        | None -> "never flushed"
        | Some _ -> "flushed but not fenced"
      in
      diag st ~line ?txid rule Error witness
        "%d of %d written line(s) not persist-ordered before %s (line %d %s)"
        (List.length offending) (List.length lines) what line how

(* --- R2: the commit record's NT words must drain ------------------- *)

let r2_trigger st ~idx ~because =
  match st.open_commit with
  | None -> ()
  | Some (append_idx, txid) ->
      st.open_commit <- None;
      let witness =
        List.sort_uniq compare
          (append_idx :: (if st.r2_nt_last >= 0 then [ st.r2_nt_last ] else [])
          @ (if idx >= 0 then [ idx ] else []))
      in
      diag st ?txid R2 Error witness
        "commit record not fenced before %s: its non-temporal words can \
         still be lost"
        because

(* --- R4: heap lifetime ---------------------------------------------- *)

let in_heap st addr = addr >= st.alloc_base && addr < st.alloc_limit

let covering_block map addr len =
  match IntMap.find_last_opt (fun a -> a <= addr) map with
  | Some (a, size) when addr + len <= a + size -> Some (a, size)
  | _ -> None

let check_heap_store st ~idx ~addr ~len =
  if
    in_heap st addr && not st.in_rollback
    && not (len = 8 && Hashtbl.mem st.pending_headers addr)
  then
    match covering_block st.allocated addr len with
    | Some _ -> ()
    | None -> (
        let line = Pdag.line_of st.pdag addr in
        match IntMap.find_last_opt (fun a -> a <= addr) st.freed with
        | Some (a, (size, free_idx)) when addr + len <= a + size ->
            diag st ~line ?txid:st.cur_tx R4 Error [ free_idx; idx ]
              "store to freed heap block (addr %d, freed block [%d,+%d))" addr
              a size
        | _ ->
            diag st ~line ?txid:st.cur_tx R4 Error [ idx ]
              "store to unallocated heap address %d" addr)

let heap_event st ~idx ev =
  (match ev with
  | Event.Alloc { addr; size } ->
      st.allocated <- IntMap.add addr size st.allocated;
      (* Reused addresses are live again. *)
      st.freed <- IntMap.remove addr st.freed
  | Event.Free { addr; size } ->
      st.allocated <- IntMap.remove addr st.allocated;
      st.freed <- IntMap.add addr (size, idx) st.freed
  | Event.Header_write { addr } -> Hashtbl.replace st.pending_headers addr ());
  (* Journal payload-lifetime changes for abort reversal. *)
  match ev with
  | (Event.Alloc _ | Event.Free _)
    when undoes_in_place st && Option.is_some st.cur_tx ->
      st.tx_heap_journal <- ev :: st.tx_heap_journal
  | Event.Alloc _ | Event.Free _ | Event.Header_write _ -> ()

let revert_heap_journal st =
  List.iter
    (function
      | Event.Alloc { addr; _ } -> st.allocated <- IntMap.remove addr st.allocated
      | Event.Free { addr; size } ->
          st.allocated <- IntMap.add addr size st.allocated;
          st.freed <- IntMap.remove addr st.freed
      | Event.Header_write _ -> ())
    st.tx_heap_journal;
  st.tx_heap_journal <- []

(* --- the walk -------------------------------------------------------- *)

let leave_rollback st = st.in_rollback <- false

let step st i (ev : Event.t) =
  match ev with
  | Event.Mem mem -> (
      st.mem_events <- st.mem_events + 1;
      match mem with
      | Event.Store { addr; len } ->
          r2_trigger st ~idx:i ~because:"a later store";
          check_heap_store st ~idx:i ~addr ~len;
          Pdag.store st.pdag ~idx:i ~addr ~len
      | Event.Store_nt { addr } ->
          leave_rollback st;
          Pdag.store_nt st.pdag ~idx:i ~addr;
          if st.open_commit <> None then st.r2_nt_last <- i
      | Event.Fence -> (
          leave_rollback st;
          match Pdag.fence st.pdag ~idx:i with
          | Pdag.Drained _ -> st.open_commit <- None
          | Pdag.Fence_broken -> ()
          | Pdag.Fence_redundant ->
              if not st.m.fences_broken then
                diag st R3 Advisory [ i ]
                  ~wasted_ns:
                    (Wsp_sim.Time.to_ns st.m.hierarchy.Hierarchy.fence_latency)
                  "redundant fence: no unfenced flush and no pending \
                   non-temporal data")
      | Event.Clflush { addr } ->
          leave_rollback st;
          let r = Pdag.flush_line st.pdag ~idx:i ~addr in
          if r.Pdag.redundant && not st.m.fences_broken then
            diag st R3 Advisory [ i ]
              ~line:(Pdag.line_of st.pdag addr)
              ~wasted_ns:
                (Wsp_sim.Time.to_ns st.m.hierarchy.Hierarchy.clflush_issue)
              "redundant clflush: line %d has no unflushed store"
              (Pdag.line_of st.pdag addr)
      | Event.Flush_range { addr; len } ->
          leave_rollback st;
          let r = Pdag.flush_range st.pdag ~idx:i ~addr ~len in
          if r.Pdag.redundant && not st.m.fences_broken then begin
            let n_lines =
              if len <= 0 then 1
              else
                Pdag.line_of st.pdag (addr + len - 1)
                - Pdag.line_of st.pdag addr + 1
            in
            diag st R3 Advisory [ i ]
              ~wasted_ns:
                (Wsp_sim.Time.to_ns
                   (Wsp_sim.Time.mul st.m.hierarchy.Hierarchy.clflush_issue
                      n_lines))
              "redundant flush of %d-byte range: no covered line dirty" len
          end
      | Event.Wbinvd ->
          leave_rollback st;
          st.open_commit <- None;
          Pdag.wbinvd st.pdag ~idx:i)
  | Event.Wb { line; explicit } ->
      Pdag.writeback st.pdag ~idx:i ~line ~explicit
  | Event.Heap ev -> heap_event st ~idx:i ev
  | Event.Tx tx -> (
      leave_rollback st;
      match tx with
      | Event.Begin txid ->
          st.cur_tx <- Some txid;
          st.tx_heap_journal <- []
      | Event.Commit { txid; written_lines } -> (
          st.txns <- st.txns + 1;
          st.tx_heap_journal <- [];
          match protocol st with
          | Config.Page_commit ->
              (* Settled at the page-journal truncation closing this
                 commit (R10) — the in-place apply happens after the
                 seal, so checking at the seal would be too early. *)
              st.msync_payload <- Some (txid, written_lines)
          | Config.Undo_log when flush_on_commit st ->
              st.undo_payload <- Some (txid, written_lines)
          | Config.Redo_stm when flush_on_commit st ->
              List.iter
                (fun line -> Hashtbl.replace st.redo_acc line txid)
                written_lines
          | Config.Undo_log | Config.Redo_stm | Config.Plain -> ())
      | Event.Abort _ ->
          if undoes_in_place st then begin
            revert_heap_journal st;
            st.in_rollback <- true
          end;
          st.tx_heap_journal <- [])
  | Event.Log log -> (
      match log with
      | Event.Append { kind; n_values = _ } ->
          r2_trigger st ~idx:i ~because:"a later log append";
          leave_rollback st;
          if kind = Txn.k_commit && durable_without_wsp st then begin
            (match st.undo_payload with
            | Some (txid, lines) ->
                st.undo_payload <- None;
                check_commit_lines st ~commit_idx:i ~txid:(Some txid)
                  ~what:"its commit record" lines
            | None -> ());
            (* The record's own NT words start draining obligations. *)
            st.open_commit <- Some (i, st.cur_tx);
            st.r2_nt_last <- -1
          end
      | Event.Truncate ->
          r2_trigger st ~idx:i ~because:"log truncation";
          leave_rollback st;
          match protocol st with
          | Config.Page_commit -> (
              (* The truncation discards the page journal: every in-place
                 line it protected must have settled by now (R10). *)
              match st.msync_payload with
              | Some (txid, lines) ->
                  st.msync_payload <- None;
                  check_commit_lines st ~rule:R10 ~commit_idx:i
                    ~txid:(Some txid) ~what:"its page-journal truncation" lines
              | None -> ())
          | Config.Redo_stm when flush_on_commit st ->
              let lines =
                Hashtbl.fold (fun line _ acc -> line :: acc) st.redo_acc []
                |> List.sort compare
              in
              Hashtbl.reset st.redo_acc;
              check_commit_lines st ~commit_idx:i ~txid:st.cur_tx
                ~what:"redo-log truncation" lines
          | Config.Undo_log | Config.Redo_stm | Config.Plain -> ())

(* --- R5: flush-on-fail reliance ------------------------------------- *)

let check_fof_budget st =
  if not (durable_without_wsp st) then begin
    let footprint = Pdag.max_footprint_bytes st.pdag in
    if st.m.wsp_save_broken && footprint > 0 then
      diag st R5 Error
        (if Pdag.first_store st.pdag >= 0 then [ Pdag.first_store st.pdag ]
         else [])
        "flush-on-fail reliance with a broken WSP save: %d dirty bytes would \
         never reach the NVDIMM image"
        footprint
    else begin
      let b =
        Wsp_core.System.save_budget ~platform:st.m.platform ~psu:st.m.psu
          ~busy:st.m.busy ~dirty_bytes:footprint ()
      in
      if not b.Wsp_core.System.fits then
        diag st R5 Error
          (if Pdag.first_store st.pdag >= 0 then [ Pdag.first_store st.pdag ]
           else [])
          "residual-energy budget blown: save path needs %s (detection %s + \
           host save %s at %d dirty bytes) but the worst-case %s window is %s"
          (Wsp_sim.Time.to_string b.Wsp_core.System.total)
          (Wsp_sim.Time.to_string b.Wsp_core.System.detection)
          (Wsp_sim.Time.to_string b.Wsp_core.System.host_save)
          footprint st.m.psu.Wsp_power.Psu.name
          (Wsp_sim.Time.to_string b.Wsp_core.System.window)
    end
  end

(* --- entry points ---------------------------------------------------- *)

let severity_rank = function Error -> 0 | Advisory -> 1
let rule_rank = function
  | R1 -> 1
  | R2 -> 2
  | R3 -> 3
  | R4 -> 4
  | R5 -> 5
  | R6 -> 6
  | R7 -> 7
  | R8 -> 8
  | R9 -> 9
  | R10 -> 10

let diag_key d =
  ( severity_rank d.severity,
    (match d.witness with [] -> max_int | i :: _ -> i),
    rule_rank d.rule,
    Option.value d.line ~default:(-1),
    d.message )

let compare_diagnostics a b = compare (diag_key a) (diag_key b)

type stream = { st : st; mutable idx : int }

let stream_pdag s = s.st.pdag

let stream_create m ~line_size ~alloc_base ~alloc_limit =
  let st =
    {
      m;
      pdag = Pdag.create ~fences_broken:m.fences_broken ~line_size;
      alloc_base;
      alloc_limit;
      diags = [];
      mem_events = 0;
      txns = 0;
      cur_tx = None;
      undo_payload = None;
      msync_payload = None;
      redo_acc = Hashtbl.create 256;
      open_commit = None;
      r2_nt_last = -1;
      allocated = IntMap.empty;
      freed = IntMap.empty;
      pending_headers = Hashtbl.create 64;
      in_rollback = false;
      tx_heap_journal = [];
    }
  in
  { st; idx = 0 }

let stream_step s ev =
  step s.st s.idx ev;
  s.idx <- s.idx + 1

let stream_finish s =
  let st = s.st in
  r2_trigger st ~idx:(-1) ~because:"the end of the trace";
  (* Under a backend durable without WSP every non-temporal store is a
     log record written for durability; data still pending in the
     write-combining buffers at the end of the trace was never drained
     by a working fence and dies with the power. Catches journalled
     (non-transactional) protocols R2's commit-record tracking cannot
     see. *)
  (if durable_without_wsp st && Pdag.nt_pending st.pdag > 0 then
     let witness =
       if Pdag.nt_last st.pdag >= 0 then [ Pdag.nt_last st.pdag ] else []
     in
     diag st R2 Error witness
       "%d non-temporal log word(s) never drained by a working fence before \
        the end of the trace"
       (Pdag.nt_pending st.pdag));
  check_fof_budget st;
  let diagnostics =
    List.sort (fun a b -> compare (diag_key a) (diag_key b)) st.diags
  in
  {
    diagnostics;
    stats =
      {
        events = s.idx;
        mem_events = st.mem_events;
        txns = st.txns;
        epochs = Pdag.epoch st.pdag;
        max_dirty_bytes = Pdag.max_footprint_bytes st.pdag;
      };
  }

let analyze m (recording : Trace.recording) =
  let s =
    stream_create m ~line_size:recording.Trace.line_size
      ~alloc_base:recording.Trace.alloc_base
      ~alloc_limit:recording.Trace.alloc_limit
  in
  Array.iter (stream_step s) recording.Trace.events;
  stream_finish s
