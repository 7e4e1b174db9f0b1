(* [Wsp_sim] exports its own [Trace]; alias ours before the open. *)
module Ptrace = Trace
module Json = Wsp_obs.Json
open Wsp_sim
open Wsp_nvheap
open Wsp_store

(* --- workloads ----------------------------------------------------- *)

type kind = Btree | Hash_table | Skiplist | Block_kv

let all_kinds = [ Btree; Hash_table; Skiplist; Block_kv ]

let kind_name = function
  | Btree -> "btree"
  | Hash_table -> "hash_table"
  | Skiplist -> "skiplist"
  | Block_kv -> "block_kv"

let kind_of_name s =
  List.find_opt (fun k -> kind_name k = s) all_kinds

type op = Insert of int64 * int64 | Delete of int64

type script = op list list

let gen_script ~rng ~txns ~ops_per_txn ~keyspace ~setup_entries =
  let key () = Int64.of_int (1 + Rng.int rng keyspace) in
  let op () =
    if Rng.int rng 4 = 0 then Delete (key ())
    else Insert (key (), Rng.bits64 rng)
  in
  let setup =
    List.init setup_entries (fun _ -> [ Insert (key (), Rng.bits64 rng) ])
  in
  let main =
    List.init txns (fun _ -> List.init (1 + Rng.int rng ops_per_txn) (fun _ -> op ()))
  in
  setup @ main

let pp_op ppf = function
  | Insert (k, v) -> Fmt.pf ppf "insert %Ld %Ld" k v
  | Delete k -> Fmt.pf ppf "delete %Ld" k

let pp_script ppf script =
  List.iteri
    (fun i ops ->
      Fmt.pf ppf "txn %d: %a@." i (Fmt.list ~sep:Fmt.semi pp_op) ops)
    script

(* --- fault injection ----------------------------------------------- *)

type fault = No_fault | Broken_fences | Broken_wsp_save

let fault_name = function
  | No_fault -> "none"
  | Broken_fences -> "broken-fences"
  | Broken_wsp_save -> "broken-wsp-save"

let apply_fault nvram = function
  | Broken_fences -> Nvram.set_fault nvram Nvram.Broken_fence
  | No_fault | Broken_wsp_save -> ()

(* --- environments --------------------------------------------------- *)

(* 1 MiB of NVRAM per crash point: heap in the low half, and for
   Block_kv a block device in the high half. Small enough to rebuild
   thousands of times, large enough that the workloads never fill it. *)
let region_bytes = Units.Size.to_bytes (Units.Size.mib 1)
let log_size = Units.Size.kib 128
let buckets = 256
let skiplist_seed = 7

let heap_len = function
  | Block_kv -> region_bytes / 2
  | Btree | Hash_table | Skiplist -> region_bytes
let device_base = region_bytes / 2
let device_len = region_bytes / 2

type env = { nvram : Nvram.t; heap : Pheap.t; kv : Kv_view.t }

let make_env ~kind ~config ~fault () =
  let nvram = Nvram.create ~size:(Units.Size.mib 1) () in
  apply_fault nvram fault;
  let heap =
    Pheap.create_in ~config ~log_size ~nvram ~base:0 ~len:(heap_len kind) ()
  in
  let kv =
    match kind with
    | Btree -> Kv_view.btree (Wsp_store.Btree.create heap)
    | Hash_table -> Kv_view.hash_table (Hash_table.create ~buckets heap)
    | Skiplist ->
        Kv_view.skiplist (Wsp_store.Skiplist.create ~seed:skiplist_seed heap)
    | Block_kv ->
        let device =
          Blockstore.create nvram ~base:device_base ~len:device_len ()
        in
        Kv_view.block_kv (Block_kv.create ~buckets ~heap ~device ())
  in
  (* Formatting is mkfs, not an operation under test: force it durable
     (wbinvd drains even under Broken_fences) so every crash point falls
     on the workload itself, against a recoverable base image. *)
  Nvram.wbinvd nvram;
  { nvram; heap; kv }

(* --- execution with committed/pending accounting -------------------- *)

type model = (int64, int64) Hashtbl.t

let apply_model (m : model) = function
  | Insert (k, v) -> Hashtbl.replace m k v
  | Delete k -> Hashtbl.remove m k

let model_list (m : model) =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [] |> List.sort compare

type run_state = {
  committed : model;
  mutable pending : op list;  (* current atomic unit, newest last *)
  mutable in_commit : bool;  (* inside the commit/journal protocol *)
  mutable clog_rev : op list;
      (* Journal of every committed op, newest first: the incremental
         engine replays a prefix of it to rebuild the committed model
         at any crash point without copying the hashtable per point. *)
  mutable clog_n : int;
}

let fresh_state () =
  {
    committed = Hashtbl.create 64;
    pending = [];
    in_commit = false;
    clog_rev = [];
    clog_n = 0;
  }

let commit_op st op =
  apply_model st.committed op;
  st.clog_rev <- op :: st.clog_rev;
  st.clog_n <- st.clog_n + 1

let apply_op (kv : Kv_view.t) = function
  | Insert (k, v) -> kv.insert ~key:k ~value:v
  | Delete k -> ignore (kv.delete k)

(* A crash during the commit protocol may legitimately recover to either
   side of the transaction, so [pending]/[in_commit] are left frozen at
   the instant the power failure escapes. *)
let run_script env st ~kind script =
  match kind with
  | Block_kv ->
      (* No transactions: each operation is its own journalled atom. *)
      List.iter
        (fun ops ->
          List.iter
            (fun op ->
              st.pending <- [ op ];
              st.in_commit <- true;
              apply_op env.kv op;
              commit_op st op;
              st.pending <- [];
              st.in_commit <- false)
            ops)
        script
  | Btree | Hash_table | Skiplist ->
      List.iter
        (fun ops ->
          Pheap.begin_tx env.heap;
          List.iter
            (fun op ->
              apply_op env.kv op;
              st.pending <- st.pending @ [ op ])
            ops;
          st.in_commit <- true;
          Pheap.commit env.heap;
          List.iter (commit_op st) st.pending;
          st.pending <- [];
          st.in_commit <- false)
        script

(* --- the golden run -------------------------------------------------- *)

(* The incremental engine's per-crash-point view of the software state:
   immutable values sampled at the instant the memory event was
   announced — exactly when the full-replay engine's injected crash
   would freeze the machine. *)
type mark_info = {
  mi_pending : op list;
  mi_commit : bool;
  mi_clog_n : int;  (* committed-journal prefix length at this mark *)
}

(* ONE complete execution, observed three ways at once: the annotated
   event trace (crash-point descriptions), the replayable mutation log
   with its copy-on-write waypoints, and the committed-op journal. *)
type golden = {
  g_kind : kind;
  g_config : Config.t;
  g_fault : fault;
  trace : Ptrace.t;
  rp : mark_info Replay.t;
  clog : op array;  (* every committed op, in commit order *)
}

let record_golden ~stride ~kind ~config ~fault script =
  let env = make_env ~kind ~config ~fault () in
  let st = fresh_state () in
  let tr = Ptrace.create () in
  Ptrace.instrument tr env.heap;
  let rp =
    Fun.protect
      ~finally:(fun () -> Ptrace.detach tr)
      (fun () ->
        Replay.record ~nvram:env.nvram ~stride
          ~info:(fun () ->
            {
              mi_pending = st.pending;
              mi_commit = st.in_commit;
              mi_clog_n = st.clog_n;
            })
          (fun () -> run_script env st ~kind script))
  in
  assert (Ptrace.mem_length tr = Replay.marks rp);
  {
    g_kind = kind;
    g_config = config;
    g_fault = fault;
    trace = tr;
    rp;
    clog = Array.of_list (List.rev st.clog_rev);
  }

let golden_replay g = g.rp

(* The workload shape every entry point shares; only [check] lets a
   caller choose another. *)
let default_txns = 32
let default_ops_per_txn = 3
let default_keyspace = 40
let default_setup_entries = 16

(* One complete execution of the deterministic seeded workload with
   caller-chosen observation — the backbone shared by trace recording
   and the streaming analyzer. *)
let run_workload ?(txns = default_txns) ?(fault = No_fault) ~kind ~config ~seed
    ~observe ~finish () =
  let rng = Rng.create ~seed in
  let script =
    gen_script ~rng ~txns ~ops_per_txn:default_ops_per_txn
      ~keyspace:default_keyspace ~setup_entries:default_setup_entries
  in
  let env = make_env ~kind ~config ~fault () in
  observe env.heap;
  run_script env (fresh_state ()) ~kind script;
  finish env.heap

(* The static analyzer's batch entry point: the same deterministic
   seeded workload [check] explores, recorded once with no crash
   enumeration, bundled with the heap geometry. *)
let record_workload ?txns ?fault ~kind ~config ~seed () =
  let tr = Ptrace.create () in
  let out = ref None in
  Fun.protect
    ~finally:(fun () -> Ptrace.detach tr)
    (fun () ->
      run_workload ?txns ?fault ~kind ~config ~seed
        ~observe:(fun heap -> Ptrace.instrument tr heap)
        ~finish:(fun heap -> out := Some (Ptrace.snapshot tr heap))
        ());
  Option.get !out

(* --- recovery and oracles ------------------------------------------- *)

let recover_nvram ~kind ~config nvram =
  match kind with
  | Block_kv ->
      (* Model-1 recovery: the in-memory representation is gone; reformat
         the scratch heap and rebuild the table from the journal. *)
      let heap =
        Pheap.create_in ~config:Config.fof ~log_size ~nvram ~base:0
          ~len:(heap_len kind) ()
      in
      let device = Blockstore.attach nvram ~base:device_base ~len:device_len () in
      (Kv_view.block_kv (Block_kv.recover ~buckets ~heap ~device ()), heap)
  | (Btree | Hash_table | Skiplist) as kind ->
      let heap =
        Pheap.attach_in ~config ~log_size ~nvram ~base:0 ~len:(heap_len kind) ()
      in
      let kv =
        match kind with
        | Btree -> Kv_view.btree (Wsp_store.Btree.attach heap)
        | Hash_table -> Kv_view.hash_table (Hash_table.attach heap)
        | Skiplist ->
            Kv_view.skiplist (Wsp_store.Skiplist.attach ~seed:skiplist_seed heap)
        | Block_kv -> assert false
      in
      (kv, heap)

let pp_entries ppf l =
  Fmt.pf ppf "{%a}"
    (Fmt.list ~sep:Fmt.comma (fun ppf (k, v) -> Fmt.pf ppf "%Ld:%Ld" k v))
    l

let durability_oracle st (kv : Kv_view.t) =
  let actual = List.sort compare (kv.to_list ()) in
  let committed = model_list st.committed in
  if actual = committed then None
  else begin
    (* Mid-commit atomicity allowance: the in-flight atom may be fully
       present instead. *)
    let with_pending =
      let m = Hashtbl.copy st.committed in
      List.iter (apply_model m) st.pending;
      model_list m
    in
    if st.in_commit && actual = with_pending then None
    else
      Some
        (Fmt.str
           "durability: recovered %a but committed state is %a%s" pp_entries
           actual pp_entries committed
           (if st.in_commit then
              Fmt.str " (mid-commit alternative %a)" pp_entries with_pending
            else ""))
  end

let structural_oracles (kv : Kv_view.t) heap =
  match kv.check () with
  | Error e -> Some ("structural invariant: " ^ e)
  | Ok () -> (
      match Alloc.check_invariants (Pheap.allocator heap) with
      | Error e -> Some ("allocator: " ^ e)
      | Ok () -> None)

(* Recovery runs on a fresh NVRAM over the crash state's backing. Its
   verdict is cache-geometry independent — every oracle reads the
   volatile view (overlay ∪ backing), which is the same under any cache
   shape. The judge recovers on a single small cache level: each
   recovery access scans one set instead of up to three, and the
   judge's hits and misses are part of what [check --metrics] reports,
   so this geometry is pinned by that output. The workload execution
   envs keep the full platform model, whose eviction pattern is the
   thing under test. *)
let judge_hierarchy =
  let platform =
    Wsp_machine.Platform.core_hierarchy Wsp_machine.Platform.intel_c5528
  in
  {
    platform with
    Wsp_machine.Hierarchy.levels =
      [
        {
          Wsp_machine.Cache.name = "judge-L1";
          size = Units.Size.kib 64;
          line_size = Wsp_machine.Hierarchy.config_line_size platform;
          associativity = 8;
          hit_latency = Time.ns 2.0;
        };
      ];
  }

(* Cap on cached accesses for one recovery + oracle pass. Legitimate
   work on the 1 MiB judge region (log replay, allocator header scan,
   full structural walks) stays well under 10^5 accesses; a walk that
   runs to this bound is following a cycle of torn pointers and would
   never return. Exhaustion is a verdict, not a checker crash. *)
let recovery_step_budget = 1_000_000

let recovery_diverged_message =
  Fmt.str
    "recovery diverged: step budget of %d exhausted (recovery or oracle \
     walked a cyclic corrupt structure)"
    recovery_step_budget

(* The volatile contents of every line the overlay or the WC queue
   touches — the only lines where the volatile view can differ from
   backing — composed as [Nvram.volatile_image] composes them: overlay
   over backing, then WC words oldest first, in one pass over each. *)
let volatile_lines (state : Replay.state) =
  let ls = state.line_size in
  let view =
    Hashtbl.create (Hashtbl.length state.overlay + Queue.length state.wc)
  in
  Hashtbl.iter
    (fun line data -> Hashtbl.add view line (Bytes.copy data))
    state.overlay;
  let word = Bytes.create 8 in
  Queue.iter
    (fun (addr, v) ->
      Bytes.set_int64_le word 0 v;
      for line = addr / ls to (addr + 7) / ls do
        let buf =
          match Hashtbl.find_opt view line with
          | Some b -> b
          | None ->
              let b = Bytes.sub state.backing (line * ls) ls in
              Hashtbl.add view line b;
              b
        in
        let lo = max addr (line * ls) and hi = min (addr + 8) ((line + 1) * ls) in
        Bytes.blit word (lo - addr) buf (lo - (line * ls)) (hi - lo)
      done)
    state.wc;
  view

(* Bytes where what the WSP save leaves differs from the pre-failure
   volatile contents. Under [No_fault] and [Broken_fences] the save's
   [wbinvd] writes back every dirty line and drains the WC queue (a
   broken fence never stops it), which composes exactly the view
   [volatile_lines] composes onto backing: the saved image equals the
   pre-failure contents by construction. Only a skipped save
   ([Broken_wsp_save]) leaves backing alone, and outside the lines
   [volatile_lines] covers the view equals backing, so only those lines
   are compared. *)
let image_diff ~fault (state : Replay.state) =
  match fault with
  | No_fault | Broken_fences -> 0
  | Broken_wsp_save ->
      let ls = state.line_size in
      Hashtbl.fold
        (fun line img acc ->
          let diff = ref acc in
          for i = 0 to ls - 1 do
            if Bytes.get state.backing ((line * ls) + i) <> Bytes.get img i then incr diff
          done;
          !diff)
        (volatile_lines state) 0

(* The verdict for one crash state, shared verbatim by both engines so
   their reports cannot diverge. The state is judged in place, in
   O(lines touched): flush-on-commit recovers on [state.backing] itself
   through {!Replay.with_nvram}, which puts back every line recovery
   changed; flush-on-fail compares only the lines the overlay or the WC
   queue touch. *)
let judge_state ~kind ~config ~fault ~st (state : Replay.state) =
  if Config.is_durable_without_wsp config then begin
    (* Flush-on-commit: power dies with no WSP save; the software
       log must carry recovery on the drained bytes alone. *)
    Replay.with_nvram ~hierarchy:judge_hierarchy state @@ fun nvram ->
    apply_fault nvram fault;
    Nvram.set_step_budget nvram (Some recovery_step_budget);
    match recover_nvram ~kind ~config nvram with
    | exception Nvram.Budget_exhausted -> Some recovery_diverged_message
    | exception e ->
        Some
          (Fmt.str "recovery raised %s (torn state not tolerated)"
             (Printexc.to_string e))
    | kv, heap -> (
        (* Oracles walk the recovered structure; on states recovery
           wrongly accepted, that walk itself can explode (a cycle of
           torn pointers overflows the stack, or a pointer loop walks
           forever until the step budget trips). That is a verdict, not
           a checker crash. *)
        match
          match durability_oracle st kv with
          | Some m -> Some m
          | None -> structural_oracles kv heap
        with
        | verdict -> verdict
        | exception Nvram.Budget_exhausted -> Some recovery_diverged_message
        | exception e ->
            Some
              (Fmt.str "oracle raised %s (recovered state unreadable)"
                 (Printexc.to_string e)))
  end
  else
    (* Flush-on-fail: the WSP save flushes every cache on the residual
       window, then execution resumes exactly where it stopped. The
       whole obligation is image completeness. *)
    match image_diff ~fault state with
    | 0 -> None
    | diff ->
        Some
          (Fmt.str
             "image completeness: %d bytes of the saved image differ from \
              the pre-failure contents"
             diff)

(* The full-replay engine's crash state: re-executes the workload from
   scratch, cuts power before memory event [point] (a freeze, so not
   even a rollback stores past the failure) and captures the machine
   and the software state at that instant. A trace that ends before the
   point has nothing to crash. *)
let freeze_at ~kind ~config ~fault ~point script =
  let env = make_env ~kind ~config ~fault () in
  let st = fresh_state () in
  let state = ref None in
  let crash =
    Crash.create ~at:point
      ~on_trip:(fun () -> state := Some (Replay.capture env.nvram))
      Crash.Freeze
  in
  ignore (Crash.run crash [ env.nvram ] (fun () -> run_script env st ~kind script));
  Option.map (fun state -> (state, st)) !state

let crash_state ~kind ~config ~fault ~point script =
  Option.map fst (freeze_at ~kind ~config ~fault ~point script)

(* Verdict for one crash point: None = survived, Some message = bug. *)
let judge_point ~kind ~config ~fault ~point script =
  Option.bind (freeze_at ~kind ~config ~fault ~point script) (fun (state, st) ->
      judge_state ~kind ~config ~fault ~st state)

(* --- the incremental engine ------------------------------------------ *)

(* Judges an ascending run of crash points against one recording: a
   single cursor rolls forward through the mutation log (restoring from
   the nearest waypoint only when a chunk starts mid-trace) and a
   rolling model replays the committed-op journal, so the cost of a
   point is its delta from the previous one, not the whole trace. With
   [until_violation] the run stops after the first failing point. *)
let judge_marks ?cursor ?(until_violation = false) g pts =
  let cur = match cursor with Some c -> c | None -> Replay.cursor g.rp in
  let rmodel : model = Hashtbl.create 64 in
  let rapplied = ref 0 in
  let rec go acc = function
    | [] -> List.rev acc
    | point :: rest ->
        Replay.seek cur ~mark:point;
        let mi = Replay.info g.rp ~mark:point in
        if mi.mi_clog_n < !rapplied then begin
          (* Defensive: callers pass ascending points, but a backward
             seek must not silently judge against a too-new model. *)
          Hashtbl.reset rmodel;
          rapplied := 0
        end;
        while !rapplied < mi.mi_clog_n do
          apply_model rmodel g.clog.(!rapplied);
          incr rapplied
        done;
        let st =
          {
            committed = rmodel;
            pending = mi.mi_pending;
            in_commit = mi.mi_commit;
            clog_rev = [];
            clog_n = 0;
          }
        in
        let verdict =
          judge_state ~kind:g.g_kind ~config:g.g_config ~fault:g.g_fault ~st
            (Replay.state cur)
        in
        let acc = (point, verdict) :: acc in
        if until_violation && verdict <> None then List.rev acc else go acc rest
  in
  go [] pts

(* --- reports --------------------------------------------------------- *)

type violation = { point : int; where : string; message : string }

type shrunk = {
  script : script;
  point : int;
  trace_length : int;
  message : string;
}

type report = {
  kind : kind;
  config : Config.t;
  seed : int;
  fault : fault;
  trace_length : int;
  points_explored : int;
  exhaustive : bool;
  violations : violation list;
  shrunk : shrunk option;
}

(* --- engines and shrinking -------------------------------------------- *)

type engine = Incremental | Full_replay

(* Scanning a candidate in point order with early exit keeps shrinking
   cheap: broken configurations fail within the first committed
   transaction's trace prefix. *)
let shrink_scan_cap = 400

(* Splits an ascending point list into runs of at most [sz], keeping
   order: the parallel grain of the incremental engine (each run gets
   its own cursor, restored once from the nearest waypoint). *)
let chunk_points sz pts =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | p :: rest ->
        if k = sz then go (List.rev cur :: acc) [ p ] 1 rest
        else go acc (p :: cur) (k + 1) rest
  in
  go [] [] 0 pts

(* The engine's recorded trace of [script] and its judge over ascending
   crash points; with [until_violation] the verdicts end at the first
   failing point. Only the full-replay engine re-executes per point. *)
let prepare ?jobs ?(until_violation = false) ~engine ~stride ~kind ~config
    ~fault script =
  let g = record_golden ~stride ~kind ~config ~fault script in
  let judge =
    match engine with
    | Full_replay ->
        let one point = (point, judge_point ~kind ~config ~fault ~point script) in
        if until_violation then
          let rec go = function
            | [] -> []
            | p :: rest -> (
                match one p with (_, Some _) as v -> [ v ] | v -> v :: go rest)
          in
          go
        else Parallel.map ?jobs one
    | Incremental when until_violation -> judge_marks ~until_violation g
    | Incremental ->
        fun pts ->
          let sz = if stride > 0 then stride else max 1 (List.length pts) in
          chunk_points sz pts
          |> Parallel.map ?jobs ~chunk:1 (judge_marks g)
          |> List.concat
  in
  (g.trace, judge)

let first_failure ~engine ~kind ~config ~fault ~stride script =
  let tr, judge =
    prepare ~until_violation:true ~engine ~stride ~kind ~config ~fault script
  in
  let n = Ptrace.mem_length tr in
  judge (List.init (min n shrink_scan_cap) Fun.id)
  |> List.find_map (fun (p, verdict) -> Option.map (fun m -> (p, n, m)) verdict)

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

(* Greedy 1-minimisation: drop whole transactions, then single
   operations, re-checking that the failure survives each removal. *)
let shrink_failing ~engine ~kind ~config ~fault ~stride script =
  let fails s =
    if s = [] then None else first_failure ~engine ~kind ~config ~fault ~stride s
  in
  let rec drop_txns i s =
    if i >= List.length s then s
    else
      let s' = drop_nth s i in
      match fails s' with Some _ -> drop_txns i s' | None -> drop_txns (i + 1) s
  in
  let rec drop_ops t j s =
    if t >= List.length s then s
    else
      let ops = List.nth s t in
      if j >= List.length ops then drop_ops (t + 1) 0 s
      else
        let s' =
          List.mapi (fun i ops' -> if i = t then drop_nth ops' j else ops') s
          |> List.filter (fun ops' -> ops' <> [])
        in
        match fails s' with
        | Some _ -> drop_ops t j s'
        | None -> drop_ops t (j + 1) s
  in
  let s = drop_txns 0 script in
  let s = drop_ops 0 0 s in
  match fails s with
  | Some (point, trace_length, message) ->
      Some { script = s; point; trace_length; message }
  | None -> None (* the unshrunk failure should reappear; be safe *)

(* --- top level ------------------------------------------------------- *)

let check ?jobs ?(points = 1000) ?(txns = default_txns)
    ?(ops_per_txn = default_ops_per_txn) ?(keyspace = default_keyspace)
    ?(setup_entries = default_setup_entries) ?(fault = No_fault) ?(shrink = true)
    ?(engine = Incremental) ?(snapshot_stride = 256) ~kind ~config ~seed () =
  if points <= 0 then invalid_arg "Checker.check: points must be positive";
  if txns < 0 then invalid_arg "Checker.check: negative txns";
  if snapshot_stride < 0 then
    invalid_arg "Checker.check: negative snapshot_stride";
  let rng = Rng.create ~seed in
  let script = gen_script ~rng ~txns ~ops_per_txn ~keyspace ~setup_entries in
  let tr, judge =
    prepare ?jobs ~engine ~stride:snapshot_stride ~kind ~config ~fault script
  in
  (* The event stream is built only if a violation needs describing. *)
  let stream = lazy (Ptrace.events tr) in
  let n = Ptrace.mem_length tr in
  let pts, exhaustive = Crash.select ~rng ~total:n ~budget:points in
  let verdicts =
    judge pts
    |> List.map (fun (point, verdict) ->
           Option.map
             (fun message ->
               {
                 point;
                 where = Ptrace.describe_mem (Lazy.force stream) point;
                 message;
               })
             verdict)
  in
  let violations = List.filter_map Fun.id verdicts in
  let reg = Wsp_obs.Metrics.ambient () in
  Wsp_obs.Metrics.Counter.incr (Wsp_obs.Metrics.counter reg "check.runs");
  Wsp_obs.Metrics.Counter.add
    (Wsp_obs.Metrics.counter reg "check.points_judged")
    (List.length pts);
  Wsp_obs.Metrics.Counter.add
    (Wsp_obs.Metrics.counter reg "check.violations")
    (List.length violations);
  let shrunk =
    match violations with
    | [] -> None
    | _ when shrink ->
        shrink_failing ~engine ~kind ~config ~fault ~stride:snapshot_stride
          script
    | _ -> None
  in
  {
    kind;
    config;
    seed;
    fault;
    trace_length = n;
    points_explored = List.length pts;
    exhaustive;
    violations;
    shrunk;
  }

(* --- JSON ------------------------------------------------------------ *)

let json_violation b (v : violation) =
  Buffer.add_string b
    (Fmt.str "{ \"point\": %d, \"where\": \"%s\", \"message\": \"%s\" }" v.point
       (Json.escape v.where) (Json.escape v.message))

let json_shrunk b (s : shrunk) =
  Buffer.add_string b
    (Fmt.str
       "{ \"point\": %d, \"trace_length\": %d, \"message\": \"%s\", \
        \"script\": [%s] }"
       s.point s.trace_length (Json.escape s.message)
       (String.concat ", "
          (List.map
             (fun ops ->
               Fmt.str "\"%s\""
                 (Json.escape
                    (Fmt.str "%a" (Fmt.list ~sep:Fmt.semi pp_op) ops)))
             s.script)))

(* Machine-readable reports, for the CI determinism job: two builds (or
   two engines, or two job counts) agree iff the JSON is byte-equal. *)
let reports_to_json reports =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"reports\": [\n";
  List.iteri
    (fun i (r : report) ->
      Buffer.add_string b
        (Fmt.str
           "    { \"kind\": \"%s\", \"config\": \"%s\", \"seed\": %d, \
            \"fault\": \"%s\",\n\
           \      \"trace_length\": %d, \"points_explored\": %d, \
            \"exhaustive\": %b,\n\
           \      \"violations\": ["
           (kind_name r.kind)
           (Json.escape r.config.Config.name)
           r.seed (fault_name r.fault) r.trace_length r.points_explored
           r.exhaustive);
      List.iteri
        (fun j v ->
          Buffer.add_string b (if j = 0 then "\n        " else ",\n        ");
          json_violation b v)
        r.violations;
      if r.violations <> [] then Buffer.add_string b "\n      ";
      Buffer.add_string b "],\n      \"shrunk\": ";
      (match r.shrunk with
      | None -> Buffer.add_string b "null"
      | Some s -> json_shrunk b s);
      Buffer.add_string b " }";
      Buffer.add_string b (if i = List.length reports - 1 then "\n" else ",\n"))
    reports;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let pp_violation ppf (v : violation) =
  Fmt.pf ppf "point %d (%s): %s" v.point v.where v.message

let pp_report ppf r =
  Fmt.pf ppf "%s/%s seed=%d fault=%s: %d/%d points%s, %d violation(s)"
    (kind_name r.kind) r.config.Config.name r.seed (fault_name r.fault)
    r.points_explored r.trace_length
    (if r.exhaustive then " (exhaustive)" else "")
    (List.length r.violations);
  List.iter (fun v -> Fmt.pf ppf "@.  %a" pp_violation v) r.violations;
  match r.shrunk with
  | None -> ()
  | Some s ->
      Fmt.pf ppf "@.  shrunk to %d txn(s), %d events, fails at point %d: %s@.%a"
        (List.length s.script) s.trace_length s.point s.message pp_script
        s.script
