open Wsp_sim
open Wsp_nvheap
module Checker = Wsp_check.Checker
module Trace = Wsp_check.Trace
module Json = Wsp_obs.Json

type workload = {
  name : string;
  config : Config.t;
  run :
    fault:Checker.fault ->
    txns:int ->
    seed:int ->
    observe:(Pheap.t -> unit) ->
    finish:(Pheap.t -> unit) ->
    unit;
}

(* One recording: attach a trace in [observe], snapshot it in
   [finish]. The detach lives in [Fun.protect] so a raising workload
   cannot leave the recorder subscribed to a bus that outlives it. *)
let record_of_run w ~fault ~txns ~seed =
  let tr = Trace.create () in
  let out = ref None in
  Fun.protect
    ~finally:(fun () -> Trace.detach tr)
    (fun () ->
      w.run ~fault ~txns ~seed
        ~observe:(fun heap -> Trace.instrument tr heap)
        ~finish:(fun heap -> out := Some (Trace.snapshot tr heap)));
  Option.get !out

(* "FoC + UL" -> "foc-ul", "FoF" -> "fof" *)
let config_slug (c : Config.t) =
  String.lowercase_ascii c.Config.name
  |> String.split_on_char ' '
  |> List.filter (fun s -> s <> "" && s <> "+")
  |> String.concat "-"

(* --- lint-specific workloads ---------------------------------------- *)

(* A transfer workload the checker's insert/delete scripts cannot
   express: aborted transactions (undo rollback over data *and*
   allocator metadata) and alloc/free churn inside transactions. *)
let run_bank ~config ~fault ~txns ~seed ~observe ~finish =
  let heap =
    Pheap.create ~config ~size:(Units.Size.mib 1)
      ~log_size:(Units.Size.kib 128) ()
  in
  let nvram = Pheap.nvram heap in
  let accounts = Pheap.alloc heap (8 * 8) in
  for i = 0 to 7 do
    Pheap.write_u64 heap ~addr:(accounts + (8 * i)) 100L
  done;
  Pheap.set_root heap accounts;
  Checker.apply_fault nvram fault;
  (* Setup is mkfs, not under analysis: force it durable and clean. *)
  Nvram.wbinvd nvram;
  observe heap;
  let rng = Rng.create ~seed in
  let scratch = ref None in
  for t = 1 to txns do
    let a = Rng.int rng 8 and b = Rng.int rng 8 in
    let amount = Int64.of_int (1 + Rng.int rng 10) in
    let abort = t mod 3 = 0 in
    let churn = t mod 4 = 0 in
    Pheap.begin_tx heap;
    let addr_a = accounts + (8 * a) and addr_b = accounts + (8 * b) in
    let va = Pheap.read_u64 heap ~addr:addr_a in
    let vb = Pheap.read_u64 heap ~addr:addr_b in
    Pheap.write_u64 heap ~addr:addr_a (Int64.sub va amount);
    Pheap.write_u64 heap ~addr:addr_b (Int64.add vb amount);
    let fresh =
      if churn then begin
        let blk = Pheap.alloc heap 64 in
        for w = 0 to 7 do
          Pheap.write_u64 heap ~addr:(blk + (8 * w)) (Int64.of_int (t + w))
        done;
        Some blk
      end
      else None
    in
    if abort then Pheap.abort heap
    else begin
      (* Retire the previous scratch block only in a committing txn, so
         the free stays valid whether or not earlier txns aborted. *)
      (match (fresh, !scratch) with
      | Some _, Some old -> Pheap.free heap old
      | _ -> ());
      Pheap.commit heap;
      match fresh with Some blk -> scratch := Some blk | None -> ()
    end
  done;
  finish heap

(* The AVL tree backs the experiments' LDAP-directory workload (table1)
   but is not one of the checker's structures — lint covers it here. *)
let run_avl ~config ~fault ~txns ~seed ~observe ~finish =
  let heap =
    Pheap.create ~config ~size:(Units.Size.mib 1)
      ~log_size:(Units.Size.kib 128) ()
  in
  let nvram = Pheap.nvram heap in
  let tree = Wsp_store.Avl.create heap in
  for i = 1 to 16 do
    Wsp_store.Avl.insert tree ~key:(Int64.of_int (i * 17)) ~value:(Int64.of_int i)
  done;
  Checker.apply_fault nvram fault;
  Nvram.wbinvd nvram;
  observe heap;
  let rng = Rng.create ~seed in
  for _ = 1 to txns do
    Pheap.begin_tx heap;
    for _ = 1 to 1 + Rng.int rng 3 do
      let key = Int64.of_int (1 + Rng.int rng 64) in
      if Rng.int rng 4 = 0 then ignore (Wsp_store.Avl.delete tree key)
      else Wsp_store.Avl.insert tree ~key ~value:(Rng.bits64 rng)
    done;
    Pheap.commit heap
  done;
  finish heap

(* --- the registry ---------------------------------------------------- *)

let checker_workload kind config =
  {
    name = Checker.kind_name kind ^ "/" ^ config_slug config;
    config;
    run =
      (fun ~fault ~txns ~seed ~observe ~finish ->
        Checker.run_workload ~txns ~fault ~kind ~config ~seed ~observe ~finish
          ());
  }

let registry =
  let main_configs =
    [ Config.foc_ul; Config.foc_stm; Config.fof; Config.msync ]
  in
  List.concat_map
    (fun kind -> List.map (checker_workload kind) main_configs)
    Checker.all_kinds
  (* The remaining persistence models, exercised on the hash table. *)
  @ List.map
      (checker_workload Checker.Hash_table)
      [ Config.fof_ul; Config.fof_stm ]
  @ List.map
      (fun config ->
        {
          name = "bank/" ^ config_slug config;
          config;
          run =
            (fun ~fault ~txns ~seed ~observe ~finish ->
              run_bank ~config ~fault ~txns ~seed ~observe ~finish);
        })
      main_configs
  @ List.map
      (fun config ->
        {
          name = "avl/" ^ config_slug config;
          config;
          run =
            (fun ~fault ~txns ~seed ~observe ~finish ->
              run_avl ~config ~fault ~txns ~seed ~observe ~finish);
        })
      [ Config.foc_ul; Config.fof; Config.msync ]

let matches ~workload ~config ~name cfg =
  let structure =
    match String.index_opt name '/' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  (match workload with None -> true | Some f -> f = structure || f = name)
  && match config with None -> true | Some c -> config_slug cfg = c

let find ?workload ?config () =
  List.filter (fun w -> matches ~workload ~config ~name:w.name w.config) registry

(* --- running --------------------------------------------------------- *)

type report = {
  workload : string;
  config_name : string;
  fault : Checker.fault;
  result : Rules.result;
  witness_text : (int * string) list;
}

let lint ?jobs ?(fault = Checker.No_fault) ?(txns = 32) ?(seed = 1) ?psu
    ?platform ?(busy = false) ~workloads () =
  if txns < 0 then invalid_arg "Analyzer.lint: negative txns";
  let machine_of w =
    let base = Rules.default_machine ~config:w.config () in
    {
      base with
      Rules.fences_broken = fault = Checker.Broken_fences;
      wsp_save_broken = fault = Checker.Broken_wsp_save;
      psu = Option.value psu ~default:base.Rules.psu;
      platform = Option.value platform ~default:base.Rules.platform;
      busy;
    }
  in
  (* One pass: each item simulates its workload's heap exactly once,
     then evaluates the rules and renders witnesses over that
     recording. The map preserves input order, so the report list (and
     its JSON) is independent of the job count. *)
  Parallel.map ?jobs
    (fun w ->
      let recording = record_of_run w ~fault ~txns ~seed in
      let result = Rules.analyze (machine_of w) recording in
      let cited =
        List.concat_map (fun d -> d.Rules.witness) result.Rules.diagnostics
        |> List.sort_uniq compare
      in
      let witness_text =
        List.filter_map
          (fun i ->
            if i >= 0 && i < Array.length recording.Trace.events then
              Some (i, Fmt.str "%a" Event.pp recording.Trace.events.(i))
            else None)
          cited
      in
      {
        workload = w.name;
        config_name = config_slug w.config;
        fault;
        result;
        witness_text;
      })
    workloads

let expected ~expect (d : Rules.diagnostic) = List.mem d.Rules.rule expect

let errors ~expect reports =
  List.fold_left
    (fun (e, a) r ->
      List.fold_left
        (fun (e, a) d ->
          if expected ~expect d then (e, a)
          else
            match d.Rules.severity with
            | Rules.Error -> (e + 1, a)
            | Rules.Advisory -> (e, a + 1))
        (e, a) r.result.Rules.diagnostics)
    (0, 0) reports

(* --- JSON ------------------------------------------------------------ *)

let json_diag ~expect b (d : Rules.diagnostic) =
  Buffer.add_string b
    (Fmt.str
       "{ \"rule\": \"%s\", \"slug\": \"%s\", \"severity\": \"%s\", \
        \"line\": %s, \"txid\": %s, \"witness\": [%s], \"wasted_ns\": %s, \
        \"expected\": %b, \"message\": \"%s\" }"
       (Rules.rule_name d.Rules.rule)
       (Rules.rule_slug d.Rules.rule)
       (Rules.severity_name d.Rules.severity)
       (match d.Rules.line with None -> "null" | Some l -> string_of_int l)
       (match d.Rules.txid with None -> "null" | Some t -> Int64.to_string t)
       (String.concat ", " (List.map string_of_int d.Rules.witness))
       (match d.Rules.wasted_ns with
       | None -> "null"
       | Some ns -> Fmt.str "%.1f" ns)
       (expected ~expect d) (Json.escape d.Rules.message))

let to_json ~expect reports =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      let s = r.result.Rules.stats in
      Buffer.add_string b
        (Fmt.str
           "    { \"workload\": \"%s\", \"config\": \"%s\", \"fault\": \
            \"%s\",\n      \"stats\": { \"events\": %d, \"mem_events\": %d, \
            \"txns\": %d, \"epochs\": %d, \"max_dirty_bytes\": %d },\n      \
            \"diagnostics\": ["
           (Json.escape r.workload) r.config_name
           (Checker.fault_name r.fault) s.Rules.events s.Rules.mem_events
           s.Rules.txns s.Rules.epochs s.Rules.max_dirty_bytes);
      List.iteri
        (fun j d ->
          Buffer.add_string b (if j = 0 then "\n        " else ",\n        ");
          json_diag ~expect b d)
        r.result.Rules.diagnostics;
      if r.result.Rules.diagnostics <> [] then Buffer.add_string b "\n      ";
      Buffer.add_string b "] }";
      Buffer.add_string b (if i = List.length reports - 1 then "\n" else ",\n"))
    reports;
  let errs, advs = errors ~expect reports in
  let total_expected =
    List.fold_left
      (fun acc r ->
        acc
        + List.length
            (List.filter (expected ~expect) r.result.Rules.diagnostics))
      0 reports
  in
  Buffer.add_string b
    (Fmt.str
       "  ],\n  \"summary\": { \"workloads\": %d, \"errors\": %d, \
        \"advisories\": %d, \"expected\": %d }\n}\n"
       (List.length reports) errs advs total_expected);
  Buffer.contents b

(* --- human rendering ------------------------------------------------- *)

let pp_witness reports_text ppf witness =
  match witness with
  | [] -> Fmt.pf ppf "(whole trace)"
  | _ ->
      Fmt.pf ppf "%a"
        (Fmt.list ~sep:(Fmt.any " -> ") (fun ppf i ->
             match List.assoc_opt i reports_text with
             | Some txt -> Fmt.pf ppf "#%d %s" i txt
             | None -> Fmt.pf ppf "#%d" i))
        witness

let pp_human ~expect ppf reports =
  List.iter
    (fun r ->
      let s = r.result.Rules.stats in
      let errs, advs =
        List.fold_left
          (fun (e, a) (d : Rules.diagnostic) ->
            match d.Rules.severity with
            | Rules.Error -> (e + 1, a)
            | Rules.Advisory -> (e, a + 1))
          (0, 0) r.result.Rules.diagnostics
      in
      let verdict = if errs > 0 then "FAIL" else "ok" in
      Fmt.pf ppf "%4s %-18s %6d events %4d txns %3d epochs %7d max dirty B" verdict
        r.workload s.Rules.events s.Rules.txns s.Rules.epochs
        s.Rules.max_dirty_bytes;
      if advs > 0 then Fmt.pf ppf "  (%d advisories)" advs;
      Fmt.pf ppf "@.";
      List.iter
        (fun (d : Rules.diagnostic) ->
          Fmt.pf ppf "     %s %s%s [%s] %s@."
            (Rules.rule_name d.Rules.rule)
            (Rules.severity_name d.Rules.severity)
            (if expected ~expect d then " (expected)" else "")
            (Rules.rule_slug d.Rules.rule)
            d.Rules.message;
          Fmt.pf ppf "       witness: %a@." (pp_witness r.witness_text)
            d.Rules.witness)
        r.result.Rules.diagnostics)
    reports
