(* The certification workload: the crash-point checker over four
   structures under four persistence configurations plus one sabotaged
   cell, then the registry lint and the concurrent race lint — the path
   CI runs to certify the repository. The shard service stays idle. *)

open Wsp_sim
open Wsp_nvheap
module Checker = Wsp_check.Checker
module Replay = Wsp_check.Replay
module Trace = Wsp_check.Trace
module Analyzer = Wsp_analysis.Analyzer
module Canalyzer = Wsp_analysis.Canalyzer
module Rules = Wsp_analysis.Rules
module Avl = Wsp_store.Avl
module Metrics = Wsp_obs.Metrics

type params = { points : int; seed : int }

(* The lints keep the CI gate's seed, at which the registry's verdict
   (exactly two R3 advisories) is pinned; only the checker's seed
   varies. *)
let lint_seed = 42

type cell = { kind : Checker.kind; config : Config.t; fault : Checker.fault }

let cells =
  List.concat_map
    (fun config ->
      List.map
        (fun kind -> { kind; config; fault = Checker.No_fault })
        Checker.all_kinds)
    [ Config.foc_ul; Config.foc_stm; Config.fof; Config.msync ]
  @ [ { kind = Checker.Hash_table; config = Config.foc_ul; fault = Checker.Broken_fences } ]

let clean c = c.fault = Checker.No_fault

let check_cell pr ~jobs c =
  Checker.check ~jobs ~points:pr.points ~shrink:false ~fault:c.fault
    ~kind:c.kind ~config:c.config ~seed:pr.seed ()

let lint ~jobs =
  Analyzer.lint ~jobs ~seed:lint_seed ~workloads:Analyzer.registry ()

let clint ~jobs =
  Canalyzer.clint ~jobs ~seed:lint_seed ~workloads:Canalyzer.cregistry ()

(* Every racy cell must be convicted except the racy counter under FoF:
   flush-on-fail saves the store the counter forgets to fence, so that
   cell is race-free by design (the repository's agreement matrix). *)
let must_convict (r : Analyzer.report) =
  match String.split_on_char '/' r.workload with
  | structure :: _ ->
      String.ends_with ~suffix:"-racy" structure
      && r.workload <> "dcounter-racy/fof"
  | [] -> false

let errors (r : Analyzer.report) =
  List.length
    (List.filter
       (fun (d : Rules.diagnostic) -> d.severity = Rules.Error)
       r.result.diagnostics)

(* Every verdict the certification path must reach: clean cells pass,
   the sabotaged cell is convicted, lint finds exactly the two known R3
   advisories, and race lint convicts every racy cell and only those. *)
let judge out reports lints clints =
  List.iter2
    (fun c (r : Checker.report) ->
      if clean c then Out.check out "certify.clean_cell_passes" (r.violations = [])
      else Out.check out "certify.sabotage_convicted" (r.violations <> []))
    cells reports;
  let diags =
    List.concat_map (fun (r : Analyzer.report) -> r.result.diagnostics) lints
  in
  Out.check out "certify.lint_two_r3_advisories"
    (List.length diags = 2
    && List.for_all
         (fun (d : Rules.diagnostic) ->
           d.rule = Rules.R3 && d.severity = Rules.Advisory)
         diags);
  List.iter
    (fun r ->
      if must_convict r then Out.check out "certify.racy_convicted" (errors r > 0)
      else Out.check out "certify.clean_race_free" (errors r = 0))
    clints

let points reports =
  List.fold_left (fun acc (r : Checker.report) -> acc + r.points_explored) 0 reports

let events reports =
  List.fold_left
    (fun acc (r : Analyzer.report) -> acc + r.result.stats.events)
    0 reports

let first n l = List.filteri (fun i _ -> i < n) l

(* Set-up: the smallest call into each entry point, so lazy state and
   heap growth are paid before anything is timed. *)
let warm_up pr ~jobs =
  ignore
    (Checker.check ~jobs ~points:8 ~shrink:false ~kind:Checker.Hash_table
       ~config:Config.foc_ul ~seed:pr.seed ());
  ignore
    (Analyzer.lint ~jobs ~seed:lint_seed
       ~workloads:(first 2 Analyzer.registry) ());
  ignore
    (Canalyzer.clint ~jobs ~seed:lint_seed
       ~workloads:(first 2 Canalyzer.cregistry) ())

(* A pass takes seconds, so a window is held open for enough of them
   that their median is steady. *)
let min_passes = 4

(* ops_per_s is crash points per second of the whole pass, so a slower
   lint or race lint lowers it as much as a slower checker. *)
let untimed out pr ~jobs ~seconds ~setup_reps =
  for _ = 1 to setup_reps do
    Gc.full_major ();
    let (), s = Span.timed (fun () -> warm_up pr ~jobs) in
    Out.sample out "setup_s" s
  done;
  let t0 = Span.now () in
  let rec loop n =
    let reports, check_s =
      Span.timed (fun () -> List.map (check_cell pr ~jobs) cells)
    in
    let lints, lint_s = Span.timed (fun () -> lint ~jobs) in
    let clints, clint_s = Span.timed (fun () -> clint ~jobs) in
    judge out reports lints clints;
    Out.value out "check.min_cell_points"
      (float_of_int
         (List.fold_left
            (fun acc (r : Checker.report) -> min acc r.points_explored)
            max_int reports));
    let pts = float_of_int (points reports) in
    Out.sample out "ops_per_s" (pts /. (check_s +. lint_s +. clint_s));
    Out.sample out "points_per_s" (pts /. check_s);
    Out.sample out "lint_events_per_s"
      (float_of_int (events lints + events clints) /. (lint_s +. clint_s));
    if n < min_passes || Span.seconds_since t0 < seconds then loop (n + 1)
  in
  loop 1

type tally = {
  mutable stores : int;
  mutable flushes : int;
  mutable appends : int;
  mutable allocs : int;
  mutable commits : int;
}

let tally recordings =
  let t = { stores = 0; flushes = 0; appends = 0; allocs = 0; commits = 0 } in
  List.iter
    (fun (r : Trace.recording) ->
      Array.iter
        (fun (ev : Event.t) ->
          match ev with
          | Event.Mem (Event.Store _ | Event.Store_nt _) -> t.stores <- t.stores + 1
          | Event.Mem (Event.Clflush _ | Event.Flush_range _ | Event.Wbinvd) ->
              t.flushes <- t.flushes + 1
          | Event.Log (Event.Append _) -> t.appends <- t.appends + 1
          | Event.Tx (Event.Commit _) -> t.commits <- t.commits + 1
          | Event.Heap (Event.Alloc _) -> t.allocs <- t.allocs + 1
          | Event.Mem Event.Fence
          | Event.Log Event.Truncate
          | Event.Tx (Event.Begin _ | Event.Abort _)
          | Event.Heap (Event.Free _ | Event.Header_write _)
          | Event.Wb _ ->
              ())
        r.events)
    recordings;
  t

(* Crash-state reconstruction on its own: a recorded undo-logged AVL
   workload, then ascending seeks, as the checker makes them. *)
let seek_rung out spans pr =
  let heap =
    Pheap.create ~config:Config.foc_ul ~size:(Units.Size.mib 1)
      ~log_size:(Units.Size.kib 64) ()
  in
  let tree = Avl.create heap in
  let rng = Random.State.make [| pr.seed |] in
  let rp =
    Replay.record ~nvram:(Pheap.nvram heap) ~info:ignore (fun () ->
        for i = 1 to 200 do
          Pheap.with_tx heap (fun () ->
              Avl.insert tree
                ~key:(Int64.of_int (Random.State.int rng 10_000))
                ~value:(Int64.of_int i))
        done)
  in
  let marks =
    List.sort_uniq compare
      (List.init 256 (fun _ -> Random.State.int rng (Replay.marks rp)))
  in
  let cur = Replay.cursor rp in
  let id = Span.intern "check.seek" in
  let (), s =
    Span.timed (fun () ->
        List.iter
          (fun mark -> Span.record spans id ~req:mark (fun () -> Replay.seek cur ~mark))
          marks)
  in
  Out.value out "check.seek_us" (s /. float_of_int (List.length marks) *. 1e6)

let traced out pr ~jobs ~spans_out =
  let spans = Span.create () in
  let span name ~req f =
    Span.timed (fun () -> Span.record spans (Span.intern name) ~req f)
  in
  (* Golden recordings, on one domain: the per-op counts below are per
     committed transaction of these runs. *)
  Metrics.reset_all ();
  let recorded =
    List.mapi
      (fun i c ->
        ( c,
          span "check.record" ~req:i (fun () ->
              Checker.record_workload ~fault:c.fault ~kind:c.kind
                ~config:c.config ~seed:pr.seed ()) ))
      cells
  in
  let m = Metrics.merged () in
  let record_s = List.fold_left (fun acc (_, (_, s)) -> acc +. s) 0.0 recorded in
  let recs = List.map (fun (_, (r, _)) -> r) recorded in
  let length (r : Trace.recording) = Array.length r.events in
  let trace_events = List.fold_left (fun acc r -> acc + length r) 0 recs in
  let analyzed_events = ref 0 in
  let analyze_s =
    List.fold_left
      (fun acc (c, (r, _)) ->
        if clean c then begin
          analyzed_events := !analyzed_events + length r;
          let _, s =
            span "analysis.analyze" ~req:(-1) (fun () ->
                Rules.analyze (Rules.default_machine ~config:c.config ()) r)
          in
          acc +. s
        end
        else acc)
      0.0 recorded
  in
  let t = tally recs in
  let per_op x = Out.ratio (float_of_int x) (float_of_int t.commits) in
  let counter name = Metrics.Counter.value (Metrics.counter m name) in
  List.iter
    (fun (name, c) -> Out.value out name (per_op (counter c)))
    Kv.machine_counters;
  Out.value out "nvram.stores_per_op" (per_op t.stores);
  Out.value out "nvram.flushes_per_op" (per_op t.flushes);
  Out.value out "txn.commits" (float_of_int t.commits);
  Out.value out "log.appends_per_commit" (per_op t.appends);
  Out.value out "alloc.allocs_per_op" (per_op t.allocs);
  seek_rung out spans pr;
  (* The pass the untimed run repeats, traced. *)
  let cpu0 = Sys.time () in
  let g0 = Gc.quick_stat () in
  let cell_runs =
    List.mapi
      (fun i c -> span "check.cell" ~req:i (fun () -> check_cell pr ~jobs c))
      cells
  in
  let lints, lint_s = span "analysis.lint" ~req:(-1) (fun () -> lint ~jobs) in
  let clints, clint_s =
    span "analysis.clint" ~req:(-1) (fun () -> clint ~jobs)
  in
  let g1 = Gc.quick_stat () in
  let cpu = Sys.time () -. cpu0 in
  let reports = List.map fst cell_runs and cell_s = List.map snd cell_runs in
  judge out reports lints clints;
  let check_s = List.fold_left ( +. ) 0.0 cell_s in
  let _, check1_s =
    Span.timed (fun () -> List.map (check_cell pr ~jobs:1) cells)
  in
  let pts = float_of_int (points reports) in
  Out.value out "check.record_ms"
    (record_s /. float_of_int (List.length cells) *. 1e3);
  Out.value out "check.cell_p50_ms" (Out.median cell_s *. 1e3);
  Out.value out "check.cell_max_ms" (List.fold_left max 0.0 cell_s *. 1e3);
  Out.value out "check.judge_us_per_point"
    (Out.ratio (check_s -. record_s) pts *. 1e6);
  Out.value out "check.trace_events" (float_of_int trace_events);
  Out.value out "analysis.analyze_ns_per_event"
    (Out.ratio analyze_s (float_of_int !analyzed_events) *. 1e9);
  Out.value out "analysis.lint_s" lint_s;
  Out.value out "analysis.clint_s" clint_s;
  Out.value out "analysis.events" (float_of_int (events lints + events clints));
  Out.value out "parallel.speedup_j2" (Out.ratio check1_s check_s);
  Out.value out "cpu_util" (Out.ratio cpu (check_s +. lint_s +. clint_s));
  Out.value out "gc.minor_words_per_op"
    (Out.ratio (g1.minor_words -. g0.minor_words) pts);
  Out.value out "gc.major_collections"
    (float_of_int (g1.major_collections - g0.major_collections));
  Out.value out "trace.spans" (float_of_int (Span.count spans));
  Out.value out "trace.shard_spans"
    (float_of_int (Span.count_prefix spans "shard."));
  Option.iter (Span.write_csv spans) spans_out
