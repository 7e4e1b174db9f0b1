(* Cross-domain persistency race detector: vector-clock algebra,
   table-driven known-good / known-bad sync traces per rule R6-R9,
   static/dynamic cross-certification on the durable-structure
   registry (R6-R9 against crash sweeps of the same drivers, with the
   sweep verdicts pinned), the shard service's race lint
   (clean, sabotaged, and sabotaged-under-sweep), and byte-identical
   concurrent reports across job widths. *)

open Wsp_nvheap
open Wsp_analysis
module Trace = Wsp_check.Trace
module Checker = Wsp_check.Checker
module Service = Wsp_shard.Service

(* --- vector clocks --------------------------------------------------- *)

let vclock_tests =
  [
    Alcotest.test_case "tick orders, independent ticks race" `Quick (fun () ->
        let a = Vclock.make ~domains:3 and b = Vclock.make ~domains:3 in
        Alcotest.(check bool) "zero <= zero" true (Vclock.leq a b);
        Vclock.tick a ~domain:0;
        Alcotest.(check bool) "zero <= ticked" true (Vclock.leq b a);
        Alcotest.(check bool) "ticked !<= zero" false (Vclock.leq a b);
        Vclock.tick b ~domain:1;
        Alcotest.(check bool) "independent ticks are concurrent" true
          (Vclock.concurrent a b);
        Alcotest.(check int) "get reads the component" 1 (Vclock.get a ~domain:0));
    Alcotest.test_case "merge is a pointwise max, copy detaches" `Quick
      (fun () ->
        let a = Vclock.make ~domains:2 and b = Vclock.make ~domains:2 in
        Vclock.tick a ~domain:0;
        Vclock.tick b ~domain:1;
        Vclock.tick b ~domain:1;
        Vclock.merge ~into:a b;
        Alcotest.(check int) "kept own component" 1 (Vclock.get a ~domain:0);
        Alcotest.(check int) "absorbed other" 2 (Vclock.get a ~domain:1);
        Alcotest.(check bool) "b <= merged" true (Vclock.leq b a);
        let c = Vclock.copy a in
        Vclock.tick a ~domain:0;
        Alcotest.(check bool) "copy unaffected by later tick" false
          (Vclock.leq a c));
  ]

(* --- R6-R9 sync-trace tables ----------------------------------------- *)

let machine config = Rules.default_machine ~config ()

(* Pure-annotation traces: (domain, sync) pairs through a fresh stream.
   No domain is registered, so R1-R5 cannot fire — every diagnostic is
   a race rule. *)
let run_sync ?(domains = 2) config items =
  let cs = Crules.create (machine config) ~domains in
  List.iter (fun (d, sy) -> Crules.step cs ~domain:d (Crules.Sync sy)) items;
  Crules.finish cs

let error_rules (result : Rules.result) =
  List.filter_map
    (fun (d : Rules.diagnostic) ->
      if d.Rules.severity = Rules.Error then Some d.Rules.rule else None)
    result.Rules.diagnostics
  |> List.sort_uniq compare

let check_sync_rules ~name ~config ?domains ~errors items =
  let result = run_sync ?domains config items in
  Alcotest.(check (list string))
    (name ^ ": errors")
    (List.map Rules.rule_name errors)
    (List.map Rules.rule_name (error_rules result))

let w ?(addr = -1) obj : Event.sync = Write { obj; addr }
let rd obj : Event.sync = Read { obj }
let ack obj : Event.sync = Ack { obj }
let pub chan : Event.sync = Publish { chan }
let acq chan : Event.sync = Acquire { chan }
let hp obj : Event.sync = Handoff_persist { obj }
let tomb obj : Event.sync = Tombstone { obj }

let sync_table_tests =
  let fof = Config.fof and foc = Config.foc_ul in
  let cases =
    [
      (* R7: under flush-on-fail a store is durable the moment it
         issues, so write-then-ack is the paper's free lunch; under
         flush-on-commit the same pair acks volatile state. *)
      ("R7 good (fof): ack after durable write", fof,
       [ (0, w 1L); (0, ack 1L) ], []);
      ("R7 bad (foc): ack before the commit seals", foc,
       [ (0, w 1L); (0, ack 1L) ], [ Rules.R7 ]);
      ("R7 bad: ack of an object never written", fof,
       [ (0, ack 1L) ], [ Rules.R7 ]);
      (* R6: overwriting another domain's not-yet-persist-ordered
         write races on what a failure preserves; a publish/acquire
         edge carries the persist into the overwriter's past. *)
      ("R6 good (fof): overwrite behind a release/acquire edge", fof,
       [ (0, w 1L); (0, pub 0); (1, acq 0); (1, w 1L) ], []);
      ("R6 bad (fof): overwrite without a sync edge", fof,
       [ (0, w 1L); (1, w 1L) ], [ Rules.R6 ]);
      ("R6 bad (foc): edge exists but persist still pending", foc,
       [ (0, w 1L); (0, pub 0); (1, acq 0); (1, w 1L) ],
       [ Rules.R6 ]);
      (* R9: a cross-domain read must have the writer's persist in its
         past, not just the write. *)
      ("R9 good (fof): read behind a release/acquire edge", fof,
       [ (0, w 1L); (0, pub 0); (1, acq 0); (1, rd 1L) ], []);
      ("R9 bad (fof): read without a sync edge", fof,
       [ (0, w 1L); (1, rd 1L) ], [ Rules.R9 ]);
      ("R9 bad (foc): read of a pending write through an edge", foc,
       [ (0, w 1L); (0, pub 0); (1, acq 0); (1, rd 1L) ],
       [ Rules.R9 ]);
      ("R9 good: barrier joins all clocks", fof,
       [ (0, w 1L); (1, Event.Barrier); (1, rd 1L) ], []);
      (* R8: the migration invariant — destination persist must
         dominate the source tombstone. The handoff-persist edge is
         acquired by the tombstone even when judged too early. *)
      ("R8 good (fof): persist at destination, then tombstone", fof,
       [ (1, w 5L); (1, hp 5L); (0, tomb 5L) ], []);
      ("R8 bad: tombstone with no published handoff", fof,
       [ (1, w 5L); (0, tomb 5L) ], [ Rules.R8 ]);
      ("R8 bad: tombstone of an object never written", fof,
       [ (0, tomb 5L) ], [ Rules.R8 ]);
      ("R8 bad (foc): handoff declared before the persist seals", foc,
       [ (1, w 5L); (1, hp 5L); (0, tomb 5L) ], [ Rules.R8 ]);
    ]
  in
  List.map
    (fun (name, config, items, errors) ->
      Alcotest.test_case name `Quick (fun () ->
          check_sync_rules ~name ~config ~errors items))
    cases

let witness_tests =
  [
    Alcotest.test_case "R8 witness cites handoff then tombstone" `Quick
      (fun () ->
        let cs = Crules.create (machine Config.foc_ul) ~domains:2 in
        List.iter
          (fun (d, sy) -> Crules.step cs ~domain:d (Crules.Sync sy))
          [ (1, w 5L); (1, hp 5L); (0, tomb 5L) ];
        let result = Crules.finish cs in
        let d =
          List.find
            (fun (d : Rules.diagnostic) -> d.Rules.rule = Rules.R8)
            result.Rules.diagnostics
        in
        Alcotest.(check (list int)) "write then handoff indices" [ 0; 1 ]
          d.Rules.witness;
        let texts = Crules.witness_text cs result in
        List.iter
          (fun i ->
            match List.assoc_opt i texts with
            | Some text ->
                Alcotest.(check bool)
                  (Printf.sprintf "witness #%d names the domain" i)
                  true
                  (String.length text > 2 && text.[0] = 'd')
            | None -> Alcotest.failf "witness #%d not rendered from ring" i)
          d.Rules.witness);
    Alcotest.test_case "commit seal settles transactional writes" `Quick
      (fun () ->
        (* The good undo transaction from the R1 tables: the fence
           after the commit-record append seals the annotated write, so
           the ack that follows is clean — and the per-domain R1-R5
           stream raises nothing either. *)
        let cs = Crules.create (machine Config.foc_ul) ~domains:1 in
        (* A fresh heap: no allocation baseline, and the synthetic
           stores below fall outside its allocator region. *)
        Crules.register cs ~domain:0
          (Pheap.create ~config:Config.foc_ul ~size:(Wsp_sim.Units.Size.kib 64)
             ~log_size:(Wsp_sim.Units.Size.kib 4) ());
        Crules.step cs ~domain:0 (Crules.Sync (w 1L));
        List.iter
          (fun ev -> Crules.step cs ~domain:0 (Crules.Bus ev))
          [
            Event.Tx (Event.Begin 1L);
            Event.Log (Event.Append { kind = Txn.k_undo; n_values = 2 });
            Event.Mem (Event.Store_nt { addr = 1024 });
            Event.Mem (Event.Store_nt { addr = 1032 });
            Event.Mem Event.Fence;
            Event.Mem (Event.Store { addr = 0; len = 8 });
            Event.Tx (Event.Commit { txid = 1L; written_lines = [ 0 ] });
            Event.Mem (Event.Clflush { addr = 0 });
            Event.Wb { line = 0; explicit = true };
            Event.Mem Event.Fence;
            Event.Log (Event.Append { kind = Txn.k_commit; n_values = 1 });
            Event.Mem (Event.Store_nt { addr = 1040 });
            Event.Mem Event.Fence;
            Event.Log Event.Truncate;
          ];
        Crules.step cs ~domain:0 (Crules.Sync (ack 1L));
        let result = Crules.finish cs in
        Alcotest.(check (list string)) "no errors" []
          (List.map Rules.rule_name (error_rules result)));
  ]

(* --- static/dynamic cross-certification ------------------------------ *)

let race_error_rules (report : Analyzer.report) =
  List.filter
    (fun r ->
      match r with
      | Rules.R6 | Rules.R7 | Rules.R8 | Rules.R9 -> true
      | Rules.R1 | Rules.R2 | Rules.R3 | Rules.R4 | Rules.R5 | Rules.R10 ->
          false)
    (error_rules report.Analyzer.result)

(* The full agreement matrix: for every concurrent registry workload,
   the static R6-R9 verdict and the crash sweep of the same driver must
   convict exactly the same executions. *)
let agreement_matrix_test =
  Alcotest.test_case "R6-R9 agree with the dynamic sweep on the registry"
    `Slow (fun () ->
      let reports = Canalyzer.clint ~jobs:2 ~txns:10 ~workloads:Canalyzer.cregistry () in
      List.iter2
        (fun (cw : Canalyzer.cworkload) (report : Analyzer.report) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: static conviction iff dynamic violation"
               report.Analyzer.workload)
            (not (Canalyzer.clean (Canalyzer.sweep cw ~txns:10)))
            (race_error_rules report <> []))
        Canalyzer.cregistry reports)

(* Sweep verdicts as points/losses/torn/first-bad-point at 4 and 8
   operations, for every registry cell: a sweep that drifts by one
   memory event, or an audit that changes its mind, shows here even
   when the clean/unclean agreement above still holds. *)
let pinned_verdicts =
  [
    ("dqueue/foc-ul", "30/0/0/-", "57/0/0/-");
    ("dqueue/fof", "30/0/0/-", "57/0/0/-");
    ("dqueue-racy/foc-ul", "28/6/8/3", "55/11/16/3");
    ("dqueue-racy/fof", "28/0/12/2", "55/0/24/2");
    ("dcounter/foc-ul", "12/0/0/-", "24/0/0/-");
    ("dcounter/fof", "12/0/0/-", "24/0/0/-");
    ("dcounter-racy/foc-ul", "4/3/0/2", "8/7/0/2");
    ("dcounter-racy/fof", "4/0/0/-", "8/0/0/-");
    ("handoff/foc-ul", "36/0/0/-", "72/0/0/-");
    ("handoff/fof", "36/0/0/-", "72/0/0/-");
    ("handoff-racy/foc-ul", "36/12/0/15", "72/24/0/27");
    ("handoff-racy/fof", "36/12/0/14", "72/24/0/26");
  ]

let verdict_text (v : Canalyzer.verdict) =
  Printf.sprintf "%d/%d/%d/%s" v.Canalyzer.points v.Canalyzer.losses
    v.Canalyzer.torn
    (match v.Canalyzer.first_bad with None -> "-" | Some k -> string_of_int k)

let pinned_verdicts_test =
  Alcotest.test_case "sweep verdicts pinned on every registry cell" `Slow
    (fun () ->
      Alcotest.(check (list string))
        "pinned cells are the registry"
        (List.map (fun (name, _, _) -> name) pinned_verdicts)
        (List.map (fun (w : Canalyzer.cworkload) -> w.Canalyzer.cname)
           Canalyzer.cregistry);
      List.iter2
        (fun (name, at4, at8) w ->
          Alcotest.(check (pair string string))
            (name ^ " at 4 and 8 ops") (at4, at8)
            ( verdict_text (Canalyzer.sweep w ~txns:4),
              verdict_text (Canalyzer.sweep w ~txns:8) ))
        pinned_verdicts Canalyzer.cregistry)

(* Any dynamic acked-write loss must surface statically as R7 — or R8
   for the handoff structure, where the lost ack is the migrated key
   the sabotaged protocol dropped between heaps. *)
let loss_implies_static_prop =
  let racy =
    List.concat_map
      (fun s -> Canalyzer.cfind ~workload:(s ^ "-racy") ())
      [ "dqueue"; "dcounter"; "handoff" ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:6 ~name:"dynamic acked loss implies static R7/R8"
       QCheck2.Gen.(pair (int_range 0 (List.length racy - 1)) (int_range 4 8))
       (fun (i, txns) ->
         let w = List.nth racy i in
         (Canalyzer.sweep w ~txns).Canalyzer.losses = 0
         ||
         match Canalyzer.clint ~jobs:1 ~txns:(max 8 txns) ~workloads:[ w ] () with
         | [ report ] ->
             let rules = race_error_rules report in
             List.mem Rules.R7 rules || List.mem Rules.R8 rules
         | _ -> false))

let jobs_determinism_test =
  Alcotest.test_case "concurrent JSON is byte-identical across --jobs" `Slow
    (fun () ->
      let render jobs =
        Analyzer.to_json ~expect:[]
          (Canalyzer.clint ~jobs ~txns:12 ~workloads:Canalyzer.cregistry ())
      in
      Alcotest.(check string) "jobs 1 = jobs 4" (render 1) (render 4))

let buses_test =
  Alcotest.test_case "--buses widens the domain fan-in" `Quick (fun () ->
      let run ?buses () =
        match
          Canalyzer.clint ~jobs:1 ?buses ~txns:8
            ~workloads:(Canalyzer.cfind ~workload:"dqueue/fof" ())
            ()
        with
        | [ r ] -> r.Analyzer.result.Rules.stats.Rules.events
        | _ -> Alcotest.fail "expected one dqueue/fof report"
      in
      Alcotest.(check bool) "more producers, more events" true
        (run ~buses:5 () > run ()))

(* --- shard service race lint ----------------------------------------- *)

let shard_params =
  {
    Service.default with
    Service.shards = 2;
    clients = 16;
    requests = 400;
    keyspace = 200;
    grow_at = Some 5;
    migrate_batch = 16;
    race_lint = true;
    seed = 11;
  }

let shard_race_tests =
  [
    Alcotest.test_case "clean migration passes the race lint" `Slow (fun () ->
        let report = Service.run ~jobs:2 shard_params in
        let errs, advs = Service.race_errors report in
        Alcotest.(check (pair int int)) "no race diagnostics" (0, 0) (errs, advs);
        Alcotest.(check int) "no acked loss" 0 report.Service.lost_acked;
        match report.Service.race with
        | None -> Alcotest.fail "race_lint produced no result"
        | Some r ->
            Alcotest.(check bool) "interleaved events observed" true
              (r.Rules.stats.Rules.events > 0));
    Alcotest.test_case "broken handoff convicted by R8" `Slow (fun () ->
        let report =
          Service.run ~jobs:2 { shard_params with Service.broken_handoff = true }
        in
        let errs, _ = Service.race_errors report in
        Alcotest.(check bool) "R8 errors raised" true (errs > 0);
        match report.Service.race with
        | None -> Alcotest.fail "race_lint produced no result"
        | Some r ->
            Alcotest.(check bool) "every race error is R8" true
              (List.for_all
                 (fun (d : Rules.diagnostic) ->
                   match d.Rules.rule with
                   | Rules.R8 -> true
                   | Rules.R6 | Rules.R7 | Rules.R9 -> false
                   | Rules.R1 | Rules.R2 | Rules.R3 | Rules.R4 | Rules.R5
                   | Rules.R10 ->
                       d.Rules.severity = Rules.Advisory
                 )
                 r.Rules.diagnostics));
    Alcotest.test_case "broken handoff loses acked keys under the sweep" `Slow
      (fun () ->
        let sweep =
          Service.crash_sweep ~jobs:2 ~points:6
            {
              shard_params with
              Service.broken_handoff = true;
              race_lint = false;
            }
        in
        Alcotest.(check bool) "sweep convicts the sabotage" true
          (Service.sweep_violations sweep <> []));
  ]

let suite =
  [
    ("crules.vclock", vclock_tests);
    ("crules.rules", sync_table_tests @ witness_tests);
    ( "crules.agreement",
      [ agreement_matrix_test; pinned_verdicts_test; loss_implies_static_prop ] );
    ( "crules.driver",
      [ jobs_determinism_test; buses_test ] );
    ("crules.shard", shard_race_tests);
  ]
