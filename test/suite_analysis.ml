(* Static persistency-ordering analyzer: table-driven known-good /
   known-bad traces per rule, agreement with the dynamic crash checker
   on sabotaged runs, no false positives on the seed workloads, and
   byte-identical reports across job widths. *)

open Wsp_nvheap
open Wsp_analysis
module Trace = Wsp_check.Trace
module Checker = Wsp_check.Checker

(* --- synthetic traces ------------------------------------------------ *)

(* The default synthetic trace has no allocator region (R4 does not
   apply); heap-lifetime cases opt in with [~alloc_limit]. *)
let recording ?(line_size = 64) ?(alloc_base = 0) ?(alloc_limit = 0) events =
  {
    Trace.events = Array.of_list events;
    line_size;
    alloc_base;
    alloc_limit;
  }

let machine ?(fences_broken = false) ?(wsp_save_broken = false) ?psu config =
  let m = Rules.default_machine ~config () in
  {
    m with
    Rules.fences_broken;
    wsp_save_broken;
    psu = Option.value psu ~default:m.Rules.psu;
  }

let error_rules result =
  List.filter_map
    (fun (d : Rules.diagnostic) ->
      if d.Rules.severity = Rules.Error then Some d.Rules.rule else None)
    result.Rules.diagnostics
  |> List.sort_uniq compare

let advisory_rules result =
  List.filter_map
    (fun (d : Rules.diagnostic) ->
      if d.Rules.severity = Rules.Advisory then Some d.Rules.rule else None)
    result.Rules.diagnostics
  |> List.sort_uniq compare

let check_rules ~name ~machine ~recording ~errors ~advisories =
  let result = Rules.analyze machine recording in
  Alcotest.(check (list string))
    (name ^ ": errors")
    (List.map Rules.rule_name errors)
    (List.map Rules.rule_name (error_rules result));
  Alcotest.(check (list string))
    (name ^ ": advisories")
    (List.map Rules.rule_name advisories)
    (List.map Rules.rule_name (advisory_rules result))

(* Building blocks: a minimal undo transaction over one line, with the
   hole under test left in. *)
let tx_begin = Event.Tx (Event.Begin 1L)
let undo_append = Event.Log (Event.Append { kind = Txn.k_undo; n_values = 2 })
let commit_ev = Event.Tx (Event.Commit { txid = 1L; written_lines = [ 0 ] })
let commit_append = Event.Log (Event.Append { kind = Txn.k_commit; n_values = 1 })
let store0 = Event.Mem (Event.Store { addr = 0; len = 8 })
let clflush0 = Event.Mem (Event.Clflush { addr = 0 })
let wb0 = Event.Wb { line = 0; explicit = true }
let fence = Event.Mem Event.Fence
let nt k = Event.Mem (Event.Store_nt { addr = k })
let truncate = Event.Log Event.Truncate

(* The fully-correct undo transaction: data flushed and fenced before
   the commit record, commit record's NT words fenced before truncation. *)
let good_undo_tx =
  [
    tx_begin; undo_append; nt 1024; nt 1032; fence; store0; commit_ev;
    clflush0; wb0; fence; commit_append; nt 1040; fence; truncate;
  ]

let table_tests =
  let foc = machine Config.foc_ul in
  let foc_stm = machine Config.foc_stm in
  let fof = machine Config.fof in
  let cases =
    [
      ("R1 good: flushed and fenced before commit record", foc, recording good_undo_tx,
       [], []);
      ( "R1 bad: written line never flushed",
        foc,
        recording [
          tx_begin; undo_append; nt 1024; fence; store0; commit_ev;
          commit_append; nt 1040; fence; truncate;
        ],
        [ Rules.R1 ],
        [] );
      ( "R1 bad: written line flushed but not fenced",
        foc,
        recording [
          tx_begin; undo_append; nt 1024; fence; store0; commit_ev; clflush0;
          wb0; commit_append; nt 1040; fence; truncate;
        ],
        [ Rules.R1 ],
        [] );
      ( "R1 good (redo): applied data flushed before truncation",
        foc_stm,
        recording [
          tx_begin; commit_ev;
          Event.Log (Event.Append { kind = Txn.k_redo; n_values = 2 });
          commit_append; nt 1024; fence; store0; clflush0; wb0; fence;
          truncate;
        ],
        [],
        [] );
      ( "R1 bad (redo): applied data still dirty at truncation",
        foc_stm,
        recording [
          tx_begin; commit_ev;
          Event.Log (Event.Append { kind = Txn.k_redo; n_values = 2 });
          commit_append; nt 1024; fence; store0; truncate;
        ],
        [ Rules.R1 ],
        [] );
      ( "R2 bad: commit record not fenced before truncation",
        foc,
        recording [
          tx_begin; undo_append; nt 1024; fence; store0; commit_ev; clflush0;
          wb0; fence; commit_append; nt 1040; truncate;
        ],
        [ Rules.R2 ],
        [] );
      ( "R2 bad: commit record pending at end of trace",
        foc,
        recording [
          tx_begin; undo_append; nt 1024; fence; store0; commit_ev; clflush0;
          wb0; fence; commit_append; nt 1040;
        ],
        [ Rules.R2 ],
        [] );
      ( "R2 bad: journalled NT words never drained (no txns)",
        foc,
        recording [ nt 1024; nt 1032 ],
        [ Rules.R2 ],
        [] );
      ( "R3: redundant clflush of a clean line",
        foc,
        recording [ store0; clflush0; wb0; clflush0; fence ],
        [],
        [ Rules.R3 ] );
      ( "R3: fence with nothing to order",
        foc,
        recording [ fence ],
        [],
        [ Rules.R3 ] );
      ( "R3 suppressed on a fences-broken machine",
        machine ~fences_broken:true Config.foc_ul,
        recording [ fence ],
        [],
        [] );
      ( "R4 bad: store to a never-allocated address",
        foc,
        recording ~alloc_limit:65536
          [ Event.Mem (Event.Store { addr = 100; len = 8 }) ],
        [ Rules.R4 ],
        [] );
      ( "R4 bad: store to a freed block",
        foc,
        recording ~alloc_limit:65536
        [
          Event.Heap (Event.Alloc { addr = 128; size = 64 });
          Event.Mem (Event.Store { addr = 128; len = 8 });
          Event.Heap (Event.Free { addr = 128; size = 64 });
          Event.Mem (Event.Store { addr = 128; len = 8 });
        ],
        [ Rules.R4 ],
        [] );
      ( "R4 good: allocated stores and header writes are fine",
        foc,
        recording ~alloc_limit:65536
        [
          Event.Heap (Event.Alloc { addr = 128; size = 64 });
          Event.Mem (Event.Store { addr = 160; len = 8 });
          Event.Heap (Event.Header_write { addr = 64 });
          Event.Mem (Event.Store { addr = 64; len = 8 });
          Event.Heap (Event.Free { addr = 128; size = 64 });
        ],
        [],
        [] );
      ( "R5 bad: broken WSP save with dirty data",
        machine ~wsp_save_broken:true Config.fof,
        recording [ store0 ],
        [ Rules.R5 ],
        [] );
      ("R5 good: healthy save covers the footprint", fof, recording [ store0 ], [], []);
    ]
  in
  List.map
    (fun (name, m, r, errors, advisories) ->
      Alcotest.test_case name `Quick (fun () ->
          check_rules ~name ~machine:m ~recording:r ~errors ~advisories))
    cases

let r5_budget_test =
  Alcotest.test_case "R5 bad: residual window cannot cover the save path"
    `Quick (fun () ->
      (* A PSU with almost no usable hold-up energy: the Figure-4 save
         path cannot fit its worst-case window at any footprint. *)
      let weak =
        {
          Wsp_power.Psu.atx_400 with
          Wsp_power.Psu.name = "weak";
          residual_energy = Wsp_sim.Units.Energy.joules 0.25;
        }
      in
      let b =
        Wsp_core.System.save_budget ~psu:weak ~busy:true
          ~dirty_bytes:(1 lsl 20) ()
      in
      Alcotest.(check bool) "budget is blown" false b.Wsp_core.System.fits;
      let m = machine ~psu:weak Config.fof in
      let m = { m with Rules.busy = true } in
      let result = Rules.analyze m (recording [ store0 ]) in
      Alcotest.(check (list string))
        "R5 conviction"
        [ "R5" ]
        (List.map Rules.rule_name (error_rules result)))

(* --- witness sanity -------------------------------------------------- *)

let witness_tests =
  [
    Alcotest.test_case "R1 witness is the store -> commit-record chain" `Quick
      (fun () ->
        let events =
          [
            tx_begin; undo_append; nt 1024; fence; store0; commit_ev;
            commit_append; nt 1040; fence; truncate;
          ]
        in
        let result =
          Rules.analyze (machine Config.foc_ul) (recording events)
        in
        match
          List.find_opt
            (fun (d : Rules.diagnostic) -> d.Rules.rule = Rules.R1)
            result.Rules.diagnostics
        with
        | None -> Alcotest.fail "no R1 diagnostic"
        | Some d ->
            (* store0 is event 4, commit_append event 6. *)
            Alcotest.(check (list int)) "witness chain" [ 4; 6 ] d.Rules.witness;
            Alcotest.(check (option int)) "line" (Some 0) d.Rules.line;
            Alcotest.(check bool) "txid" true (d.Rules.txid = Some 1L));
    Alcotest.test_case "witnesses are ascending event indices" `Quick
      (fun () ->
        let reports =
          Analyzer.lint ~jobs:1 ~fault:Checker.Broken_fences ~txns:4 ~seed:3
            ~workloads:(Analyzer.find ~workload:"btree" ())
            ()
        in
        List.iter
          (fun (r : Analyzer.report) ->
            List.iter
              (fun (d : Rules.diagnostic) ->
                let sorted = List.sort compare d.Rules.witness in
                if sorted <> d.Rules.witness then
                  Alcotest.failf "unsorted witness in %s: %a" r.workload
                    Fmt.(list ~sep:comma int)
                    d.Rules.witness)
              r.Analyzer.result.Rules.diagnostics)
          reports);
  ]

(* --- agreement with the dynamic checker ------------------------------ *)

let no_false_positives_test =
  Alcotest.test_case "seed registry is lint-clean (R3 advisories only)" `Slow
    (fun () ->
      let reports = Analyzer.lint ~txns:8 ~seed:1 ~workloads:Analyzer.registry () in
      let errs, _advs = Analyzer.errors ~expect:[] reports in
      List.iter
        (fun (r : Analyzer.report) ->
          List.iter
            (fun (d : Rules.diagnostic) ->
              if d.Rules.severity = Rules.Error then
                Alcotest.failf "%s: %s %s" r.workload
                  (Rules.rule_name d.Rules.rule)
                  d.Rules.message;
              if d.Rules.rule <> Rules.R3 then
                Alcotest.failf "%s: unexpected advisory %s" r.workload
                  (Rules.rule_name d.Rules.rule))
            r.Analyzer.result.Rules.diagnostics)
        reports;
      Alcotest.(check int) "no errors" 0 errs)

let sabotage_matrix_test =
  Alcotest.test_case
    "sabotage verdict matrix matches the dynamic checker's" `Slow (fun () ->
      let verdicts fault =
        Analyzer.lint ~txns:6 ~seed:1 ~fault ~workloads:Analyzer.registry ()
        |> List.map (fun (r : Analyzer.report) ->
               let errs, _ = Analyzer.errors ~expect:[] [ r ] in
               (r.Analyzer.workload, errs > 0))
      in
      (* Broken fences: every workload durable without WSP (commit-seal
         and msync backends) must be convicted statically; flush-on-fail
         never relies on fences. *)
      List.iter
        (fun (name, convicted) ->
          let durable =
            match Analyzer.find ~workload:name () with
            | [ w ] -> Config.is_durable_without_wsp w.Analyzer.config
            | _ -> Alcotest.failf "ambiguous workload %s" name
          in
          if convicted <> durable then
            Alcotest.failf
              "fences: %s convicted=%b but durable_without_wsp=%b" name
              convicted durable)
        (verdicts Checker.Broken_fences);
      (* Broken WSP save: exactly the flush-on-fail workloads. *)
      List.iter
        (fun (name, convicted) ->
          let is_fof =
            match Analyzer.find ~workload:name () with
            | [ w ] -> not (Config.is_durable_without_wsp w.Analyzer.config)
            | _ -> Alcotest.failf "ambiguous workload %s" name
          in
          if convicted <> is_fof then
            Alcotest.failf "wsp-save: %s convicted=%b but fof=%b" name
              convicted is_fof)
        (verdicts Checker.Broken_wsp_save))

(* Any crash point the dynamic checker proves lost under broken fences
   must already be convicted statically — the analyzer dominates the
   sampled dynamic search on this fault class. *)
let dynamic_implies_static_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"dynamic fences conviction implies static"
       ~count:6
       QCheck2.Gen.(
         triple (int_range 0 2) (int_range 0 1) (int_range 1 1000))
       (fun (k, c, seed) ->
         let kind =
           List.nth [ Checker.Btree; Checker.Hash_table; Checker.Skiplist ] k
         in
         let config = List.nth [ Config.foc_ul; Config.foc_stm ] c in
         let dynamic =
           Checker.check ~jobs:1 ~points:40 ~txns:4 ~shrink:false
             ~fault:Checker.Broken_fences ~kind ~config ~seed ()
         in
         let static =
           Rules.analyze
             (machine ~fences_broken:true config)
             (Checker.record_workload ~txns:4 ~fault:Checker.Broken_fences
                ~kind ~config ~seed ())
         in
         dynamic.Checker.violations = [] || error_rules static <> []))

(* --- determinism ----------------------------------------------------- *)

let jobs_determinism_test =
  Alcotest.test_case "JSON report is byte-identical at jobs 1 and 4" `Slow
    (fun () ->
      let run jobs =
        Analyzer.lint ~jobs ~txns:6 ~seed:1 ~workloads:Analyzer.registry ()
        |> Analyzer.to_json ~expect:[ Rules.R3 ]
      in
      Alcotest.(check string) "identical" (run 1) (run 4))

let registry_tests =
  [
    Alcotest.test_case "registry names are unique and well-formed" `Quick
      (fun () ->
        let names = List.map (fun w -> w.Analyzer.name) Analyzer.registry in
        Alcotest.(check int)
          "unique" (List.length names)
          (List.length (List.sort_uniq compare names));
        List.iter
          (fun n ->
            if not (String.contains n '/') then
              Alcotest.failf "no config slug in %S" n)
          names);
    Alcotest.test_case "find filters by structure and config" `Quick
      (fun () ->
        Alcotest.(check int)
          "hash_table entries" 6
          (List.length (Analyzer.find ~workload:"hash_table" ()));
        Alcotest.(check bool)
          "config filter" true
          (List.for_all
             (fun w -> Analyzer.config_slug w.Analyzer.config = "fof")
             (Analyzer.find ~config:"fof" ()));
        Alcotest.(check int)
          "exact id" 1
          (List.length (Analyzer.find ~workload:"btree/foc-ul" ())));
  ]

let suite =
  [
    ("analysis.rules", table_tests @ [ r5_budget_test ] @ witness_tests);
    ( "analysis.agreement",
      [
        no_false_positives_test;
        sabotage_matrix_test;
        dynamic_implies_static_prop;
      ] );
    ("analysis.driver", registry_tests @ [ jobs_determinism_test ]);
  ]
