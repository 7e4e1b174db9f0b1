(* Crash-consistency checker: certification matrix, fault detection,
   determinism, and parallel-equality tests. Point counts are kept small
   here (the 1000-point certification runs in CI and EXPERIMENTS.md);
   what matters is that every configuration × structure cell is
   exercised through the full record → inject → recover → judge cycle. *)

open Wsp_check
open Wsp_nvheap

let report_summary (r : Checker.report) =
  ( Checker.kind_name r.kind,
    r.config.Config.name,
    r.trace_length,
    r.points_explored,
    r.exhaustive,
    List.map (fun (v : Checker.violation) -> (v.point, v.message)) r.violations
  )

let check_clean ~kind ~config ~points () =
  let r = Checker.check ~points ~txns:10 ~ops_per_txn:3 ~setup_entries:6 ~kind ~config ~seed:42 () in
  (match r.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "%s/%s: %a" (Checker.kind_name kind) config.Config.name
        Checker.pp_violation v);
  Alcotest.(check bool) "explored something" true (r.points_explored > 0)

let certification_tests =
  List.concat_map
    (fun kind ->
      List.map
        (fun config ->
          Alcotest.test_case
            (Printf.sprintf "%s under %s is crash-consistent"
               (Checker.kind_name kind) config.Config.name)
            `Slow
            (check_clean ~kind ~config ~points:120))
        Config.[ foc_ul; foc_stm; fof ])
    Checker.all_kinds

let fault_tests =
  [
    Alcotest.test_case "broken fences are detected and shrunk" `Slow (fun () ->
        let r =
          Checker.check ~points:200 ~txns:8 ~kind:Checker.Hash_table
            ~config:Config.foc_stm ~fault:Checker.Broken_fences ~seed:42 ()
        in
        Alcotest.(check bool) "violations found" true (r.violations <> []);
        match r.shrunk with
        | None -> Alcotest.fail "no shrunk reproducer"
        | Some s ->
            Alcotest.(check bool) "reproducer is non-empty" true
              (s.script <> [] && s.trace_length > 0));
    Alcotest.test_case "broken WSP save is detected" `Slow (fun () ->
        let r =
          Checker.check ~points:150 ~txns:8 ~kind:Checker.Btree
            ~config:Config.fof ~fault:Checker.Broken_wsp_save ~seed:42 ()
        in
        Alcotest.(check bool) "violations found" true (r.violations <> []);
        match r.violations with
        | [] -> assert false
        | v :: _ ->
            Alcotest.(check bool) "oracle produced a diagnosis" true
              (String.length v.message > 0));
    Alcotest.test_case "cyclic corruption yields a diverged verdict, not a hang"
      `Slow (fun () ->
        (* Regression: skiplist (and undo-list) recovery walked forever
           over torn next-pointers that formed a cycle — this exact cell
           used to hang the whole checker at >=500 points. The Nvram
           step budget must turn the unbounded walk into an explicit
           recovery-diverged violation. *)
        let r =
          Checker.check ~points:500 ~txns:32 ~kind:Checker.Skiplist
            ~config:Config.foc_ul ~fault:Checker.Broken_fences ~shrink:false
            ~seed:42 ()
        in
        Alcotest.(check bool) "violations found" true (r.violations <> []);
        let diverged =
          List.exists
            (fun (v : Checker.violation) ->
              let is_sub needle hay =
                let nl = String.length needle and hl = String.length hay in
                let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
                go 0
              in
              is_sub "recovery diverged" v.message)
            r.violations
        in
        Alcotest.(check bool) "a diverged verdict is reported" true diverged);
    Alcotest.test_case "faults are attributed, not blamed on formatting" `Quick
      (fun () ->
        (* Point 0 cuts before the first workload event; even with broken
           fences the freshly-formatted structure must recover (mkfs is
           not under test). *)
        let r =
          Checker.check ~points:1 ~txns:1 ~setup_entries:0
            ~kind:Checker.Hash_table ~config:Config.foc_ul
            ~fault:Checker.Broken_fences ~shrink:false ~seed:42 ()
        in
        List.iter
          (fun (v : Checker.violation) ->
            if v.point = 0 then
              Alcotest.failf "point 0 violated: %s" v.message)
          r.violations);
  ]

let determinism_tests =
  [
    Alcotest.test_case "same seed, same report" `Slow (fun () ->
        let run () =
          Checker.check ~points:100 ~txns:8 ~kind:Checker.Btree
            ~config:Config.foc_ul ~seed:7 ()
        in
        let a = run () and b = run () in
        Alcotest.(check bool) "reports equal" true
          (report_summary a = report_summary b));
    Alcotest.test_case "different seeds explore different traces" `Slow
      (fun () ->
        let run seed =
          Checker.check ~points:50 ~txns:8 ~kind:Checker.Hash_table
            ~config:Config.foc_stm ~seed ()
        in
        let a = run 1 and b = run 2 in
        Alcotest.(check bool) "trace lengths differ" true
          (a.Checker.trace_length <> b.Checker.trace_length
          || a.Checker.points_explored > 0));
    Alcotest.test_case "parallel fan-out equals sequential" `Slow (fun () ->
        (* Satellite 3: the crash-point pool must not change results. *)
        let run jobs =
          Checker.check ~jobs ~points:80 ~txns:8 ~kind:Checker.Skiplist
            ~config:Config.foc_stm ~seed:11 ()
        in
        let seq = run 1 and par = run 4 in
        Alcotest.(check bool) "identical reports" true
          (report_summary seq = report_summary par));
    Alcotest.test_case "short traces are exhaustive" `Quick (fun () ->
        let r =
          Checker.check ~points:100_000 ~txns:2 ~ops_per_txn:1
            ~setup_entries:1 ~kind:Checker.Hash_table ~config:Config.foc_ul
            ~seed:3 ()
        in
        Alcotest.(check bool) "exhaustive" true r.Checker.exhaustive;
        Alcotest.(check int) "every event is a point" r.Checker.trace_length
          r.Checker.points_explored);
  ]

let protocol_tests =
  [
    Alcotest.test_case "save protocol sweep is violation-free" `Quick (fun () ->
        let results = Protocol_check.run ~seed:42 () in
        match Protocol_check.violations results with
        | [] -> ()
        | r :: _ ->
            Alcotest.failf "%a" Protocol_check.pp_result r);
    Alcotest.test_case "disabling marker validation is caught" `Quick (fun () ->
        let results = Protocol_check.run ~validate_marker:false ~seed:42 () in
        Alcotest.(check bool) "ablation produces violations" true
          (Protocol_check.violations results <> []));
  ]

let trace_tests =
  [
    Alcotest.test_case "trace records stores, fences and txn markers" `Quick
      (fun () ->
        let rng = Wsp_sim.Rng.create ~seed:5 in
        let script =
          Checker.gen_script ~rng ~txns:3 ~ops_per_txn:2 ~keyspace:10
            ~setup_entries:2
        in
        let r =
          Checker.check ~points:1 ~txns:3 ~ops_per_txn:2 ~keyspace:10
            ~setup_entries:2 ~kind:Checker.Hash_table ~config:Config.foc_ul
            ~seed:5 ()
        in
        Alcotest.(check bool) "script generated" true (List.length script = 5);
        Alcotest.(check bool) "trace non-trivial" true (r.trace_length > 10));
  ]

(* --- Incremental engine vs full-replay reference -------------------------- *)

(* The incremental engine reconstructs every crash image from one golden
   recording; the full-replay engine re-executes the workload per point.
   They must be indistinguishable in everything a report exposes —
   verdicts, violation messages, shrunk witnesses, JSON rendering —
   across workloads, configurations, faults, seeds, and snapshot
   strides (including 1 = waypoint per point and 0 = no waypoints at
   all, the stride=∞ behaviour where every chunk replays from the base
   image). [reports_to_json] is the comparison: byte equality there is
   the same contract the CI determinism gate enforces on the CLI. *)
let engine_equivalence_test =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"incremental engine == full replay" ~count:12
       QCheck2.Gen.(
         let kind = oneofl Checker.all_kinds in
         let config = oneofl Config.[ foc_ul; foc_stm; fof; msync ] in
         let fault =
           oneofl
             Checker.[ No_fault; Broken_fences; Broken_wsp_save ]
         in
         let stride = oneofl [ 0; 1; 3; 17; 100_000 ] in
         tup6 kind config fault stride (int_range 0 999) (int_range 2 4))
       (fun (kind, config, fault, stride, seed, txns) ->
         let run engine =
           Checker.check ~jobs:1 ~points:20 ~txns ~ops_per_txn:3
             ~setup_entries:2 ~fault ~engine ~snapshot_stride:stride ~kind
             ~config ~seed ()
         in
         Checker.reports_to_json [ run Checker.Incremental ]
         = Checker.reports_to_json [ run Checker.Full_replay ]))

(* Two fixed cells at the CLI's defaults ([wsp-sim check --workload ...
   --config ... --points N --txns N]): a clean one, and a sabotaged one
   whose report carries violations and a shrunk witness. *)
let engine_cell_tests =
  let cell name ~kind ~config ~fault ~points ~txns ~violating =
    Alcotest.test_case name `Slow (fun () ->
        let run engine =
          Checker.check ~points ~txns ~fault ~engine ~kind ~config ~seed:42 ()
        in
        let inc = run Checker.Incremental in
        Alcotest.(check bool) "violations" violating (inc.violations <> []);
        Alcotest.(check bool) "shrunk" violating (inc.shrunk <> None);
        Alcotest.(check string) "JSON"
          (Checker.reports_to_json [ run Checker.Full_replay ])
          (Checker.reports_to_json [ inc ]))
  in
  [
    cell "hash_table/undo cell: incremental JSON == full replay"
      ~kind:Checker.Hash_table ~config:Config.foc_ul ~fault:Checker.No_fault
      ~points:200 ~txns:8 ~violating:false;
    cell "block_kv/wsp broken wsp-save cell: incremental JSON == full replay"
      ~kind:Checker.Block_kv ~config:Config.fof ~fault:Checker.Broken_wsp_save
      ~points:120 ~txns:6 ~violating:true;
  ]

(* The judge recovers on the cursor's own backing and must put back
   every line it touched, on every exit path: a clean verdict, a failed
   oracle, a recovery that exhausts its step budget, and a
   flush-on-fail image diff. After each verdict the judged cursor must
   equal a reference cursor that was only ever seeked. *)
let same_state (a : Replay.state) (b : Replay.state) =
  let bindings t =
    Hashtbl.fold (fun line data acc -> (line, Bytes.to_string data) :: acc) t []
    |> List.sort compare
  in
  Bytes.equal a.backing b.backing
  && bindings a.overlay = bindings b.overlay
  && List.of_seq (Queue.to_seq a.wc) = List.of_seq (Queue.to_seq b.wc)

let in_place_tests =
  let cell ~kind ~config ~fault ~txns ~expect =
    Alcotest.test_case
      (Printf.sprintf "%s/%s/%s: judging leaves the cursor intact"
         (Checker.kind_name kind) config.Config.name (Checker.fault_name fault))
      `Slow (fun () ->
        let rng = Wsp_sim.Rng.create ~seed:42 in
        let script =
          Checker.gen_script ~rng ~txns ~ops_per_txn:3 ~keyspace:40
            ~setup_entries:16
        in
        let g = Checker.record_golden ~stride:256 ~kind ~config ~fault script in
        let rp = Checker.golden_replay g in
        let judged = Replay.cursor rp and reference = Replay.cursor rp in
        let seen = ref false in
        for mark = 0 to Replay.marks rp - 1 do
          (match (Checker.judge_marks ~cursor:judged g [ mark ], expect) with
          | [ (_, Some m) ], Some prefix
            when String.starts_with ~prefix m ->
              seen := true
          | _ -> ());
          Replay.seek reference ~mark;
          if not (same_state (Replay.state judged) (Replay.state reference))
          then Alcotest.failf "mark %d: the judge left the cursor changed" mark
        done;
        match expect with
        | Some prefix ->
            Alcotest.(check bool) (prefix ^ " verdict seen") true !seen
        | None -> ())
  in
  let scribbled_backing_restored () =
    let src = Nvram.create ~size:(Wsp_sim.Units.Size.kib 64) () in
    for i = 0 to 1023 do
      Nvram.write_u64 src ~addr:(56 * i) (Int64.of_int i)
    done;
    Nvram.wbinvd src;
    let st = Replay.capture src in
    let original = Bytes.copy st.backing in
    (* Every way the NVRAM writes backing: write-backs of cached
       stores, and drained non-temporal words, one straddling a line
       boundary. *)
    let scribble nv =
      for i = 0 to 2047 do
        Nvram.write_u64 nv ~addr:(16 * i) (Int64.of_int (-i))
      done;
      Nvram.wbinvd nv;
      Nvram.write_u64_nt nv ~addr:((64 * 600) + 60) 0x1122334455667788L;
      Nvram.write_u64_nt nv ~addr:(64 * 700) 42L;
      Nvram.fence nv;
      Bytes.equal (Nvram.persistent_image nv) original
    in
    Alcotest.(check bool) "backing written inside" false
      (Replay.with_nvram st scribble);
    Alcotest.(check bool) "restored after a return" true
      (Bytes.equal st.backing original);
    (match Replay.with_nvram st (fun nv -> ignore (scribble nv); raise Exit) with
    | exception Exit -> ()
    | () -> Alcotest.fail "Exit swallowed");
    Alcotest.(check bool) "restored after a raise" true
      (Bytes.equal st.backing original)
  in
  [
    Alcotest.test_case "with_nvram puts back every line it wrote" `Quick
      scribbled_backing_restored;
    cell ~kind:Checker.Hash_table ~config:Config.foc_ul
      ~fault:Checker.Broken_fences ~txns:8 ~expect:(Some "structural invariant");
    cell ~kind:Checker.Btree ~config:Config.foc_ul ~fault:Checker.Broken_fences
      ~txns:4 ~expect:(Some "recovery diverged");
    cell ~kind:Checker.Skiplist ~config:Config.foc_stm ~fault:Checker.No_fault
      ~txns:4 ~expect:None;
    cell ~kind:Checker.Block_kv ~config:Config.foc_ul ~fault:Checker.No_fault
      ~txns:1 ~expect:None;
    cell ~kind:Checker.Hash_table ~config:Config.fof
      ~fault:Checker.Broken_wsp_save ~txns:4 ~expect:(Some "image completeness");
  ]

(* A cursor judges all its points on one machine, crashed and cleared
   between points. Judging every mark of a cell through one cursor must
   give what a new cursor (and so a new machine) per point gives: the
   same verdicts and the same counts in the registry. Each cell would
   show state a reset leaves behind: a broken-fence fault, a step budget
   a diverged recovery spent, and a scratch heap block_kv's recovery
   reformats with cached stores. *)
let reused_judge_tests =
  let cell ~kind ~config ~fault ~txns =
    Alcotest.test_case
      (Printf.sprintf "%s/%s/%s: one judge machine == one per point"
         (Checker.kind_name kind) config.Config.name (Checker.fault_name fault))
      `Slow (fun () ->
        let rng = Wsp_sim.Rng.create ~seed:42 in
        let script =
          Checker.gen_script ~rng ~txns ~ops_per_txn:3 ~keyspace:40
            ~setup_entries:4
        in
        let g = Checker.record_golden ~stride:256 ~kind ~config ~fault script in
        let marks = List.init (Replay.marks (Checker.golden_replay g)) Fun.id in
        let counted judge =
          Wsp_obs.Metrics.reset_all ();
          let verdicts = judge () in
          (verdicts, Wsp_obs.Metrics.to_json (Wsp_obs.Metrics.ambient ()))
        in
        let one_v, one_m = counted (fun () -> Checker.judge_marks g marks) in
        let fresh_v, fresh_m =
          counted (fun () ->
              List.concat_map (fun m -> Checker.judge_marks g [ m ]) marks)
        in
        Alcotest.(check bool) "some point judged" true (one_v <> []);
        Alcotest.(check (list (pair int (option string)))) "verdicts" fresh_v one_v;
        Alcotest.(check string) "machine.cache.* and nvheap.* counts" fresh_m one_m)
  in
  [
    cell ~kind:Checker.Hash_table ~config:Config.foc_ul
      ~fault:Checker.Broken_fences ~txns:4;
    cell ~kind:Checker.Btree ~config:Config.foc_ul ~fault:Checker.Broken_fences
      ~txns:4;
    cell ~kind:Checker.Block_kv ~config:Config.foc_ul ~fault:Checker.No_fault
      ~txns:1;
  ]

(* The flat recorder must rebuild every crash state exactly. For each
   mark, a cursor's state must equal [Replay.capture] of a live run
   frozen there, whether the cursor reached the mark by seeking forward
   or by restoring backward from a waypoint (a second cursor visits the
   marks in descending order). block_kv's journal leaves non-temporal
   words queued across waypoints; msync keeps dirty lines in the
   overlay. Stride 0 has no waypoints; 16 has many. *)
let recorder_tests =
  let cell ~kind ~config ~txns =
    Alcotest.test_case
      (Printf.sprintf "%s/%s: cursor states == frozen live runs"
         (Checker.kind_name kind) config.Config.name)
      `Slow (fun () ->
        let rng = Wsp_sim.Rng.create ~seed:42 in
        let script =
          Checker.gen_script ~rng ~txns ~ops_per_txn:3 ~keyspace:40
            ~setup_entries:2
        in
        let fault = Checker.No_fault in
        let live =
          let g = Checker.record_golden ~stride:0 ~kind ~config ~fault script in
          Array.init (Replay.marks (Checker.golden_replay g)) (fun point ->
              match Checker.crash_state ~kind ~config ~fault ~point script with
              | Some st -> st
              | None -> Alcotest.failf "mark %d: the live run ended first" point)
        in
        let marks = Array.length live in
        Alcotest.(check bool) "a trace to cut" true (marks > 32);
        List.iter
          (fun stride ->
            let rp =
              Checker.golden_replay
                (Checker.record_golden ~stride ~kind ~config ~fault script)
            in
            Alcotest.(check int) "marks" marks (Replay.marks rp);
            let forward = Replay.cursor rp and backward = Replay.cursor rp in
            for mark = 0 to marks - 1 do
              Replay.seek forward ~mark;
              if not (same_state (Replay.state forward) live.(mark)) then
                Alcotest.failf "stride %d: forward to mark %d differs" stride mark
            done;
            for mark = marks - 1 downto 0 do
              Replay.seek backward ~mark;
              if not (same_state (Replay.state backward) live.(mark)) then
                Alcotest.failf "stride %d: back to mark %d differs" stride mark
            done)
          [ 256; 16; 0 ])
  in
  [
    cell ~kind:Checker.Block_kv ~config:Config.foc_ul ~txns:1;
    cell ~kind:Checker.Hash_table ~config:Config.msync ~txns:2;
  ]

(* --- Refusals --------------------------------------------------------------- *)

(* Parameters no run can honour raise [Invalid_argument] up front, which
   the CLI reports as a usage error (exit 2), rather than failing deep
   inside a run or producing a report over nothing. *)
let refusal_tests =
  let module Storm = Wsp_cluster.Recovery_storm in
  let module Units = Wsp_sim.Units in
  let module Time = Wsp_sim.Time in
  let check ?(points = 10) ?(txns = 2) ?(stride = 256) () () =
    ignore
      (Checker.check ~jobs:1 ~points ~txns ~snapshot_stride:stride
         ~kind:Checker.Hash_table ~config:Config.foc_ul ~seed:1 ())
  in
  let run p () = ignore (Storm.run p) in
  let d = Storm.default in
  let fleet f () = ignore (Storm.storm f) in
  let f = { Storm.default_fleet with nodes = 10 } in
  let select budget () =
    ignore (Crash.select ~rng:(Wsp_sim.Rng.create ~seed:1) ~total:10 ~budget)
  in
  let sweep points () =
    ignore
      (Wsp_shard.Service.crash_sweep ~points
         { Wsp_shard.Service.default with grow_at = Some 1 })
  in
  (* One case per malformed value: (case, expected message, thunk). *)
  List.map
    (fun (name, msg, thunk) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.check_raises msg (Invalid_argument msg) thunk))
    [
      ("check points 0", "Checker.check: points must be positive",
        check ~points:0 ());
      ("check points -3", "Checker.check: points must be positive",
        check ~points:(-3) ());
      ("check txns -1", "Checker.check: negative txns", check ~txns:(-1) ());
      ("check stride -1", "Checker.check: negative snapshot_stride",
        check ~stride:(-1) ());
      ("select budget 0", "Crash.select: budget must be positive", select 0);
      ("select budget -3", "Crash.select: budget must be positive",
        select (-3));
      ("sweep points 0", "Service.crash_sweep: points must be positive",
        sweep 0);
      ("sweep points -3", "Service.crash_sweep: points must be positive",
        sweep (-3));
      ("run servers 0", "Recovery_storm.run: servers must be positive",
        run { d with servers = 0 });
      ("run state -1 GiB", "Recovery_storm.run: negative state_per_server",
        run { d with state_per_server = Units.Size.gib (-1) });
      ("run outage -1 s", "Recovery_storm.run: negative outage",
        run { d with outage = Time.s (-1.0) });
      ("storm nodes -5", "Recovery_storm.storm: no nodes",
        fleet { f with nodes = -5 });
      ("storm state -1 GiB", "Recovery_storm.storm: negative state_per_server",
        fleet { f with node = { d with state_per_server = Units.Size.gib (-1) } });
      ("storm outage -1 s", "Recovery_storm.storm: negative outage",
        fleet { f with node = { d with outage = Time.s (-1.0) } });
      ("storm slots 0",
        "Recovery_storm.storm: restore_concurrency must be positive",
        fleet { f with restore_concurrency = 0 });
      ("storm horizon 0", "Recovery_storm.storm: horizon must be positive",
        fleet { f with horizon = Time.zero });
      ("storm stagger -1 s", "Recovery_storm.storm: negative stagger",
        fleet { f with stagger = Time.s (-1.0) });
      ("storm spares -1", "Recovery_storm.storm: negative spares",
        fleet { f with spares = -1 });
      ("storm failures 20 of 10 nodes",
        "Recovery_storm.storm: failures out of range",
        fleet { f with failures = 20 });
    ]

let suite =
  [
    ("check.certification", certification_tests);
    ("check.faults", fault_tests);
    ( "check.determinism",
      determinism_tests @ [ engine_equivalence_test ] @ engine_cell_tests );
    ("check.in_place", in_place_tests);
    ("check.reused_judge", reused_judge_tests);
    ("check.recorder", recorder_tests);
    ("check.refusals", refusal_tests);
    ("check.protocol", protocol_tests);
    ("check.trace", trace_tests);
  ]
