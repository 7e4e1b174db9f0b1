(* Tests for the persistency event bus: dispatch/subscription semantics,
   multi-observer composition (recording + metrics + crash injection on
   one heap), the Trace.detach regression, and streaming-vs-recorded
   rule-engine equivalence. *)

open Wsp_sim
open Wsp_nvheap
module Bus = Wsp_events.Bus
module Trace = Wsp_check.Trace
module Checker = Wsp_check.Checker
module Analyzer = Wsp_analysis.Analyzer
module Rules = Wsp_analysis.Rules
module Metrics = Wsp_obs.Metrics

(* --- Bus ------------------------------------------------------------------ *)

exception Boom

let bus_tests =
  [
    Alcotest.test_case "publish reaches subscribers in subscription order"
      `Quick (fun () ->
        let b = Bus.create () in
        let log = ref [] in
        let _s1 = Bus.subscribe b (fun v -> log := (1, v) :: !log) in
        let _s2 = Bus.subscribe b (fun v -> log := (2, v) :: !log) in
        Alcotest.(check int) "two subscribers" 2 (Bus.subscriber_count b);
        Bus.publish b 7;
        Alcotest.(check (list (pair int int)))
          "in order" [ (1, 7); (2, 7) ] (List.rev !log));
    Alcotest.test_case "zero-subscriber publish is a no-op" `Quick (fun () ->
        let b = Bus.create () in
        Alcotest.(check int) "empty" 0 (Bus.subscriber_count b);
        Bus.publish b 42);
    Alcotest.test_case "unsubscribe removes exactly one and is idempotent"
      `Quick (fun () ->
        let b = Bus.create () in
        let hits = ref 0 in
        let s1 = Bus.subscribe b (fun () -> incr hits) in
        let s2 = Bus.subscribe b (fun () -> incr hits) in
        Bus.unsubscribe s1;
        Bus.publish b ();
        Alcotest.(check int) "one left" 1 !hits;
        Bus.unsubscribe s1;
        (* Repeated cancels must not disturb the surviving subscriber. *)
        Alcotest.(check int) "still one" 1 (Bus.subscriber_count b);
        Bus.publish b ();
        Alcotest.(check int) "still firing" 2 !hits;
        Bus.unsubscribe s2;
        Alcotest.(check int) "empty" 0 (Bus.subscriber_count b));
    Alcotest.test_case "a raising subscriber propagates and skips the rest"
      `Quick (fun () ->
        let b = Bus.create () in
        let later = ref 0 in
        let _s1 = Bus.subscribe b (fun () -> raise Boom) in
        let _s2 = Bus.subscribe b (fun () -> incr later) in
        Alcotest.(check bool) "raises" true
          (try
             Bus.publish b ();
             false
           with Boom -> true);
        (* The crash-injection contract: nothing after the raise runs. *)
        Alcotest.(check int) "later subscriber skipped" 0 !later);
    Alcotest.test_case "active tracks subscribers" `Quick (fun () ->
        let b = Bus.create () in
        Alcotest.(check bool) "idle" false (Bus.active b);
        let s = Bus.subscribe b ignore in
        Alcotest.(check bool) "active" true (Bus.active b);
        Bus.unsubscribe s;
        Alcotest.(check bool) "idle again" false (Bus.active b));
    Alcotest.test_case "with_subscriber scopes over exceptions" `Quick
      (fun () ->
        let b = Bus.create () in
        (try Bus.with_subscriber b (fun _ -> ()) (fun () -> raise Exit)
         with Exit -> ());
        Alcotest.(check int) "unsubscribed" 0 (Bus.subscriber_count b));
  ]

(* --- Trace on the bus ----------------------------------------------------- *)

let mk_heap ?(config = Config.foc_ul) () =
  Pheap.create ~config ~size:(Units.Size.kib 256)
    ~log_size:(Units.Size.kib 64) ()

let trace_tests =
  [
    Alcotest.test_case "detach removes exactly its own recorder" `Quick
      (fun () ->
        let heap = mk_heap () in
        let a = Pheap.alloc heap 64 in
        let tr1 = Trace.create () and tr2 = Trace.create () in
        Trace.instrument tr1 heap;
        Trace.instrument tr2 heap;
        Pheap.with_tx heap (fun () -> Pheap.write_u64 heap ~addr:a 1L);
        Trace.detach tr1;
        Pheap.with_tx heap (fun () -> Pheap.write_u64 heap ~addr:(a + 8) 2L);
        Trace.detach tr2;
        let e1 = Trace.events tr1 and e2 = Trace.events tr2 in
        Alcotest.(check bool) "tr2 kept recording after tr1 detached" true
          (Array.length e2 > Array.length e1);
        Alcotest.(check bool) "identical shared prefix" true
          (Array.sub e2 0 (Array.length e1) = e1);
        (* Detaching again is harmless and disturbs nothing. *)
        Trace.detach tr1;
        Trace.detach tr2;
        Alcotest.(check int) "tr2 recording is final" (Array.length e2)
          (Array.length (Trace.events tr2)));
    Alcotest.test_case "instrumenting an attached trace raises" `Quick
      (fun () ->
        let heap = mk_heap () in
        let tr = Trace.create () in
        Trace.instrument tr heap;
        Alcotest.check_raises "second instrument"
          (Invalid_argument "Trace.instrument: trace already attached")
          (fun () -> Trace.instrument tr heap);
        Trace.detach tr);
    (* These strings reach [check --json]'s [where], the lint's witness
       chains and the race lint's witnesses. *)
    Alcotest.test_case "the vocabulary's printed form is pinned" `Quick
      (fun () ->
        let str pp v = Fmt.str "%a" pp v in
        List.iter
          (fun (ev, want) -> Alcotest.(check string) want want (str Event.pp ev))
          Event.
            [
              (Mem (Store { addr = 64; len = 8 }), "store[64,+8]");
              (Mem (Store_nt { addr = 72 }), "store-nt[72]");
              (Mem Fence, "fence");
              (Mem (Clflush { addr = 128 }), "clflush[128]");
              (Mem (Flush_range { addr = 0; len = 256 }), "flush[0,+256]");
              (Mem Wbinvd, "wbinvd");
              (Log (Append { kind = 1; n_values = 2 }), "log-append(kind=1,n=2)");
              (Log Truncate, "log-truncate");
              (Tx (Begin 7L), "tx-begin(7)");
              ( Tx (Commit { txid = 7L; written_lines = [ 0; 64 ] }),
                "tx-commit(7,2 lines)" );
              (Tx (Abort 7L), "tx-abort(7)");
              (Wb { line = 3; explicit = true }, "writeback[line 3,flush]");
              (Wb { line = 3; explicit = false }, "writeback[line 3,evict]");
              (Heap (Alloc { addr = 128; size = 64 }), "alloc[128,+64]");
              (Heap (Free { addr = 128; size = 64 }), "free[128,+64]");
              (Heap (Header_write { addr = 120 }), "heap-header[120]");
            ];
        List.iter
          (fun (sy, want) ->
            Alcotest.(check string) want want (str Event.pp_sync sy))
          Event.
            [
              (Write { obj = 0x2aL; addr = 4096 }, "write obj=0x2a @0x1000");
              (Write { obj = 0x2aL; addr = -1 }, "write obj=0x2a (tx)");
              (Read { obj = 0x2aL }, "read obj=0x2a");
              (Ack { obj = 0x2aL }, "ack obj=0x2a");
              (Publish { chan = 3 }, "publish chan 3");
              (Acquire { chan = 3 }, "acquire chan 3");
              (Handoff_persist { obj = 0x2aL }, "handoff-persist obj=0x2a");
              (Tombstone { obj = 0x2aL }, "tombstone obj=0x2a");
              (Barrier, "barrier");
            ];
        (* Crash point k names its memory event and the nearest [Log] or
           [Tx] annotation before it; [Wb] and [Heap] are not context. *)
        let stream =
          Event.
            [|
              Heap (Alloc { addr = 128; size = 64 });
              Mem (Store { addr = 128; len = 8 });
              Tx (Begin 1L);
              Mem (Clflush { addr = 0 });
              Log (Append { kind = 1; n_values = 2 });
              Heap (Header_write { addr = 120 });
              Wb { line = 0; explicit = true };
              Mem Fence;
            |]
        in
        List.iteri
          (fun k want ->
            Alcotest.(check string) want want (Trace.describe_mem stream k))
          [
            "before store[128,+8]";
            "before clflush[0] (in tx-begin(1))";
            "before fence (in log-append(kind=1,n=2))";
            "mem event 3 (beyond trace)";
          ]);
  ]

(* --- concurrent observers -------------------------------------------------- *)

let counter_names =
  [
    "nvheap.fences";
    "nvheap.log.appends";
    "nvheap.log.append_words";
    "nvheap.log.truncates";
    "nvheap.txn.commits";
    "nvheap.txn.aborts";
  ]

(* The six counter values in [reg], in [counter_names] order. *)
let counter_values reg =
  List.map (fun n -> Metrics.Counter.value (Metrics.counter reg n)) counter_names

(* One run between its [observe] and [finish]: what the heap's registry
   counted inline, and what [Event_obs.attach] counted from the bus into
   its own registry. *)
let inline_and_reference run =
  let reference = Metrics.create () in
  let start = ref [] and sub = ref None and inline = ref [] in
  let values heap = counter_values (Nvram.metrics (Pheap.nvram heap)) in
  run
    ~observe:(fun heap ->
      start := values heap;
      sub := Some (Event_obs.attach ~metrics:reference (Pheap.bus heap)))
    ~finish:(fun heap ->
      Option.iter Bus.unsubscribe !sub;
      inline := List.map2 ( - ) (values heap) !start);
  (!inline, counter_values reference)

(* Six commits and one abort on a heap counting into a private
   registry. *)
let run_private config ~observe ~finish =
  let len = Units.Size.to_bytes (Units.Size.kib 256) in
  let nvram = Nvram.create ~metrics:(Metrics.create ()) ~size:(Units.Size.kib 256) () in
  let heap =
    Pheap.create_in ~config ~log_size:(Units.Size.kib 64) ~nvram ~base:0 ~len ()
  in
  let a = Pheap.alloc heap 64 in
  observe heap;
  for i = 1 to 6 do
    Pheap.with_tx heap (fun () -> Pheap.write_u64 heap ~addr:a (Int64.of_int i))
  done;
  Pheap.begin_tx heap;
  Pheap.write_u64 heap ~addr:a 99L;
  Pheap.abort heap;
  Pheap.quiesce heap;
  finish heap

let observer_tests =
  [
    Alcotest.test_case "inline nvheap counters match the event-derived reference"
      `Quick (fun () ->
        (* Every backend on a private registry, then lint's bank workload
           under each of its configs ([bank] aborts every third of its 32
           transactions). Fences and log counts must be what the bus
           carried; commits and aborts the workload's totals, which the
           bus does not carry under [No_log]. *)
        let cases =
          List.map
            (fun c -> (c.Config.name, (6, 1), run_private c))
            Config.all_backends
          @ List.map
              (fun (w : Analyzer.workload) ->
                (w.name, (22, 10), w.run ~fault:Checker.No_fault ~txns:32 ~seed:1))
              (Analyzer.find ~workload:"bank" ())
        in
        let counted =
          List.fold_left
            (fun counted (name, (commits, aborts), run) ->
              let inline, reference = inline_and_reference run in
              let want = List.filteri (fun i _ -> i < 4) reference @ [ commits; aborts ] in
              Alcotest.(check (list (pair string int)))
                name
                (List.combine counter_names want)
                (List.combine counter_names inline);
              List.map2 ( + ) counted inline)
            (List.map (fun _ -> 0) counter_names)
            cases
        in
        List.iter2
          (fun n v -> Alcotest.(check bool) (n ^ " counted") true (v > 0))
          counter_names counted);
    Alcotest.test_case "metrics totals independent of job width" `Slow
      (fun () ->
        (* The per-domain registries merge to the same totals at any
           job width. *)
        let totals jobs =
          Metrics.reset_all ();
          ignore
            (Analyzer.lint ~jobs ~workloads:(Analyzer.find ~workload:"bank" ()) ());
          List.combine counter_names (counter_values (Metrics.merged ()))
        in
        let j1 = totals 1 in
        let j4 = totals 4 in
        Metrics.reset_all ();
        Alcotest.(check (list (pair string int))) "same totals" j1 j4;
        List.iter
          (fun (n, v) -> Alcotest.(check bool) (n ^ " counted") true (v > 0))
          j1);
    Alcotest.test_case
      "checker verdicts unchanged by concurrent metrics+tracing observers"
      `Slow (fun () ->
        let run ?(jobs = 1) () =
          Checker.check ~jobs ~points:40 ~txns:6 ~shrink:false
            ~kind:Checker.Hash_table ~config:Config.foc_ul ~seed:11 ()
        in
        let s r = Fmt.str "%a" Checker.pp_report r in
        let baseline = run () in
        Wsp_obs.Tracer.set_enabled true;
        let observed = s (run ()) in
        let observed_j4 = s (run ~jobs:4 ()) in
        Wsp_obs.Tracer.set_enabled false;
        Alcotest.(check string) "observed = unobserved" (s baseline) observed;
        Alcotest.(check string) "jobs-invariant" (s baseline) observed_j4);
  ]

(* --- the per-NVRAM tally -------------------------------------------------- *)

(* The eight classes a shard once tallied with a bus subscriber, in
   [Nvram.tally] field order. *)
let classify counts (ev : Event.t) =
  let bump i = counts.(i) <- counts.(i) + 1 in
  match ev with
  | Event.Mem (Event.Store _ | Event.Store_nt _) -> bump 0
  | Event.Mem (Event.Clflush _ | Event.Flush_range _ | Event.Wbinvd) -> bump 1
  | Event.Mem Event.Fence -> bump 2
  | Event.Wb _ -> bump 3
  | Event.Tx (Event.Commit _) -> bump 4
  | Event.Log (Event.Append _) -> bump 5
  | Event.Heap (Event.Alloc _) -> bump 6
  | Event.Heap (Event.Free _) -> bump 7
  | Event.Tx (Event.Begin _ | Event.Abort _)
  | Event.Log Event.Truncate
  | Event.Heap (Event.Header_write _) -> ()

let tally_fields (t : Nvram.tally) =
  [|
    t.stores; t.flushes; t.fences; t.writebacks; t.tx_commits; t.log_appends;
    t.allocs; t.frees;
  |]

let tally_names =
  [ "stores"; "flushes"; "fences"; "writebacks"; "tx_commits"; "log_appends";
    "allocs"; "frees" ]

let tally_tests =
  [
    Alcotest.test_case "the tally matches a counting subscriber everywhere"
      `Quick (fun () ->
        List.iter
          (fun (config : Config.t) ->
            let heap =
              Pheap.create ~config ~size:(Units.Size.kib 512)
                ~log_size:(Units.Size.kib 64) ()
            in
            let nvram = Pheap.nvram heap in
            let tree = Wsp_store.Avl.create heap in
            let before = tally_fields (Nvram.tally nvram) in
            let counts = Array.make 8 0 in
            let sub = Bus.subscribe (Pheap.bus heap) (classify counts) in
            let rng = Rng.create ~seed:3 in
            for i = 1 to 300 do
              let key = Int64.of_int (Rng.int rng 100) in
              if i mod 4 = 0 then
                ignore
                  (Pheap.with_tx heap (fun () -> Wsp_store.Avl.delete tree key))
              else
                Pheap.with_tx heap (fun () ->
                    Wsp_store.Avl.insert tree ~key ~value:(Int64.of_int i))
            done;
            Pheap.begin_tx heap;
            Wsp_store.Avl.insert tree ~key:1000L ~value:1L;
            Pheap.abort heap;
            Pheap.quiesce heap;
            Nvram.flush_range nvram ~addr:0 ~len:4096;
            Pheap.wsp_flush heap;
            Bus.unsubscribe sub;
            let after = tally_fields (Nvram.tally nvram) in
            List.iteri
              (fun i name ->
                Alcotest.(check int)
                  (Printf.sprintf "%s: %s" config.Config.name name)
                  counts.(i)
                  (after.(i) - before.(i)))
              tally_names;
            Alcotest.(check bool)
              (config.Config.name ^ ": stores, allocs and frees seen")
              true
              (counts.(0) > 0 && counts.(6) > 0 && counts.(7) > 0))
          Config.all_backends);
  ]

(* --- streaming ≡ recorded -------------------------------------------------- *)

(* One run of a lint workload observed both ways at once: a recording
   for [Rules.analyze], and a rule stream fed the allocation baseline
   and then tapped onto the heap's bus — the way the shard service's
   [--lint] attaches. *)
let stream_and_record (w : Analyzer.workload) machine ~fault ~txns ~seed =
  let tr = Trace.create () in
  let tap = ref None and results = ref None in
  w.Analyzer.run ~fault ~txns ~seed
    ~observe:(fun heap ->
      Trace.instrument tr heap;
      let s =
        Rules.stream_create machine
          ~line_size:(Nvram.line_size (Pheap.nvram heap))
          ~alloc_base:(Pheap.heap_base heap)
          ~alloc_limit:(Pheap.heap_base heap + Pheap.heap_size heap)
      in
      Trace.iter_baseline heap (Rules.stream_step s);
      tap := Some (s, Bus.subscribe (Pheap.bus heap) (Rules.stream_step s)))
    ~finish:(fun heap ->
      let s, sub = Option.get !tap in
      Bus.unsubscribe sub;
      Trace.detach tr;
      results :=
        Some
          ( Rules.stream_finish s,
            Rules.analyze machine (Trace.snapshot tr heap) ));
  Option.get !results

let machine_for ?(broken = false) (w : Analyzer.workload) =
  {
    (Rules.default_machine ~config:w.Analyzer.config ()) with
    Rules.fences_broken = broken;
  }

let streaming_tests =
  [
    Alcotest.test_case "rule stream with sabotage matches recorded" `Quick
      (fun () ->
        match Analyzer.find ~workload:"bank/foc-ul" () with
        | [ w ] ->
            let streamed, recorded =
              stream_and_record w (machine_for ~broken:true w)
                ~fault:Checker.Broken_fences ~txns:8 ~seed:3
            in
            Alcotest.(check bool)
              "same diagnostics" true
              (streamed.Rules.diagnostics = recorded.Rules.diagnostics);
            Alcotest.(check bool)
              "same stats" true
              (streamed.Rules.stats = recorded.Rules.stats);
            Alcotest.(check bool)
              "sabotage convicted by the stream" true
              (List.exists
                 (fun d -> d.Rules.severity = Rules.Error)
                 streamed.Rules.diagnostics)
        | _ -> Alcotest.fail "expected one bank/foc-ul workload");
    Alcotest.test_case "rule stream matches recorded on every workload" `Slow
      (fun () ->
        List.iter
          (fun (w : Analyzer.workload) ->
            let streamed, recorded =
              stream_and_record w (machine_for w) ~fault:Checker.No_fault
                ~txns:6 ~seed:5
            in
            if
              streamed.Rules.diagnostics <> recorded.Rules.diagnostics
              || streamed.Rules.stats <> recorded.Rules.stats
            then Alcotest.failf "%s: streamed result differs" w.Analyzer.name)
          Analyzer.registry);
  ]

let streaming_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"streaming lint = record-then-analyze"
         ~count:12
         QCheck2.Gen.(
           quad (int_range 1 8) (int_range 0 2) (int_range 1 10_000) bool)
         (fun (txns, cfg_i, seed, broken) ->
           let config =
             List.nth [ Config.foc_ul; Config.foc_stm; Config.fof ] cfg_i
           in
           let fault = if broken then Checker.Broken_fences else Checker.No_fault in
           let machine =
             { (Rules.default_machine ~config ()) with Rules.fences_broken = broken }
           in
           match
             Analyzer.find ~workload:"bank" ~config:(Analyzer.config_slug config) ()
           with
           | [ w ] ->
               let streamed, recorded =
                 stream_and_record w machine ~fault ~txns ~seed
               in
               streamed.Rules.diagnostics = recorded.Rules.diagnostics
               && streamed.Rules.stats = recorded.Rules.stats
           | _ -> false));
  ]

let suite =
  [
    ("events.bus", bus_tests);
    ("events.trace", trace_tests);
    ("events.observers", observer_tests @ tally_tests);
    ("events.streaming", streaming_tests @ streaming_props);
  ]
