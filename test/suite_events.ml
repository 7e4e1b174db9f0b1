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

(* Every counter [Event_obs.attach] derives from the bus, each kept
   inline by the layer that executes the event. *)
let counter_names =
  [
    "nvheap.stores";
    "machine.flush.nt_stores";
    "machine.flush.fences";
    "machine.flush.clflush";
    "machine.flush.flush_range";
    "machine.flush.wbinvd";
    "nvheap.log.appends";
    "nvheap.log.append_words";
    "nvheap.log.truncates";
    "nvheap.txn.commits";
    "nvheap.txn.aborts";
    "nvheap.alloc.allocs";
    "nvheap.alloc.frees";
  ]

let counter_values reg names =
  List.map (fun n -> Metrics.Counter.value (Metrics.counter reg n)) names

(* [counter_values] of [counter_names], then the write-back lines. *)
let inline_counts nvram =
  let reg = Nvram.metrics nvram in
  counter_values reg counter_names
  @ [ List.fold_left ( + ) 0 (counter_values reg Wsp_machine.Hierarchy.writeback_byte_counters) / Nvram.line_size nvram ]

let checked_names = counter_names @ [ "write-back lines" ]

(* One run between its [observe] and [finish]: what the heap's registry
   counted inline, and what [Event_obs.attach] counted from the bus into
   its own registry, followed by the [Wb] events the bus carried. *)
let inline_and_reference run =
  let reference = Metrics.create () and wbs = ref 0 in
  let start = ref [] and subs = ref [] and inline = ref [] in
  let values heap = inline_counts (Pheap.nvram heap) in
  run
    ~observe:(fun heap ->
      start := values heap;
      subs :=
        [
          Event_obs.attach ~metrics:reference (Pheap.bus heap);
          Bus.subscribe (Pheap.bus heap) (function
            | Event.Wb _ -> incr wbs
            | Event.Mem _ | Event.Log _ | Event.Tx _ | Event.Heap _ -> ());
        ])
    ~finish:(fun heap ->
      List.iter Bus.unsubscribe !subs;
      inline := List.map2 ( - ) (values heap) !start);
  (!inline, counter_values reference counter_names @ [ !wbs ])

(* An AVL insert/delete run on a heap counting into a private registry:
   300 committed transactions and one aborted, a quiesce, an empty and
   a 4 KiB [flush_range], and the flush-on-fail [wbinvd]. *)
let run_avl config ~observe ~finish =
  let size = Units.Size.kib 512 in
  let nvram = Nvram.create ~metrics:(Metrics.create ()) ~size () in
  let heap =
    Pheap.create_in ~config ~log_size:(Units.Size.kib 64) ~nvram ~base:0
      ~len:(Units.Size.to_bytes size) ()
  in
  let tree = Wsp_store.Avl.create heap in
  observe heap;
  let rng = Rng.create ~seed:3 in
  for i = 1 to 300 do
    let key = Int64.of_int (Rng.int rng 100) in
    if i mod 4 = 0 then
      ignore (Pheap.with_tx heap (fun () -> Wsp_store.Avl.delete tree key))
    else
      Pheap.with_tx heap (fun () ->
          Wsp_store.Avl.insert tree ~key ~value:(Int64.of_int i))
  done;
  Pheap.begin_tx heap;
  Wsp_store.Avl.insert tree ~key:1000L ~value:1L;
  Pheap.abort heap;
  Pheap.quiesce heap;
  Nvram.flush_range nvram ~addr:0 ~len:0;
  Nvram.flush_range nvram ~addr:0 ~len:4096;
  Pheap.wsp_flush heap;
  finish heap

let observer_tests =
  [
    Alcotest.test_case "inline nvheap counters match the event-derived reference"
      `Quick (fun () ->
        (* The AVL run on every backend, then lint's bank workload under
           each of its configs ([bank] aborts every third of its 32
           transactions). Every count must be what the bus carried,
           except commits and aborts: those are the workload's totals,
           which the bus does not carry under [No_log]. *)
        let avl_seen = [ "nvheap.stores"; "nvheap.alloc.allocs"; "nvheap.alloc.frees" ] in
        let cases =
          List.map
            (fun c -> (c.Config.name, (300, 1), avl_seen, run_avl c))
            Config.all_backends
          @ List.map
              (fun (w : Analyzer.workload) ->
                (w.name, (22, 10), [], w.run ~fault:Checker.No_fault ~txns:32 ~seed:1))
              (Analyzer.find ~workload:"bank" ())
        in
        let counted =
          List.fold_left
            (fun counted (name, (commits, aborts), seen, run) ->
              let inline, reference = inline_and_reference run in
              (* Each AVL run stores, allocates and frees. *)
              List.iter2
                (fun n v ->
                  if List.mem n seen then
                    Alcotest.(check bool) (name ^ ": " ^ n ^ " seen") true (v > 0))
                checked_names inline;
              let want =
                List.map2
                  (fun n v ->
                    match n with
                    | "nvheap.txn.commits" -> commits
                    | "nvheap.txn.aborts" -> aborts
                    | _ -> v)
                  checked_names reference
              in
              Alcotest.(check (list (pair string int)))
                name
                (List.combine checked_names want)
                (List.combine checked_names inline);
              List.map2 ( + ) counted inline)
            (List.map (fun _ -> 0) checked_names)
            cases
        in
        List.iter2
          (fun n v -> Alcotest.(check bool) (n ^ " counted") true (v > 0))
          checked_names counted);
    Alcotest.test_case "an event a raising subscriber aborts is still counted"
      `Quick (fun () ->
        (* The crash-injection contract: a [Crash_point] aborts the
           primitive after its count, as the recorded trace keeps the
           aborted event. *)
        let aborted name op =
          let nvram =
            Nvram.create ~metrics:(Metrics.create ()) ~size:(Units.Size.kib 64) ()
          in
          let log = Rawlog.create nvram ~base:0 ~len:4096 in
          let heap = Alloc.create nvram ~base:4096 ~len:4096 in
          let count () =
            Metrics.Counter.value (Metrics.counter (Nvram.metrics nvram) name)
          in
          let before = count () in
          let raised =
            Bus.with_subscriber (Nvram.bus nvram)
              (fun _ -> raise Boom)
              (fun () ->
                match op nvram log heap with () -> false | exception Boom -> true)
          in
          Alcotest.(check bool) (name ^ ": aborted") true raised;
          Alcotest.(check int) name (before + 1) (count ())
        in
        aborted "nvheap.stores" (fun nv _ _ -> Nvram.write_u64 nv ~addr:8192 1L);
        aborted "machine.flush.nt_stores" (fun nv _ _ -> Nvram.write_u64_nt nv ~addr:8192 1L);
        aborted "machine.flush.fences" (fun nv _ _ -> Nvram.fence nv);
        aborted "machine.flush.clflush" (fun nv _ _ -> Nvram.clflush nv ~addr:8192);
        aborted "machine.flush.flush_range" (fun nv _ _ ->
            Nvram.flush_range nv ~addr:8192 ~len:64);
        aborted "machine.flush.wbinvd" (fun nv _ _ -> Nvram.wbinvd nv);
        aborted "nvheap.log.appends" (fun _ log _ ->
            Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 1L |]);
        aborted "nvheap.alloc.allocs" (fun _ _ heap -> ignore (Alloc.alloc heap 64)));
    Alcotest.test_case "metrics totals independent of job width" `Slow
      (fun () ->
        (* The per-domain registries merge to the same totals at any
           job width. *)
        let totals jobs =
          Metrics.reset_all ();
          ignore
            (Analyzer.lint ~jobs ~workloads:(Analyzer.find ~workload:"bank" ()) ());
          List.combine counter_names (counter_values (Metrics.merged ()) counter_names)
        in
        let j1 = totals 1 in
        let j4 = totals 4 in
        Metrics.reset_all ();
        Alcotest.(check (list (pair string int))) "same totals" j1 j4;
        (* Every count but [flush_range], which no workload issues. *)
        List.iter
          (fun (n, v) ->
            if n <> "machine.flush.flush_range" then
              Alcotest.(check bool) (n ^ " counted") true (v > 0))
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
    ("events.observers", observer_tests);
    ("events.streaming", streaming_tests @ streaming_props);
  ]
