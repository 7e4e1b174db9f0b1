(* Tests for the observability layer: metrics registry, deterministic
   merge across domains, and the Chrome trace_event exporter. *)

open Wsp_sim
module Metrics = Wsp_obs.Metrics
module Tracer = Wsp_obs.Tracer

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let find_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

let registry_tests =
  [
    Alcotest.test_case "counters accumulate" `Quick (fun () ->
        let reg = Metrics.create () in
        let c = Metrics.counter reg "a.b" in
        Metrics.Counter.incr c;
        Metrics.Counter.add c 41;
        Alcotest.(check int) "value" 42 (Metrics.Counter.value c);
        (* Get-or-create returns the same handle. *)
        Metrics.Counter.incr (Metrics.counter reg "a.b");
        Alcotest.(check int) "shared" 43 (Metrics.Counter.value c));
    Alcotest.test_case "gauges keep last and peak" `Quick (fun () ->
        let reg = Metrics.create () in
        let g = Metrics.gauge reg "depth" in
        Metrics.Gauge.set g 3.0;
        Metrics.Gauge.set g 9.0;
        Metrics.Gauge.set g 2.0;
        Alcotest.(check (float 0.0)) "last" 2.0 (Metrics.Gauge.value g);
        Alcotest.(check (float 0.0)) "peak" 9.0 (Metrics.Gauge.peak g));
    Alcotest.test_case "histogram log2 buckets" `Quick (fun () ->
        let reg = Metrics.create () in
        let h = Metrics.histogram reg "lat" in
        List.iter (Metrics.Histogram.observe h) [ 0; 1; 2; 3; 4; 1024 ];
        Alcotest.(check int) "count" 6 (Metrics.Histogram.count h);
        Alcotest.(check int) "sum" 1034 (Metrics.Histogram.sum h);
        Alcotest.(check int) "max" 1024 (Metrics.Histogram.max_sample h);
        let counts = Metrics.Histogram.bucket_counts h in
        Alcotest.(check int) "v<=0 bucket" 1 counts.(0);
        Alcotest.(check int) "[1,2)" 1 counts.(1);
        Alcotest.(check int) "[2,4)" 2 counts.(2);
        Alcotest.(check int) "[4,8)" 1 counts.(3);
        Alcotest.(check int) "[1024,2048)" 1 counts.(11);
        Alcotest.(check int) "lower bound" 1024
          (Metrics.Histogram.bucket_lower_bound 11));
    Alcotest.test_case "kind clash raises" `Quick (fun () ->
        let reg = Metrics.create () in
        ignore (Metrics.counter reg "x");
        Alcotest.(check bool) "gauge over counter" true
          (try
             ignore (Metrics.gauge reg "x");
             false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "histogram over counter" true
          (try
             ignore (Metrics.histogram reg "x");
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "merge sums counters, maxes gauges" `Quick (fun () ->
        let a = Metrics.create () and b = Metrics.create () in
        Metrics.Counter.add (Metrics.counter a "n") 5;
        Metrics.Counter.add (Metrics.counter b "n") 7;
        Metrics.Gauge.set (Metrics.gauge a "g") 2.0;
        Metrics.Gauge.set (Metrics.gauge b "g") 11.0;
        Metrics.Histogram.observe (Metrics.histogram a "h") 8;
        Metrics.Histogram.observe (Metrics.histogram b "h") 9;
        let dst = Metrics.create () in
        Metrics.merge_into ~into:dst a;
        Metrics.merge_into ~into:dst b;
        Alcotest.(check int) "counter sum" 12
          (Metrics.Counter.value (Metrics.counter dst "n"));
        Alcotest.(check (float 0.0)) "gauge peak" 11.0
          (Metrics.Gauge.peak (Metrics.gauge dst "g"));
        Alcotest.(check int) "histogram count" 2
          (Metrics.Histogram.count (Metrics.histogram dst "h")));
    Alcotest.test_case "json is sorted and skips untouched" `Quick (fun () ->
        let reg = Metrics.create () in
        Metrics.Counter.add (Metrics.counter reg "z.last") 1;
        Metrics.Counter.add (Metrics.counter reg "a.first") 2;
        ignore (Metrics.counter reg "untouched");
        ignore (Metrics.gauge reg "g.untouched");
        ignore (Metrics.histogram reg "h.untouched");
        let json = Metrics.to_json reg in
        Alcotest.(check string) "exact"
          "{\"counters\":{\"a.first\":2,\"z.last\":1},\"gauges\":{},\"histograms\":{}}"
          json);
  ]

(* The merge ops are all commutative (sum / sum-per-bucket / max), so
   the merged export must be byte-identical however the same work is
   split across worker domains. This is the acceptance contract behind
   `--jobs 1` vs `--jobs 4`. *)
let determinism_tests =
  [
    Alcotest.test_case "merged json identical for jobs=1 and jobs=4" `Quick
      (fun () ->
        let work jobs =
          Metrics.reset_all ();
          ignore
            (Parallel.map ~jobs
               (fun i ->
                 let reg = Metrics.ambient () in
                 Metrics.Counter.add (Metrics.counter reg "det.items") 1;
                 Metrics.Counter.add (Metrics.counter reg "det.weight") i;
                 Metrics.Histogram.observe (Metrics.histogram reg "det.h") i;
                 Metrics.Gauge.set (Metrics.gauge reg "det.g")
                   (float_of_int (i mod 5));
                 i)
               (List.init 64 (fun i -> i)));
          Metrics.to_json (Metrics.merged ())
        in
        let seq = work 1 in
        let pooled = work 4 in
        Alcotest.(check string) "byte-identical" seq pooled;
        Alcotest.(check bool) "non-trivial" true
          (String.length seq > 40
          && seq <> "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"));
    Alcotest.test_case "reset_all clears every ambient registry" `Quick
      (fun () ->
        Metrics.Counter.incr (Metrics.counter (Metrics.ambient ()) "reset.c");
        Metrics.reset_all ();
        let json = Metrics.to_json (Metrics.merged ()) in
        Alcotest.(check string) "empty"
          "{\"counters\":{},\"gauges\":{},\"histograms\":{}}" json);
    Alcotest.test_case "spawned domains do not grow a registry each" `Quick
      (fun () ->
        (* Each [Parallel.map] spawns its helper domains afresh; a
           registry per helper, kept forever for [merged], grew live
           words by 7k-11k over these calls. *)
        let calls = 200 and items = 64 in
        let touch () =
          ignore
            (Parallel.map ~jobs:2 ~chunk:1
               (fun i ->
                 Metrics.Counter.incr
                   (Metrics.counter (Metrics.ambient ()) "leak.items");
                 i)
               (List.init items Fun.id))
        in
        Metrics.reset_all ();
        touch ();
        Gc.full_major ();
        let before = (Gc.stat ()).live_words in
        for _ = 1 to calls do
          touch ()
        done;
        Gc.full_major ();
        let grown = (Gc.stat ()).live_words - before in
        if grown >= 3_000 then
          Alcotest.failf "live words grew by %d over %d calls" grown calls;
        Alcotest.(check int) "merged total" ((calls + 1) * items)
          (Metrics.Counter.value
             (Metrics.counter (Metrics.merged ()) "leak.items")));
  ]

let tracer_tests =
  [
    Alcotest.test_case "disabled tracer records nothing" `Quick (fun () ->
        Tracer.set_enabled false;
        let tr = Tracer.create () in
        Tracer.instant tr ~name:"x" ~ts:0;
        Tracer.span tr ~name:"y" ~start_ps:0 ~stop_ps:10;
        Alcotest.(check int) "no events" 0 (List.length (Tracer.events tr)));
    Alcotest.test_case "spans and instants export as X and i" `Quick (fun () ->
        Tracer.set_enabled true;
        Fun.protect ~finally:(fun () -> Tracer.set_enabled false) @@ fun () ->
        let tr = Tracer.create () in
        Tracer.span ~cat:"save" tr ~name:"flush" ~start_ps:1_000_000
          ~stop_ps:3_500_000;
        Tracer.instant tr ~name:"fail" ~ts:500_000;
        let json = Tracer.to_json (Tracer.events tr) in
        Alcotest.(check bool) "complete span" true
          (contains ~sub:"\"ph\":\"X\"" json);
        Alcotest.(check bool) "ts in us" true
          (contains ~sub:"\"ts\":1.000000" json);
        Alcotest.(check bool) "dur in us" true
          (contains ~sub:"\"dur\":2.500000" json);
        Alcotest.(check bool) "instant" true
          (contains ~sub:"\"ph\":\"i\"" json));
    Alcotest.test_case "export orders by timestamp" `Quick (fun () ->
        Tracer.set_enabled true;
        Fun.protect ~finally:(fun () ->
            Tracer.set_enabled false;
            Tracer.reset_all ())
        @@ fun () ->
        Tracer.reset_all ();
        let tr = Tracer.ambient () in
        Tracer.instant tr ~name:"late" ~ts:900;
        Tracer.instant tr ~name:"early" ~ts:100;
        let json = Tracer.export_json () in
        let late = find_sub ~sub:"late" json in
        let early = find_sub ~sub:"early" json in
        match (early, late) with
        | Some e, Some l -> Alcotest.(check bool) "early first" true (e < l)
        | _ -> Alcotest.fail "both events must be exported");
  ]

let json_tests =
  [
    Alcotest.test_case "escape: quote, backslash and newline only" `Quick
      (fun () ->
        let esc = Wsp_obs.Json.escape in
        Alcotest.(check string) "specials" {|a\"b\\c\nd|} (esc "a\"b\\c\nd");
        Alcotest.(check string)
          "other bytes pass through" "tab\t/ctl\001 \xc3\xa9"
          (esc "tab\t/ctl\001 \xc3\xa9");
        Alcotest.(check string) "empty" "" (esc ""));
  ]

let suite =
  [
    ("obs.json", json_tests);
    ("obs.metrics", registry_tests);
    ("obs.determinism", determinism_tests);
    ("obs.tracer", tracer_tests);
  ]
