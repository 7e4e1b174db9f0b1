(* Tests for the wsp_sim substrate: time, units, rng, stats, event
   queue, engine, traces. *)

open Wsp_sim

let check_time = Alcotest.testable Time.pp Time.equal

(* --- Time ----------------------------------------------------------- *)

let time_tests =
  [
    Alcotest.test_case "unit conversions round-trip" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "ns" 5.0 (Time.to_ns (Time.ns 5.0));
        Alcotest.(check (float 1e-9)) "us" 3.25 (Time.to_us (Time.us 3.25));
        Alcotest.(check (float 1e-9)) "ms" 33.0 (Time.to_ms (Time.ms 33.0));
        Alcotest.(check (float 1e-9)) "s" 2.5 (Time.to_s (Time.s 2.5)));
    Alcotest.test_case "arithmetic" `Quick (fun () ->
        Alcotest.check check_time "add" (Time.ms 3.0)
          (Time.add (Time.ms 1.0) (Time.ms 2.0));
        Alcotest.check check_time "sub" (Time.ms 1.0)
          (Time.sub (Time.ms 3.0) (Time.ms 2.0));
        Alcotest.check check_time "mul" (Time.us 10.0) (Time.mul (Time.us 2.0) 5);
        Alcotest.check check_time "div" (Time.us 2.0) (Time.div (Time.us 10.0) 5);
        Alcotest.check check_time "scale" (Time.ms 1.5)
          (Time.scale (Time.ms 1.0) 1.5));
    Alcotest.test_case "comparisons" `Quick (fun () ->
        Alcotest.(check bool) "lt" true Time.(Time.ns 1.0 < Time.ns 2.0);
        Alcotest.(check bool) "ge" true Time.(Time.ns 2.0 >= Time.ns 2.0);
        Alcotest.(check bool) "negative" true
          (Time.is_negative (Time.sub Time.zero (Time.ns 1.0)));
        Alcotest.check check_time "min" (Time.ns 1.0)
          (Time.min (Time.ns 1.0) (Time.ns 2.0));
        Alcotest.check check_time "max" (Time.ns 2.0)
          (Time.max (Time.ns 1.0) (Time.ns 2.0)));
    Alcotest.test_case "picosecond resolution survives" `Quick (fun () ->
        (* 1.3 ns is not representable in integer ns; it must be in ps. *)
        let t = Time.ns 1.3 in
        Alcotest.(check (float 1e-6)) "1.3ns" 1.3 (Time.to_ns t));
    Alcotest.test_case "pretty printing picks units" `Quick (fun () ->
        Alcotest.(check string) "ms" "33.00ms" (Time.to_string (Time.ms 33.0));
        Alcotest.(check string) "us" "2.50us" (Time.to_string (Time.us 2.5)));
  ]

(* --- Units ----------------------------------------------------------- *)

let units_tests =
  [
    Alcotest.test_case "capacitor stored energy" `Quick (fun () ->
        (* 0.5 * 10F * 8.5^2 = 361.25 J *)
        Alcotest.(check (float 1e-6)) "energy" 361.25
          (Units.Capacitance.stored_energy 10.0 8.5));
    Alcotest.test_case "capacitor discharge voltage" `Quick (fun () ->
        let v =
          Units.Capacitance.voltage_after_discharge 10.0 ~v0:8.5 ~drawn:100.0
        in
        (* E0=361.25, E=261.25, v=sqrt(2*261.25/10)=7.228... *)
        Alcotest.(check (float 1e-3)) "voltage" 7.228 v;
        Alcotest.(check (float 0.0)) "exhausted" 0.0
          (Units.Capacitance.voltage_after_discharge 10.0 ~v0:8.5 ~drawn:1000.0));
    Alcotest.test_case "energy lasts E/P" `Quick (fun () ->
        Alcotest.check check_time "duration" (Time.s 2.0)
          (Units.Energy.duration_at 100.0 50.0));
    Alcotest.test_case "power x time = energy" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "joules" 0.35
          (Units.Energy.of_power_time 350.0 (Time.ms 1.0)));
    Alcotest.test_case "sizes" `Quick (fun () ->
        Alcotest.(check int) "kib" 2048 (Units.Size.kib 2);
        Alcotest.(check int) "mib" (1 lsl 20) (Units.Size.mib 1);
        Alcotest.(check (float 1e-9)) "gib" 2.0 (Units.Size.to_gib (Units.Size.gib 2)));
    Alcotest.test_case "bandwidth transfer time" `Quick (fun () ->
        let bw = Units.Bandwidth.mib_per_s 1.0 in
        Alcotest.check check_time "1 MiB at 1 MiB/s" (Time.s 1.0)
          (Units.Bandwidth.transfer_time bw (Units.Size.mib 1)));
  ]

(* --- Rng -------------------------------------------------------------- *)

let rng_tests =
  [
    Alcotest.test_case "deterministic from seed" `Quick (fun () ->
        let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
        Alcotest.(check bool) "differ" false
          (Int64.equal (Rng.bits64 a) (Rng.bits64 b)));
    Alcotest.test_case "copy replays the stream" `Quick (fun () ->
        let a = Rng.create ~seed:3 in
        ignore (Rng.bits64 a);
        let b = Rng.copy a in
        Alcotest.(check int64) "replay" (Rng.bits64 a) (Rng.bits64 b));
    Alcotest.test_case "split decorrelates" `Quick (fun () ->
        let a = Rng.create ~seed:4 in
        let b = Rng.split a in
        Alcotest.(check bool) "differ" false
          (Int64.equal (Rng.bits64 a) (Rng.bits64 b)));
    Alcotest.test_case "gaussian mean roughly right" `Quick (fun () ->
        let rng = Rng.create ~seed:5 in
        let sum = ref 0.0 in
        for _ = 1 to 10_000 do
          sum := !sum +. Rng.gaussian rng ~mu:10.0 ~sigma:2.0
        done;
        Alcotest.(check bool) "mean near 10" true
          (abs_float ((!sum /. 10_000.0) -. 10.0) < 0.1));
    Alcotest.test_case "zipf ranks are skewed and in range" `Quick (fun () ->
        let rng = Rng.create ~seed:9 in
        let zipf = Rng.Zipf.create ~n:1000 () in
        Alcotest.(check int) "n" 1000 (Rng.Zipf.n zipf);
        let counts = Array.make 1000 0 in
        for _ = 1 to 50_000 do
          let r = Rng.Zipf.draw zipf rng in
          Alcotest.(check bool) "in range" true (r >= 0 && r < 1000);
          counts.(r) <- counts.(r) + 1
        done;
        (* Rank 0 should dominate: several percent of all draws. *)
        Alcotest.(check bool) "rank 0 hot" true (counts.(0) > 2500);
        Alcotest.(check bool) "monotone-ish head" true
          (counts.(0) > counts.(10) && counts.(10) > counts.(200)));
    Alcotest.test_case "zipf rejects bad parameters" `Quick (fun () ->
        Alcotest.(check bool) "n=0" true
          (try
             ignore (Rng.Zipf.create ~n:0 ());
             false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "theta=1" true
          (try
             ignore (Rng.Zipf.create ~theta:1.0 ~n:10 ());
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "split is reproducible from the seed" `Quick (fun () ->
        let a = Rng.split (Rng.create ~seed:11)
        and b = Rng.split (Rng.create ~seed:11) in
        for _ = 1 to 20 do
          Alcotest.(check int64) "same child stream" (Rng.bits64 a) (Rng.bits64 b)
        done);
    Alcotest.test_case "bool draws both values" `Quick (fun () ->
        let rng = Rng.create ~seed:12 in
        let trues = ref 0 in
        for _ = 1 to 1000 do
          if Rng.bool rng then incr trues
        done;
        Alcotest.(check bool) "roughly fair" true (!trues > 400 && !trues < 600));
    Alcotest.test_case "shuffle permutes" `Quick (fun () ->
        let rng = Rng.create ~seed:8 in
        let arr = Array.init 100 (fun i -> i) in
        Rng.shuffle rng arr;
        let sorted = Array.copy arr in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "same elements"
          (Array.init 100 (fun i -> i))
          sorted);
  ]

let rng_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"Rng.int stays in bounds" ~count:500
         QCheck2.Gen.(pair small_int (int_range 1 1_000_000))
         (fun (seed, bound) ->
           let rng = Rng.create ~seed in
           let v = Rng.int rng bound in
           v >= 0 && v < bound));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"Rng.float stays in bounds" ~count:500
         QCheck2.Gen.small_int (fun seed ->
           let rng = Rng.create ~seed in
           let v = Rng.float rng 3.5 in
           v >= 0.0 && v < 3.5));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"Rng.uniform stays in [lo, hi)" ~count:500
         QCheck2.Gen.(pair small_int (float_range (-100.0) 100.0))
         (fun (seed, lo) ->
           let rng = Rng.create ~seed in
           let hi = lo +. 2.5 in
           let v = Rng.uniform rng ~lo ~hi in
           v >= lo && v < hi));
  ]

(* --- Stats ------------------------------------------------------------ *)

let stats_tests =
  [
    Alcotest.test_case "percentiles interpolate" `Quick (fun () ->
        let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
        Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
        Alcotest.(check (float 1e-9)) "p50" 3.0 (Stats.percentile xs 50.0);
        Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile xs 100.0);
        Alcotest.(check (float 1e-9)) "p25" 2.0 (Stats.percentile xs 25.0));
    Alcotest.test_case "percentile boundary ranks" `Quick (fun () ->
        (* Single element: every p maps onto it, including the
           rank-interpolation edges p=0 and p=100. *)
        Alcotest.(check (float 1e-9)) "singleton p0" 7.0
          (Stats.percentile [ 7.0 ] 0.0);
        Alcotest.(check (float 1e-9)) "singleton p50" 7.0
          (Stats.percentile [ 7.0 ] 50.0);
        Alcotest.(check (float 1e-9)) "singleton p100" 7.0
          (Stats.percentile [ 7.0 ] 100.0);
        (* Two elements: p=100 must index the last element, not one past. *)
        Alcotest.(check (float 1e-9)) "pair p100" 9.0
          (Stats.percentile [ 1.0; 9.0 ] 100.0);
        Alcotest.(check (float 1e-9)) "pair p0" 1.0
          (Stats.percentile [ 9.0; 1.0 ] 0.0));
    Alcotest.test_case "percentile rejects bad inputs" `Quick (fun () ->
        let raises f =
          try
            ignore (f ());
            false
          with Invalid_argument _ -> true
        in
        Alcotest.(check bool) "empty" true
          (raises (fun () -> Stats.percentile [] 50.0));
        Alcotest.(check bool) "p<0" true
          (raises (fun () -> Stats.percentile [ 1.0 ] (-0.5)));
        Alcotest.(check bool) "p>100" true
          (raises (fun () -> Stats.percentile [ 1.0 ] 100.5));
        Alcotest.(check bool) "NaN p" true
          (raises (fun () -> Stats.percentile [ 1.0 ] Float.nan));
        Alcotest.(check bool) "NaN sample" true
          (raises (fun () -> Stats.percentile [ 1.0; Float.nan ] 50.0)));
    Alcotest.test_case "percentile ignores sample order" `Quick (fun () ->
        let sorted = [ 1.0; 2.0; 4.0; 8.0; 16.0 ]
        and shuffled = [ 8.0; 1.0; 16.0; 4.0; 2.0 ] in
        List.iter
          (fun p ->
            Alcotest.(check (float 1e-9)) (Fmt.str "p%g" p)
              (Stats.percentile sorted p) (Stats.percentile shuffled p))
          [ 0.0; 10.0; 50.0; 90.0; 99.0; 100.0 ];
        (* Rank 0.9 * 4 = 3.6 lies between 8 and 16. *)
        Alcotest.(check (float 1e-9)) "p90" 12.8 (Stats.percentile shuffled 90.0));
  ]

let stats_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"percentile is bounded and monotone in p"
         ~count:300
         QCheck2.Gen.(
           triple
             (list_size (int_range 1 40) (float_range (-1000.0) 1000.0))
             (float_range 0.0 100.0) (float_range 0.0 100.0))
         (fun (xs, p, q) ->
           let lo = List.fold_left Float.min Float.infinity xs
           and hi = List.fold_left Float.max Float.neg_infinity xs in
           let p, q = (Float.min p q, Float.max p q) in
           let vp = Stats.percentile xs p and vq = Stats.percentile xs q in
           lo <= vp && vp <= vq && vq <= hi
           && Stats.percentile xs 0.0 = lo
           && Stats.percentile xs 100.0 = hi));
  ]

(* --- Event queue ------------------------------------------------------- *)

let event_queue_tests =
  [
    Alcotest.test_case "pops in time order" `Quick (fun () ->
        let q = Event_queue.create () in
        Event_queue.push q ~at:(Time.ns 30.0) "c";
        Event_queue.push q ~at:(Time.ns 10.0) "a";
        Event_queue.push q ~at:(Time.ns 20.0) "b";
        let order =
          List.init 3 (fun _ ->
              match Event_queue.pop q with Some (_, x) -> x | None -> "?")
        in
        Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] order);
    Alcotest.test_case "equal times keep insertion order" `Quick (fun () ->
        let q = Event_queue.create () in
        List.iter
          (fun s -> Event_queue.push q ~at:(Time.ns 5.0) s)
          [ "first"; "second"; "third" ];
        let order =
          List.init 3 (fun _ ->
              match Event_queue.pop q with Some (_, x) -> x | None -> "?")
        in
        Alcotest.(check (list string)) "fifo" [ "first"; "second"; "third" ] order);
    Alcotest.test_case "empty queue yields nothing" `Quick (fun () ->
        let q : string Event_queue.t = Event_queue.create () in
        Alcotest.(check int) "length" 0 (Event_queue.length q);
        Alcotest.(check (option check_time)) "peek" None (Event_queue.peek_time q);
        Alcotest.(check bool) "pop" true (Event_queue.pop q = None);
        Event_queue.push q ~at:(Time.ns 1.0) "only";
        ignore (Event_queue.pop q);
        Alcotest.(check bool) "drained" true (Event_queue.pop q = None);
        Alcotest.(check int) "length after drain" 0 (Event_queue.length q));
    Alcotest.test_case "peek_time leaves the event queued" `Quick (fun () ->
        let q = Event_queue.create () in
        Event_queue.push q ~at:(Time.ns 7.0) "late";
        Event_queue.push q ~at:(Time.ns 3.0) "early";
        Alcotest.(check (option check_time)) "peek" (Some (Time.ns 3.0))
          (Event_queue.peek_time q);
        Alcotest.(check (option check_time)) "peek again" (Some (Time.ns 3.0))
          (Event_queue.peek_time q);
        Alcotest.(check int) "still two" 2 (Event_queue.length q);
        match Event_queue.pop q with
        | Some (at, x) ->
            Alcotest.check check_time "popped time" (Time.ns 3.0) at;
            Alcotest.(check string) "popped payload" "early" x
        | None -> Alcotest.fail "expected an event");
    Alcotest.test_case "a push after a pop queues behind same-time peers"
      `Quick (fun () ->
        (* A handler that schedules at its own time must run after the
           events already queued for that time. *)
        let q = Event_queue.create () in
        Event_queue.push q ~at:(Time.ns 5.0) "a";
        Event_queue.push q ~at:(Time.ns 5.0) "b";
        let next () =
          match Event_queue.pop q with Some (_, x) -> x | None -> "?"
        in
        let first = next () in
        Event_queue.push q ~at:(Time.ns 5.0) "c";
        Event_queue.push q ~at:(Time.ns 4.0) "z";
        let rest = List.init 3 (fun _ -> next ()) in
        Alcotest.(check (list string)) "order" [ "a"; "z"; "b"; "c" ] (first :: rest));
  ]

let event_queue_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"event queue is a stable sort" ~count:200
         (* [Some t] pushes an event at time [t] and [None] pops one, so
            pushes and pops interleave the way handlers schedule while
            [Engine.run] drains the queue. *)
         QCheck2.Gen.(list_size (int_range 0 150) (opt ~ratio:0.6 (int_range 0 20)))
         (fun ops ->
           let q = Event_queue.create () in
           (* The model: pending (time, insertion) pairs in delivery order. *)
           let model = ref [] in
           let pop_agrees () =
             match (Event_queue.pop q, !model) with
             | None, [] -> true
             | Some (at, x), ((t, _) as y) :: rest ->
                 model := rest;
                 x = y && Time.equal at (Time.ps t)
             | _ -> false
           in
           let step i op =
             (match op with
             | Some t ->
                 Event_queue.push q ~at:(Time.ps t) (t, i);
                 model := List.merge compare !model [ (t, i) ];
                 true
             | None -> pop_agrees ())
             && Event_queue.length q = List.length !model
           in
           let rec run i = function
             | [] -> true
             | op :: ops -> step i op && run (i + 1) ops
           in
           let rec drain () = !model = [] || (pop_agrees () && drain ()) in
           run 0 ops && drain () && Event_queue.pop q = None));
  ]

(* --- Engine ------------------------------------------------------------ *)

let engine_tests =
  [
    Alcotest.test_case "clock advances to event times" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        Engine.schedule e ~after:(Time.ms 2.0) (fun e ->
            log := ("b", Engine.now e) :: !log);
        Engine.schedule e ~after:(Time.ms 1.0) (fun e ->
            log := ("a", Engine.now e) :: !log);
        Engine.run e;
        Alcotest.(check (list (pair string check_time)))
          "events with times"
          [ ("a", Time.ms 1.0); ("b", Time.ms 2.0) ]
          (List.rev !log));
    Alcotest.test_case "handlers can schedule more work" `Quick (fun () ->
        let e = Engine.create () in
        let hits = ref 0 in
        let rec tick e =
          incr hits;
          if !hits < 5 then Engine.schedule e ~after:(Time.us 1.0) tick
        in
        Engine.schedule e ~after:Time.zero tick;
        Engine.run e;
        Alcotest.(check int) "five ticks" 5 !hits;
        Alcotest.check check_time "final time" (Time.us 4.0) (Engine.now e));
    Alcotest.test_case "run_until stops at the deadline" `Quick (fun () ->
        let e = Engine.create () in
        let ran = ref [] in
        Engine.schedule e ~after:(Time.ms 1.0) (fun _ -> ran := 1 :: !ran);
        Engine.schedule e ~after:(Time.ms 5.0) (fun _ -> ran := 5 :: !ran);
        Engine.run_until e (Time.ms 2.0);
        Alcotest.(check (list int)) "only the first" [ 1 ] !ran;
        Alcotest.check check_time "clock at deadline" (Time.ms 2.0) (Engine.now e);
        Alcotest.(check int) "one pending" 1 (Engine.pending e));
    Alcotest.test_case "zero-delay work runs after same-time peers" `Quick
      (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        let note name e = log := (name, Engine.now e) :: !log in
        Engine.schedule e ~after:(Time.ms 1.0) (fun e ->
            note "a" e;
            Engine.schedule e ~after:Time.zero (note "c"));
        Engine.schedule e ~after:(Time.ms 1.0) (note "b");
        Engine.run e;
        Alcotest.(check (list (pair string check_time)))
          "order and times"
          [ ("a", Time.ms 1.0); ("b", Time.ms 1.0); ("c", Time.ms 1.0) ]
          (List.rev !log));
    Alcotest.test_case "negative delay is rejected" `Quick (fun () ->
        let e = Engine.create () in
        Alcotest.check_raises "raises"
          (Invalid_argument "Engine.schedule: negative delay") (fun () ->
            Engine.schedule e ~after:(Time.sub Time.zero (Time.ns 1.0)) ignore);
        Alcotest.(check int) "nothing queued" 0 (Engine.pending e));
    Alcotest.test_case "run_until runs an event at the deadline" `Quick
      (fun () ->
        let e = Engine.create () in
        let ran = ref false in
        Engine.schedule e ~after:(Time.ms 2.0) (fun _ -> ran := true);
        Engine.run_until e (Time.ms 2.0);
        Alcotest.(check bool) "ran" true !ran;
        Alcotest.(check int) "none pending" 0 (Engine.pending e));
    Alcotest.test_case "run_until never moves the clock back" `Quick (fun () ->
        let e = Engine.create () in
        Engine.schedule e ~after:(Time.ms 3.0) ignore;
        Engine.run e;
        Engine.run_until e (Time.ms 1.0);
        Alcotest.check check_time "clock kept" (Time.ms 3.0) (Engine.now e));
    Alcotest.test_case "run resumes after run_until" `Quick (fun () ->
        let e = Engine.create () in
        let ran = ref [] in
        List.iter
          (fun ms ->
            Engine.schedule e ~after:(Time.ms ms) (fun e ->
                ran := Engine.now e :: !ran))
          [ 1.0; 4.0; 6.0 ];
        Engine.run_until e (Time.ms 2.0);
        Alcotest.(check int) "two pending" 2 (Engine.pending e);
        (* Delays count from the deadline the clock was moved to. *)
        Engine.schedule e ~after:(Time.ms 1.0) (fun e ->
            ran := Engine.now e :: !ran);
        Engine.run e;
        Alcotest.(check (list check_time))
          "all ran in order"
          [ Time.ms 1.0; Time.ms 3.0; Time.ms 4.0; Time.ms 6.0 ]
          (List.rev !ran);
        Alcotest.(check int) "none pending" 0 (Engine.pending e));
    Alcotest.test_case "engine reports dispatches and queue depth" `Quick
      (fun () ->
        let module M = Wsp_obs.Metrics in
        let reg = M.ambient () in
        let dispatched = M.counter reg "sim.engine.events_dispatched"
        and depth = M.gauge reg "sim.engine.queue_depth" in
        let before = M.Counter.value dispatched in
        let e = Engine.create () in
        for i = 1 to 3 do
          Engine.schedule e ~after:(Time.us (float_of_int i)) ignore
        done;
        Alcotest.(check (float 0.0)) "depth after scheduling" 3.0
          (M.Gauge.value depth);
        Engine.run e;
        Alcotest.(check int) "three dispatched" 3
          (M.Counter.value dispatched - before));
  ]

(* --- Trace -------------------------------------------------------------- *)

let trace_tests =
  [
    Alcotest.test_case "value_at is sample-and-hold" `Quick (fun () ->
        let t = Trace.create ~name:"v" in
        Trace.record t (Time.ms 1.0) 10.0;
        Trace.record t (Time.ms 2.0) 20.0;
        Alcotest.(check (option (float 0.0))) "before" None
          (Trace.value_at t (Time.us 500.0));
        Alcotest.(check (option (float 0.0))) "at" (Some 10.0)
          (Trace.value_at t (Time.ms 1.0));
        Alcotest.(check (option (float 0.0))) "between" (Some 10.0)
          (Trace.value_at t (Time.ms 1.5));
        Alcotest.(check (option (float 0.0))) "after" (Some 20.0)
          (Trace.value_at t (Time.ms 3.0)));
    Alcotest.test_case "out-of-order record rejected" `Quick (fun () ->
        let t = Trace.create ~name:"v" in
        Trace.record t (Time.ms 2.0) 1.0;
        Alcotest.(check bool) "raises" true
          (try
             Trace.record t (Time.ms 1.0) 2.0;
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "first_crossing_below needs the hold time" `Quick
      (fun () ->
        let t = Trace.create ~name:"v" in
        (* 1 kHz sampling: below threshold for 2 ms starting at 5 ms, with
           a brief dip at 2 ms that should not count against hold=1.5ms. *)
        for i = 0 to 9 do
          let at = Time.ms (float_of_int i) in
          let v = if i = 2 then 0.5 else if i >= 5 && i <= 7 then 0.5 else 1.0 in
          Trace.record t at v
        done;
        match Trace.first_crossing_below t ~threshold:0.9 ~hold:(Time.ms 1.5) with
        | Some at -> Alcotest.check check_time "crossing" (Time.ms 5.0) at
        | None -> Alcotest.fail "expected a crossing");
    Alcotest.test_case "no crossing when signal stays up" `Quick (fun () ->
        let t = Trace.create ~name:"v" in
        for i = 0 to 9 do
          Trace.record t (Time.ms (float_of_int i)) 1.0
        done;
        Alcotest.(check bool) "none" true
          (Trace.first_crossing_below t ~threshold:0.9 ~hold:(Time.ms 1.0) = None));
    Alcotest.test_case "equal timestamps are kept oldest first" `Quick
      (fun () ->
        let t = Trace.create ~name:"v" in
        Trace.record t (Time.ms 1.0) 1.0;
        Trace.record t (Time.ms 1.0) 2.0;
        Trace.record t (Time.ms 2.0) 3.0;
        Alcotest.(check int) "length" 3 (Trace.length t);
        Alcotest.(check (array (pair check_time (float 0.0))))
          "samples"
          [| (Time.ms 1.0, 1.0); (Time.ms 1.0, 2.0); (Time.ms 2.0, 3.0) |]
          (Trace.samples t);
        Alcotest.(check (option (float 0.0))) "latest wins" (Some 2.0)
          (Trace.value_at t (Time.ms 1.0)));
  ]

let suite =
  [
    ("sim.time", time_tests);
    ("sim.units", units_tests);
    ("sim.rng", rng_tests @ rng_props);
    ("sim.stats", stats_tests @ stats_props);
    ("sim.event_queue", event_queue_tests @ event_queue_props);
    ("sim.engine", engine_tests);
    ("sim.trace", trace_tests);
  ]
