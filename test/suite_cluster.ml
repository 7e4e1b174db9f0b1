(* Tests for wsp_cluster: recovery storms and replication tradeoffs. *)

open Wsp_sim
open Wsp_cluster

let storm_tests =
  [
    Alcotest.test_case "single server matches the paper's arithmetic" `Quick
      (fun () ->
        (* 256 GB at 0.5 GB/s is over 8 minutes even before replay. *)
        let r = Recovery_storm.run Recovery_storm.single_server in
        Alcotest.(check bool) "over 8 min" true
          (Time.to_s r.Recovery_storm.full_recovery > 8.0 *. 60.0);
        Alcotest.(check bool) "wsp under a minute" true
          (Time.to_s r.Recovery_storm.wsp_recovery < 60.0));
    Alcotest.test_case "full recovery scales with fleet size" `Quick (fun () ->
        let run n =
          Recovery_storm.run { Recovery_storm.default with servers = n }
        in
        let r8 = run 8 and r32 = run 32 in
        Alcotest.(check (float 1e-6)) "4x servers, 4x time"
          (4.0 *. Time.to_s r8.Recovery_storm.full_recovery)
          (Time.to_s r32.Recovery_storm.full_recovery));
    Alcotest.test_case "wsp backend bytes scale with outage length" `Quick
      (fun () ->
        let run outage =
          Recovery_storm.run { Recovery_storm.default with outage = Time.s outage }
        in
        let short = run 10.0 and long = run 100.0 in
        Alcotest.(check bool) "10x outage, 10x missed bytes" true
          (abs_float
             ((10.0 *. short.Recovery_storm.backend_bytes_wsp)
             -. long.Recovery_storm.backend_bytes_wsp)
          < 1.0));
    Alcotest.test_case "speedup is large and wsp always wins" `Quick (fun () ->
        let r = Recovery_storm.run Recovery_storm.default in
        Alcotest.(check bool) "speedup > 100x" true (r.Recovery_storm.speedup > 100.0));
    Alcotest.test_case "timeline is monotone in the fraction" `Quick (fun () ->
        let p = Recovery_storm.default in
        let t f mode = Time.to_s (Recovery_storm.recovery_timeline p ~fraction:f mode) in
        Alcotest.(check bool) "full monotone" true (t 0.5 `Full <= t 1.0 `Full);
        Alcotest.(check bool) "wsp monotone" true (t 0.5 `Wsp <= t 1.0 `Wsp);
        Alcotest.(check bool) "wsp beats full at every fraction" true
          (List.for_all (fun f -> t f `Wsp < t f `Full) [ 0.1; 0.5; 1.0 ]));
  ]

let replication_tests =
  [
    Alcotest.test_case "zero delay always rebuilds" `Quick (fun () ->
        let a = Replication.assess Replication.default ~delay:Time.zero in
        Alcotest.(check (float 1e-9)) "p rebuild" 1.0 a.Replication.rebuild_probability;
        Alcotest.(check (float 1.0)) "full state"
          (float_of_int (Units.Size.to_bytes Replication.default.Replication.state))
          a.Replication.expected_backend_bytes);
    Alcotest.test_case "longer delays transfer fewer expected bytes" `Quick
      (fun () ->
        let bytes d =
          (Replication.assess Replication.default ~delay:(Time.s d))
            .Replication.expected_backend_bytes
        in
        Alcotest.(check bool) "monotone" true
          (bytes 0.0 > bytes 30.0 && bytes 30.0 > bytes 120.0));
    Alcotest.test_case "permanent failures bound the benefit" `Quick (fun () ->
        let params = { Replication.default with permanent_failure_prob = 1.0 } in
        let a = Replication.assess params ~delay:(Time.s 600.0) in
        (* The machine never comes back: we always rebuild. *)
        Alcotest.(check (float 1e-9)) "p rebuild" 1.0 a.Replication.rebuild_probability);
    Alcotest.test_case "optimal delay balances bytes against exposure" `Quick
      (fun () ->
        (* When exposure is free, waiting longer is always better. *)
        let d_free, _ =
          Replication.optimal_delay Replication.default ~exposure_cost_per_s:0.0
            ~byte_cost:1e-9
        in
        (* When exposure is everything, rebuild immediately. *)
        let d_costly, _ =
          Replication.optimal_delay Replication.default
            ~exposure_cost_per_s:1e12 ~byte_cost:1e-12
        in
        Alcotest.(check bool) "free exposure waits longer" true
          Time.(d_free > d_costly));
  ]

let replicated_kv_tests =
  [
    Alcotest.test_case "puts replicate to every live node" `Quick (fun () ->
        let c = Replicated_kv.create ~replicas:3 () in
        Replicated_kv.put c ~key:1L ~value:10L;
        Replicated_kv.put c ~key:2L ~value:20L;
        Replicated_kv.delete c 1L;
        List.iter
          (fun n ->
            Alcotest.(check (option int64)) "deleted" None
              (Replicated_kv.Node.get n 1L);
            Alcotest.(check (option int64)) "present" (Some 20L)
              (Replicated_kv.Node.get n 2L))
          (Replicated_kv.nodes c);
        Alcotest.(check bool) "consistent" true (Replicated_kv.consistent c));
    Alcotest.test_case "failed node freezes; catch-up resynchronises" `Quick
      (fun () ->
        let c = Replicated_kv.create ~replicas:3 () in
        Replicated_kv.put c ~key:1L ~value:10L;
        Replicated_kv.fail_node c 1;
        Replicated_kv.put c ~key:1L ~value:11L;
        Replicated_kv.put c ~key:2L ~value:22L;
        let frozen = List.nth (Replicated_kv.nodes c) 1 in
        Alcotest.(check (option int64)) "stale" (Some 10L)
          (Replicated_kv.Node.get frozen 1L);
        let r = Replicated_kv.recover_node c 1 in
        Alcotest.(check bool) "log catch-up" true
          (r.Replicated_kv.mode = `Log_catch_up);
        Alcotest.(check int) "two missed" 2 r.Replicated_kv.missed_updates;
        Alcotest.(check (option int64)) "fresh" (Some 11L)
          (Replicated_kv.Node.get frozen 1L);
        Alcotest.(check bool) "consistent" true (Replicated_kv.consistent c));
    Alcotest.test_case "outage beyond log retention forces a full transfer"
      `Quick (fun () ->
        let c = Replicated_kv.create ~replicas:2 ~log_retention:10 () in
        for i = 1 to 5 do
          Replicated_kv.put c ~key:(Int64.of_int i) ~value:0L
        done;
        Replicated_kv.fail_node c 1;
        for i = 1 to 50 do
          Replicated_kv.put c ~key:(Int64.of_int i) ~value:1L
        done;
        let r = Replicated_kv.recover_node c 1 in
        Alcotest.(check bool) "full transfer" true
          (r.Replicated_kv.mode = `Full_transfer);
        Alcotest.(check bool) "consistent" true (Replicated_kv.consistent c));
    Alcotest.test_case "catch-up ships less than a full transfer" `Quick
      (fun () ->
        let c = Replicated_kv.create ~replicas:2 () in
        for i = 1 to 10_000 do
          Replicated_kv.put c ~key:(Int64.of_int i) ~value:0L
        done;
        Replicated_kv.fail_node c 1;
        for i = 1 to 100 do
          Replicated_kv.put c ~key:(Int64.of_int i) ~value:1L
        done;
        let live = List.hd (Replicated_kv.live_nodes c) in
        let full = Replicated_kv.Node.state_bytes live in
        let r = Replicated_kv.recover_node c 1 in
        Alcotest.(check bool) "cheaper" true
          (r.Replicated_kv.transferred_bytes * 10 < full));
    Alcotest.test_case "recovering a live node is rejected" `Quick (fun () ->
        let c = Replicated_kv.create () in
        Replicated_kv.put c ~key:1L ~value:1L;
        Alcotest.(check bool) "raises" true
          (try
             ignore (Replicated_kv.recover_node c 0);
             false
           with Invalid_argument _ -> true));
  ]

let replicated_kv_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"any fail/update/recover interleaving ends consistent" ~count:60
         QCheck2.Gen.(
           list_size (int_range 1 80) (pair (int_range 0 9) (int_range 0 30)))
         (fun ops ->
           let c = Replicated_kv.create ~replicas:3 ~log_retention:20 () in
           let failed = ref [] in
           List.iter
             (fun (action, k) ->
               match action with
               | 0 | 1 when List.length !failed < 2 ->
                   (* Fail one live non-primary-critical node. *)
                   let candidates =
                     List.filter
                       (fun n -> not (List.mem (Replicated_kv.Node.id n) !failed))
                       (Replicated_kv.live_nodes c)
                   in
                   (match candidates with
                   | _ :: second :: _ ->
                       let id = Replicated_kv.Node.id second in
                       Replicated_kv.fail_node c id;
                       failed := id :: !failed
                   | _ -> ())
               | 2 -> (
                   match !failed with
                   | id :: rest ->
                       ignore (Replicated_kv.recover_node c id);
                       failed := rest
                   | [] -> ())
               | _ ->
                   Replicated_kv.put c ~key:(Int64.of_int k)
                     ~value:(Int64.of_int k))
             ops;
           List.iter
             (fun id -> ignore (Replicated_kv.recover_node c id))
             !failed;
           Replicated_kv.consistent c));
  ]

let fleet_tests =
  let open Recovery_storm in
  [
    Alcotest.test_case "fleet storm is deterministic for a seed" `Quick
      (fun () ->
        let f = { default_fleet with nodes = 300; seed = 17 } in
        let a = storm f and b = storm f in
        Alcotest.(check bool) "identical latencies" true
          (a.latencies = b.latencies);
        Alcotest.(check (float 1e-12)) "identical availability"
          a.availability b.availability);
    Alcotest.test_case "tail ordering and bounds hold at 1000 nodes" `Quick
      (fun () ->
        let r = storm default_fleet in
        Alcotest.(check int) "one latency per node" default_fleet.nodes
          (Array.length r.latencies);
        Alcotest.(check bool) "p50 <= p99 <= max" true
          Time.(r.p50 <= r.p99 && r.p99 <= r.worst);
        Alcotest.(check bool) "availability in [0,1]" true
          (r.availability >= 0.0 && r.availability <= 1.0);
        Alcotest.(check bool) "last_online >= worst latency" true
          Time.(r.last_online >= r.worst));
    Alcotest.test_case "an uncontended fleet restores in parallel" `Quick
      (fun () ->
        (* Slots >= nodes: nobody queues, so every node's latency is
           exactly local restore + its own catch-up transfer. *)
        let f =
          {
            default_fleet with
            nodes = 64;
            restore_concurrency = 64;
            stagger = Time.zero;
          }
        in
        let r = storm f in
        Alcotest.(check bool) "p50 == max when nobody queues" true
          (Time.to_s r.worst -. Time.to_s r.p50 < 1e-6));
    Alcotest.test_case "fewer restore slots push the tail out" `Quick
      (fun () ->
        let run slots =
          storm { default_fleet with nodes = 500; restore_concurrency = slots }
        in
        let narrow = run 4 and wide = run 64 in
        Alcotest.(check bool) "p99 grows under contention" true
          Time.(narrow.p99 > wide.p99);
        Alcotest.(check bool) "availability drops under contention" true
          (narrow.availability <= wide.availability));
    Alcotest.test_case "zero stagger means a correlated outage" `Quick
      (fun () ->
        let r =
          storm { default_fleet with nodes = 100; stagger = Time.zero }
        in
        (* All failures at t=0: a node's latency IS its finish time, so
           the slowest node and the fleet's last-online instant agree,
           and the queue stretches the tail past the first wave. *)
        Alcotest.(check int) "last_online == worst latency"
          (Time.to_ps r.worst) (Time.to_ps r.last_online);
        Alcotest.(check bool) "tail exceeds the head" true
          Time.(r.worst > r.p50));
    Alcotest.test_case "stagger wider than the horizon is rejected" `Quick
      (fun () ->
        (* Failures past the window would silently skew availability
           toward 1.0 — the storm must refuse, not flatter. *)
        Alcotest.check_raises "stagger exceeds horizon"
          (Invalid_argument "Recovery_storm.storm: stagger exceeds horizon")
          (fun () ->
            ignore
              (storm
                 {
                   default_fleet with
                   nodes = 10;
                   stagger = Time.s 700.0;
                   horizon = Time.s 600.0;
                 }));
        Alcotest.check_raises "negative stagger"
          (Invalid_argument "Recovery_storm.storm: negative stagger")
          (fun () ->
            ignore
              (storm
                 { default_fleet with nodes = 10; stagger = Time.s (-1.0) }));
        Alcotest.check_raises "failures out of range"
          (Invalid_argument "Recovery_storm.storm: failures out of range")
          (fun () ->
            ignore (storm { default_fleet with nodes = 10; failures = 11 })));
    Alcotest.test_case "partial storm fails only the drawn nodes" `Quick
      (fun () ->
        let f = { default_fleet with nodes = 200; failures = 5; seed = 23 } in
        let r = storm f in
        Alcotest.(check int) "five failed in-window" 5 r.failed_in_window;
        let failed =
          Array.fold_left
            (fun acc l -> if Time.equal l Time.zero then acc else acc + 1)
            0 r.latencies
        in
        Alcotest.(check int) "five nonzero latencies" 5 failed;
        (* A 5-node failure against 200 serving nodes barely dents
           availability; the same fleet's full PSU wave craters it. *)
        let full = storm { f with failures = 0 } in
        Alcotest.(check bool)
          (Printf.sprintf "partial %.4f > full %.4f" r.availability
             full.availability)
          true
          (r.availability > full.availability);
        Alcotest.(check bool) "partial storm barely dents the fleet" true
          (r.availability > 0.99));
    Alcotest.test_case "spare failovers stretch the storm tail" `Quick
      (fun () ->
        (* A spare pulls the dead node's whole image through a back-end
           slot instead of restoring from local NVDIMMs, so adding
           spares to the same storm can only lengthen the tail. *)
        let f =
          { default_fleet with nodes = 100; failures = 10; seed = 43 }
        in
        let local = storm f and spared = storm { f with spares = 3 } in
        Alcotest.(check int) "no spares by default" 0 local.spare_failovers;
        Alcotest.(check int) "three failovers" 3 spared.spare_failovers;
        Alcotest.(check bool) "tail grows" true
          Time.(spared.worst > local.worst);
        Alcotest.(check bool) "schedule otherwise shared" true
          (spared.failed_in_window = local.failed_in_window);
        (* More spares than failures: every failure fails over. *)
        let all = storm { f with spares = 99 } in
        Alcotest.(check int) "capped at the failure count" 10
          all.spare_failovers);
    Alcotest.test_case "failures = nodes matches the whole-fleet path" `Quick
      (fun () ->
        (* Explicitly failing everyone must reproduce the failures = 0
           schedule exactly: the selection draw is skipped so the seed's
           RNG stream is unchanged. *)
        let f = { default_fleet with nodes = 150; seed = 31 } in
        let zero = storm f and all = storm { f with failures = 150 } in
        Alcotest.(check bool) "identical latencies" true
          (zero.latencies = all.latencies);
        Alcotest.(check (float 1e-12)) "identical availability"
          zero.availability all.availability);
  ]

let suite =
  [
    ("cluster.recovery_storm", storm_tests @ fleet_tests);
    ("cluster.replication", replication_tests);
    ( "cluster.replicated_kv",
      replicated_kv_tests @ replicated_kv_props );
  ]
