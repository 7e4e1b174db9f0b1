(* Tests for wsp_shard: routing, the closed-loop service, sharded vs
   single-shard oracle equivalence, admission shedding, determinism
   across worker widths, and crash/restore of the whole shard fleet. *)

open Wsp_sim
open Wsp_shard

let router_tests =
  [
    Alcotest.test_case "routing is deterministic and in range" `Quick
      (fun () ->
        let r = Router.create ~shards:7 () in
        let rng = Rng.create ~seed:9 in
        for _ = 1 to 10_000 do
          let k = Rng.bits64 rng in
          let s = Router.shard_of_key r k in
          Alcotest.(check bool) "in range" true (s >= 0 && s < 7);
          Alcotest.(check int) "stable" s (Router.shard_of_key r k)
        done);
    Alcotest.test_case "virtual nodes spread the keyspace" `Quick (fun () ->
        let shards = 8 in
        let r = Router.create ~shards () in
        let counts = Array.make shards 0 in
        let rng = Rng.create ~seed:4 in
        let n = 100_000 in
        for _ = 1 to n do
          let s = Router.shard_of_key r (Rng.bits64 rng) in
          counts.(s) <- counts.(s) + 1
        done;
        let ideal = n / shards in
        Array.iteri
          (fun s c ->
            if c < ideal / 3 || c > ideal * 3 then
              Alcotest.failf "shard %d owns %d of %d keys (ideal %d)" s c n
                ideal)
          counts);
    Alcotest.test_case "growing the ring remaps only a slice" `Quick
      (fun () ->
        (* The consistent-hashing contract: adding one shard to N moves
           roughly 1/(N+1) of the keys, not all of them. *)
        let before = Router.create ~shards:8 () in
        let after = Router.create ~shards:9 () in
        let rng = Rng.create ~seed:11 in
        let n = 50_000 in
        let moved = ref 0 in
        for _ = 1 to n do
          let k = Rng.bits64 rng in
          if Router.shard_of_key before k <> Router.shard_of_key after k then
            incr moved
        done;
        let fraction = float_of_int !moved /. float_of_int n in
        Alcotest.(check bool)
          (Printf.sprintf "moved %.3f, expected ~1/9" fraction)
          true
          (fraction < 0.25));
    Alcotest.test_case "invalid ring parameters are rejected" `Quick
      (fun () ->
        Alcotest.check_raises "zero shards"
          (Invalid_argument "Router.create: shards must be positive")
          (fun () -> ignore (Router.create ~shards:0 ()));
        Alcotest.check_raises "zero vnodes"
          (Invalid_argument "Router.create: vnodes must be positive")
          (fun () -> ignore (Router.create ~vnodes:0 ~shards:2 ())));
    Alcotest.test_case "shrinking the ring remaps only the victim's share"
      `Quick (fun () ->
        (* The mirror of the growth bound: removing one of 9 shards
           moves only that shard's ~1/9 of the keyspace. *)
        let before = Router.create ~shards:9 () in
        let after, ranges = Router.remove_shard before 8 in
        let rng = Rng.create ~seed:12 in
        let n = 50_000 in
        let moved = ref 0 in
        for _ = 1 to n do
          let k = Rng.bits64 rng in
          if Router.shard_of_key before k <> Router.shard_of_key after k then
            incr moved
        done;
        let fraction = float_of_int !moved /. float_of_int n in
        Alcotest.(check bool)
          (Printf.sprintf "moved %.3f, expected ~1/9" fraction)
          true (fraction < 0.25);
        (* and the returned arcs measure exactly that movement *)
        let est = Router.moved_fraction ranges in
        Alcotest.(check bool)
          (Printf.sprintf "arc estimate %.3f vs sampled %.3f" est fraction)
          true
          (Float.abs (est -. fraction) < 0.02);
        List.iter
          (fun (rg : Router.range) ->
            Alcotest.(check int) "src is the victim" 8 rg.src;
            Alcotest.(check bool) "dst survives" true (rg.dst >= 0 && rg.dst < 8))
          ranges);
    Alcotest.test_case "interior removal renumbers without remapping" `Quick
      (fun () ->
        (* Ring points derive from stable labels, not indices: removing
           an interior shard shifts survivors' indices down by one but
           must not move any key between surviving shards. *)
        let before = Router.create ~shards:7 () in
        let victim = 3 in
        let after, _ = Router.remove_shard before victim in
        for i = 0 to 5 do
          Alcotest.(check int) "label preserved"
            (Router.label before (if i < victim then i else i + 1))
            (Router.label after i)
        done;
        let rng = Rng.create ~seed:31 in
        for _ = 1 to 20_000 do
          let k = Rng.bits64 rng in
          let o = Router.shard_of_key before k in
          if o <> victim then
            Alcotest.(check int) "survivor keeps its keys"
              (if o < victim then o else o - 1)
              (Router.shard_of_key after k)
        done);
    Alcotest.test_case "remove_shard rejects bad arguments" `Quick (fun () ->
        Alcotest.check_raises "cannot empty the ring"
          (Invalid_argument "Router.remove_shard: cannot empty the ring")
          (fun () -> ignore (Router.remove_shard (Router.create ~shards:1 ()) 0));
        Alcotest.check_raises "no such shard"
          (Invalid_argument "Router.remove_shard: no such shard")
          (fun () -> ignore (Router.remove_shard (Router.create ~shards:3 ()) 5)));
    Alcotest.test_case "add_shard arcs cover exactly the moved keys" `Quick
      (fun () ->
        let before = Router.create ~shards:8 () in
        let after, ranges = Router.add_shard before in
        Alcotest.(check int) "one more shard" 9 (Router.shards after);
        List.iter
          (fun (rg : Router.range) ->
            Alcotest.(check int) "dst is the new shard" 8 rg.dst)
          ranges;
        let rng = Rng.create ~seed:77 in
        let n = 50_000 in
        let moved = ref 0 in
        for _ = 1 to n do
          let k = Rng.bits64 rng in
          if Router.shard_of_key before k <> Router.shard_of_key after k then begin
            incr moved;
            Alcotest.(check int) "moved keys land on the new shard" 8
              (Router.shard_of_key after k)
          end
        done;
        let fraction = float_of_int !moved /. float_of_int n in
        Alcotest.(check bool)
          (Printf.sprintf "moved %.3f, expected ~1/9" fraction)
          true (fraction < 0.25);
        let est = Router.moved_fraction ranges in
        Alcotest.(check bool)
          (Printf.sprintf "arc estimate %.3f vs sampled %.3f" est fraction)
          true
          (Float.abs (est -. fraction) < 0.02));
  ]

(* Satellite property: growing the ring and then removing the shard it
   added must restore the original ownership map exactly — stable
   labels make topology changes reversible, index renumbering and hash
   tie-breaks included. *)
let grow_shrink_roundtrip_test =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"grow then shrink round-trips ring ownership"
       ~count:30
       QCheck2.Gen.(tup2 (int_range 1 10) (int_range 0 9999))
       (fun (shards, seed) ->
         let r0 = Router.create ~shards () in
         let r1, _ = Router.add_shard r0 in
         let r2, _ = Router.remove_shard r1 shards in
         let rng = Rng.create ~seed in
         let ok = ref true in
         for _ = 1 to 2_000 do
           let k = Rng.bits64 rng in
           if Router.shard_of_key r0 k <> Router.shard_of_key r2 k then
             ok := false
         done;
         !ok))

let client_tests =
  [
    Alcotest.test_case "same seed replays the same request stream" `Quick
      (fun () ->
        let mk () =
          Client.create ~clients:8 ~keyspace:1000 ~seed:5 ()
        in
        let a = mk () and b = mk () in
        for _ = 1 to 200 do
          for c = 0 to 7 do
            Alcotest.(check bool) "same op" true
              (Client.next a ~client:c = Client.next b ~client:c)
          done
        done);
    Alcotest.test_case "bad parameters are rejected" `Quick (fun () ->
        let expect_invalid name f =
          match f () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s: expected Invalid_argument" name
        in
        expect_invalid "mix sum" (fun () ->
            Client.create
              ~mix:{ Client.lookups = 50; inserts = 50; deletes = 50 }
              ~clients:1 ~keyspace:10 ~seed:0 ());
        Alcotest.check_raises "negative mix component"
          (Invalid_argument "Client.create: mix percentages must be non-negative")
          (fun () ->
            ignore
              (Client.create
                 ~mix:{ Client.lookups = 50; inserts = 60; deletes = -10 }
                 ~clients:1 ~keyspace:10 ~seed:0 ()));
        expect_invalid "theta" (fun () ->
            Client.create ~theta:1.0 ~clients:1 ~keyspace:10 ~seed:0 ());
        expect_invalid "clients" (fun () ->
            Client.create ~clients:0 ~keyspace:10 ~seed:0 ()));
  ]

(* A small but non-trivial service run; queue_cap = clients so nothing
   sheds (shedding depends on the shard count and would break the
   oracle comparison). *)
let small_params ~shards ~seed =
  {
    Service.default with
    Service.shards;
    clients = 32;
    requests = 3_000;
    keyspace = 400;
    queue_cap = 32;
    seed;
    record_lookups = true;
  }

let service_tests =
  [
    Alcotest.test_case "all requests are served when nothing sheds" `Quick
      (fun () ->
        let r = Service.run ~jobs:1 (small_params ~shards:4 ~seed:7) in
        Alcotest.(check int) "issued" 3_000 r.Service.issued;
        Alcotest.(check int) "served" 3_000 r.Service.served;
        Alcotest.(check int) "shed" 0 r.Service.shed;
        Alcotest.(check int) "shards reported" 4
          (List.length r.Service.per_shard));
    Alcotest.test_case "a run with no requests reports zero latency" `Quick
      (fun () ->
        (* An empty latency sample has no percentile to interpolate;
           the report must still hold zeros, globally and per shard. *)
        let r =
          Service.run ~jobs:1
            { (small_params ~shards:2 ~seed:7) with Service.requests = 0 }
        in
        Alcotest.(check int) "served" 0 r.Service.served;
        let zero name t = Alcotest.(check int) name 0 (Time.to_ps t) in
        List.iter
          (fun (name, t) -> zero name t)
          [
            ("p50", r.Service.p50);
            ("p99", r.Service.p99);
            ("p999", r.Service.p999);
            ("max", r.Service.lat_max);
          ];
        List.iter
          (fun (s : Service.shard_stats) ->
            let name what = Printf.sprintf "shard %d %s" s.shard what in
            zero (name "p50") s.p50;
            zero (name "p99") s.p99;
            zero (name "max") s.lat_max)
          r.Service.per_shard);
    Alcotest.test_case "bounded admission sheds and accounts" `Quick
      (fun () ->
        (* One shard, cap 8, 64 clients per round: most arrivals shed,
           and every issued request is either served or counted shed. *)
        let p =
          {
            Service.default with
            Service.shards = 1;
            clients = 64;
            requests = 1_000;
            keyspace = 100;
            queue_cap = 8;
          }
        in
        let r = Service.run ~jobs:1 p in
        Alcotest.(check bool) "shed something" true (r.Service.shed > 0);
        Alcotest.(check int) "served + shed = issued" r.Service.issued
          (r.Service.served + r.Service.shed));
    Alcotest.test_case "report is byte-identical across --jobs widths"
      `Quick (fun () ->
        let run jobs =
          Service.to_json (Service.run ~jobs (small_params ~shards:5 ~seed:3))
        in
        let one = run 1 in
        Alcotest.(check string) "jobs 1 == jobs 4" one (run 4);
        Alcotest.(check string) "jobs 1 == jobs 2" one (run 2));
    Alcotest.test_case "mid-run crash restores every shard losslessly"
      `Quick (fun () ->
        let p =
          { (small_params ~shards:4 ~seed:13) with Service.crash_at = Some 40 }
        in
        let r = Service.run ~jobs:2 p in
        Alcotest.(check int) "all served" 3_000 r.Service.served;
        Alcotest.(check int) "one restore per shard" 4
          (List.length r.Service.restores);
        Alcotest.(check int) "no acked writes lost" 0 r.Service.lost_acked;
        List.iter
          (fun (rr : Service.restore) ->
            Alcotest.(check bool) "figure-4 save fits" true rr.save_fits;
            Alcotest.(check bool) "restore costs time" true
              Time.(rr.restore_cost > Time.zero))
          r.Service.restores);
    Alcotest.test_case "crash is lossless under undo logging too" `Quick
      (fun () ->
        let p =
          {
            (small_params ~shards:2 ~seed:21) with
            Service.config = Wsp_nvheap.Config.foc_ul;
            requests = 800;
            crash_at = Some 10;
          }
        in
        let r = Service.run ~jobs:1 p in
        Alcotest.(check int) "no acked writes lost" 0 r.Service.lost_acked);
    Alcotest.test_case "lint streams cleanly off every shard bus" `Quick
      (fun () ->
        let p =
          { (small_params ~shards:3 ~seed:2) with Service.lint = true }
        in
        let r = Service.run ~jobs:1 p in
        List.iter
          (fun (s : Service.shard_stats) ->
            Alcotest.(check int)
              (Printf.sprintf "shard %d lint errors" s.shard)
              0 s.lint_errors;
            Alcotest.(check bool) "bus saw stores" true (s.stores > 0))
          r.Service.per_shard);
    Alcotest.test_case "observers do not move the simulation" `Quick
      (fun () ->
        (* The crash lands mid-shrink, so the migration injector counts
           persistency events while both analyzers listen. Race
           annotations travel on their own bus and must never reach
           the injector's count. *)
        let p =
          {
            (small_params ~shards:3 ~seed:19) with
            Service.config = Wsp_nvheap.Config.foc_ul;
            grow_at = Some 5;
            shrink_at = Some 30;
            crash_at = Some 35;
            migrate_batch = 2;
          }
        in
        let plain = Service.run ~jobs:1 p in
        let observed =
          Service.run ~jobs:1 { p with Service.lint = true; race_lint = true }
        in
        let json r =
          String.split_on_char '\n' (Service.to_json r)
          |> List.filter (fun l ->
                 not (String.starts_with ~prefix:"  \"race_lint\"" l))
        in
        Alcotest.(check bool) "the migration was injected into" true
          (plain.Service.mig_events > 0);
        Alcotest.(check bool) "the race lint ran" true
          (observed.Service.race <> None);
        Alcotest.(check int) "migration events" plain.Service.mig_events
          observed.Service.mig_events;
        Alcotest.(check (list string)) "report" (json plain) (json observed));
    Alcotest.test_case "growing mid-run migrates and stays correct" `Quick
      (fun () ->
        (* The ring grows 3→4 while clients keep issuing; the drained
           service must answer exactly like the single-shard oracle. *)
        let p =
          { (small_params ~shards:3 ~seed:17) with Service.grow_at = Some 20 }
        in
        let r = Service.run ~jobs:2 p in
        Alcotest.(check int) "no acked writes lost" 0 r.Service.lost_acked;
        Alcotest.(check int) "every key owned where routed" 0
          r.Service.misplaced_keys;
        Alcotest.(check int) "four shards reported" 4
          (List.length r.Service.per_shard);
        (match r.Service.topology with
        | [ tc ] ->
            Alcotest.(check bool) "grew" true (tc.Service.change = `Grow);
            Alcotest.(check int) "3 -> 4" 4 tc.Service.to_shards;
            Alcotest.(check int) "keys drained" r.Service.keys_moved
              tc.Service.moved_keys;
            Alcotest.(check bool) "moved something" true (tc.Service.moved_keys > 0)
        | l -> Alcotest.failf "expected 1 topology change, got %d" (List.length l));
        let oracle = Service.run ~jobs:1 (small_params ~shards:1 ~seed:17) in
        let get = function Some x -> x | None -> assert false in
        Alcotest.(check bool) "lookups match the oracle" true
          (get r.Service.lookup_results = get oracle.Service.lookup_results);
        Alcotest.(check bool) "final contents match the oracle" true
          (get r.Service.final_contents = get oracle.Service.final_contents));
    Alcotest.test_case "shrinking mid-run drains and retires the victim"
      `Quick (fun () ->
        let p =
          { (small_params ~shards:4 ~seed:23) with Service.shrink_at = Some 20 }
        in
        let r = Service.run ~jobs:2 p in
        Alcotest.(check int) "no acked writes lost" 0 r.Service.lost_acked;
        Alcotest.(check int) "every key owned where routed" 0
          r.Service.misplaced_keys;
        let victim =
          List.find (fun (s : Service.shard_stats) -> s.shard = 3)
            r.Service.per_shard
        in
        Alcotest.(check bool) "victim retired" true victim.Service.retired;
        Alcotest.(check int) "victim fully drained" 0 victim.Service.final_keys;
        Alcotest.(check bool) "victim surrendered keys" true
          (victim.Service.migrated_out > 0);
        let oracle = Service.run ~jobs:1 (small_params ~shards:1 ~seed:23) in
        let get = function Some x -> x | None -> assert false in
        Alcotest.(check bool) "lookups match the oracle" true
          (get r.Service.lookup_results = get oracle.Service.lookup_results);
        Alcotest.(check bool) "final contents match the oracle" true
          (get r.Service.final_contents = get oracle.Service.final_contents));
    Alcotest.test_case "one shard's power failure spares the rest" `Quick
      (fun () ->
        let base = small_params ~shards:4 ~seed:29 in
        let crashed =
          Service.run ~jobs:2
            { base with Service.crash_at = Some 30; crash_shard = Some 2 }
        in
        let clean = Service.run ~jobs:2 base in
        Alcotest.(check int) "no acked writes lost" 0 crashed.Service.lost_acked;
        Alcotest.(check bool) "availability dipped" true
          (crashed.Service.availability < 1.0);
        (match crashed.Service.restores with
        | [ rr ] -> Alcotest.(check int) "shard 2 restored" 2 rr.Service.shard
        | l -> Alcotest.failf "expected 1 restore, got %d" (List.length l));
        Alcotest.(check int) "every arrival accounted"
          crashed.Service.issued
          (crashed.Service.served + crashed.Service.shed
         + crashed.Service.crash_shed);
        (* The surviving shards must keep serving: within 5% of the
           crash-free run (the issue's acceptance bound). *)
        List.iter2
          (fun (c : Service.shard_stats) (n : Service.shard_stats) ->
            Alcotest.(check int) "stable id order" n.Service.shard
              c.Service.shard;
            if c.Service.shard <> 2 then begin
              let slack = max 1 (n.Service.served / 20) in
              Alcotest.(check bool)
                (Printf.sprintf "shard %d served %d vs %d crash-free"
                   c.Service.shard c.Service.served n.Service.served)
                true
                (abs (c.Service.served - n.Service.served) <= slack);
              Alcotest.(check bool) "survivor never down" true
                (Time.equal c.Service.downtime Time.zero)
            end
            else
              Alcotest.(check bool) "victim booked downtime" true
                Time.(c.Service.downtime > Time.zero))
          crashed.Service.per_shard clean.Service.per_shard);
    Alcotest.test_case "whole-service crash mid-migration is lossless"
      `Quick (fun () ->
        (* Tiny batches stretch the drain over many rounds so the crash
           lands while double-ownership handoffs are in flight. *)
        let p =
          {
            (small_params ~shards:3 ~seed:41) with
            Service.grow_at = Some 10;
            migrate_batch = 1;
          }
        in
        let crashed = Service.run ~jobs:2 { p with Service.crash_at = Some 14 } in
        let golden = Service.run ~jobs:2 p in
        Alcotest.(check int) "no acked writes lost" 0 crashed.Service.lost_acked;
        Alcotest.(check int) "every key owned where routed" 0
          crashed.Service.misplaced_keys;
        let get = function Some x -> x | None -> assert false in
        Alcotest.(check bool) "final contents match crash-free run" true
          (get crashed.Service.final_contents = get golden.Service.final_contents));
    Alcotest.test_case "jobs byte-identity survives topology and crash"
      `Quick (fun () ->
        let p =
          {
            (small_params ~shards:4 ~seed:53) with
            Service.grow_at = Some 15;
            shrink_at = Some 50;
            crash_at = Some 30;
            crash_shard = Some 1;
          }
        in
        let run jobs = Service.to_json (Service.run ~jobs p) in
        Alcotest.(check string) "jobs 1 == jobs 4" (run 1) (run 4));
    Alcotest.test_case "invalid crash and topology parameters are rejected"
      `Quick (fun () ->
        let base = small_params ~shards:2 ~seed:1 in
        Alcotest.check_raises "crash_shard needs crash_at"
          (Invalid_argument "Service.run: crash_shard needs crash_at")
          (fun () ->
            ignore (Service.run { base with Service.crash_shard = Some 0 }));
        Alcotest.check_raises "no such shard"
          (Invalid_argument "Service.run: no such shard")
          (fun () ->
            ignore
              (Service.run
                 { base with Service.crash_at = Some 5; crash_shard = Some 9 }));
        Alcotest.check_raises "empty shard heap"
          (Invalid_argument "Service.run: shard_heap must be positive")
          (fun () ->
            ignore
              (Service.run
                 { base with Service.shard_heap = Units.Size.mib (-1) }));
        (* NaN fails every comparison, so a range test written the
           other way round would wave it through. *)
        List.iter
          (fun theta ->
            Alcotest.check_raises
              (Printf.sprintf "theta %g" theta)
              (Invalid_argument
                 "Client.create: theta must be in [0, 1) (YCSB zipfian range)")
              (fun () ->
                ignore
                  (Client.create ~theta ~clients:1 ~keyspace:10 ~seed:0 ())))
          [ -1.0; Float.nan; Float.neg_infinity; 1.0 ];
        Alcotest.check_raises "cannot shrink to nothing"
          (Invalid_argument "Service.run: cannot shrink a 1-shard service")
          (fun () ->
            ignore
              (Service.run
                 { (small_params ~shards:1 ~seed:1) with
                   Service.shrink_at = Some 5 }));
        Alcotest.check_raises "sweep needs a migration"
          (Invalid_argument "Service.crash_sweep: needs grow_at or shrink_at")
          (fun () -> ignore (Service.crash_sweep base));
        (* A sweep reports neither analyzer's verdict, so it refuses
           to run them at every crash point. *)
        Alcotest.check_raises "sweep refuses the analyzers"
          (Invalid_argument
             "Service.crash_sweep: lint and race_lint verdicts are not swept")
          (fun () ->
            ignore
              (Service.crash_sweep
                 { base with Service.grow_at = Some 5; race_lint = true })));
    Alcotest.test_case "a sweep with nothing to inject is refused" `Quick
      (fun () ->
        (* No requests, so the grow moves no key and the golden run
           counts no migration event: a sweep would certify nothing. *)
        let p =
          {
            (small_params ~shards:2 ~seed:1) with
            Service.requests = 0;
            grow_at = Some 0;
          }
        in
        Alcotest.check_raises "zero migration events"
          (Invalid_argument
             "Service.crash_sweep: the migration has no persistency event")
          (fun () -> ignore (Service.crash_sweep ~jobs:1 p)));
    Alcotest.test_case "triggers at or past the last round fire after it"
      `Quick (fun () ->
        let base = small_params ~shards:4 ~seed:37 in
        let rounds = (base.requests + base.clients - 1) / base.clients in
        (* name, grow_at, shrink_at, crash_at, crash_shard, changes *)
        let cases =
          [
            ("grow alone", Some rounds, None, None, None, [ `Grow ]);
            ("shrink alone", None, Some (rounds + 50), None, None, [ `Shrink ]);
            ( "grow then shrink",
              Some rounds,
              Some (rounds + 1),
              None,
              None,
              [ `Grow; `Shrink ] );
            ( "whole-service crash",
              Some (rounds + 3),
              None,
              Some rounds,
              None,
              [ `Grow ] );
            ("one shard's crash", None, None, Some (rounds + 9), Some 1, []);
          ]
        in
        List.iter
          (fun (name, grow_at, shrink_at, crash_at, crash_shard, changes) ->
            let p =
              { base with Service.grow_at; shrink_at; crash_at; crash_shard }
            in
            let r = Service.run ~jobs:1 p in
            let check_int what = Alcotest.(check int) (name ^ ": " ^ what) in
            check_int "rounds" rounds r.Service.rounds;
            Alcotest.(check bool)
              (name ^ ": topology changes in order")
              true
              (List.map (fun t -> t.Service.change) r.Service.topology
              = changes);
            List.iter
              (fun (t : Service.topology_change) ->
                check_int "change fired after the last round" rounds
                  t.at_round)
              r.Service.topology;
            let live =
              List.filter
                (fun (s : Service.shard_stats) -> not s.retired)
                r.Service.per_shard
            in
            check_int "restores"
              (match (crash_at, crash_shard) with
              | None, _ -> 0
              | Some _, Some _ -> 1
              | Some _, None -> List.length live)
              (List.length r.Service.restores);
            check_int "lost acked" 0 r.Service.lost_acked;
            check_int "misplaced keys" 0 r.Service.misplaced_keys;
            Alcotest.(check string)
              (name ^ ": jobs 1 == jobs 2")
              (Service.to_json r)
              (Service.to_json (Service.run ~jobs:2 p)))
          cases);
    Alcotest.test_case "metrics export is identical across job widths"
      `Quick (fun () ->
        (* The kv-cold-undo shape: every shard counts into a private
           registry, so two worker domains never share a counter cell
           and the merged export cannot depend on the width. *)
        let p =
          {
            Service.default with
            Service.shards = 2;
            requests = 10_000;
            keyspace = 2_000_000;
            theta = 0.0;
            mix = { Client.lookups = 20; inserts = 75; deletes = 5 };
            config = Wsp_nvheap.Config.foc_ul;
            shard_heap = Units.Size.mib 16;
          }
        in
        let export jobs =
          Wsp_obs.Metrics.reset_all ();
          ignore (Service.run ~jobs p);
          let m = Wsp_obs.Metrics.merged () in
          ( Wsp_obs.Metrics.to_json m,
            Wsp_obs.Metrics.Counter.value
              (Wsp_obs.Metrics.counter m "machine.cache.hits") )
        in
        let (j1, hits), (j2, _) =
          Fun.protect ~finally:Wsp_obs.Metrics.reset_all (fun () ->
              let j1 = export 1 in
              (j1, export 2))
        in
        Alcotest.(check bool) "counted cache hits" true (hits > 0);
        Alcotest.(check string) "jobs 1 == jobs 2" j1 j2);
    Alcotest.test_case "no subscriber outlives a run on any shard bus"
      `Quick (fun () ->
        (* A plain run never subscribes; a migrating one attaches its
           crash injector only for each migration window. *)
        let check name p =
          List.iter
            (fun (s : Service.shard_stats) ->
              Alcotest.(check int)
                (Printf.sprintf "%s: shard %d subscribers" name s.shard)
                0 s.bus_subscribers)
            (Service.run ~jobs:1 p).Service.per_shard
        in
        let p = small_params ~shards:3 ~seed:5 in
        check "plain" p;
        check "grow" { p with Service.grow_at = Some 20 };
        check "undo shrink"
          { p with Service.config = Wsp_nvheap.Config.foc_ul; shrink_at = Some 20 };
        (* Counting metrics subscribes nothing either. *)
        Wsp_obs.Metrics.reset_all ();
        check "undo, metrics collected"
          { p with Service.config = Wsp_nvheap.Config.foc_ul };
        let merged = Wsp_obs.Metrics.merged () in
        Wsp_obs.Metrics.reset_all ();
        List.iter
          (fun name ->
            Alcotest.(check bool) (name ^ " counted") true
              (Wsp_obs.Metrics.Counter.value (Wsp_obs.Metrics.counter merged name) > 0))
          [ "machine.flush.fences"; "nvheap.log.appends"; "nvheap.txn.commits" ]);
    Alcotest.test_case "the report's event counts are the metrics export's"
      `Quick (fun () ->
        (* Per event class, the per-shard counts summed over shards equal
           the merged metrics of the run less those of the same params
           serving no request, which count only the shards' formatting
           (without the crash, which an idle run would fire at its end).
           An undo-logged run with a whole-service crash reaches every
           class. *)
        let p =
          {
            (small_params ~shards:3 ~seed:9) with
            Service.config = Wsp_nvheap.Config.foc_ul;
            crash_at = Some 40;
          }
        in
        let export p =
          Wsp_obs.Metrics.reset_all ();
          let r = Service.run ~jobs:1 p in
          (r, Wsp_obs.Metrics.merged ())
        in
        let (r, run), (_, idle) =
          Fun.protect ~finally:Wsp_obs.Metrics.reset_all (fun () ->
              let run = export p in
              (run, export { p with Service.requests = 0; crash_at = None }))
        in
        let delta names =
          List.fold_left
            (fun n name ->
              let v reg =
                Wsp_obs.Metrics.Counter.value (Wsp_obs.Metrics.counter reg name)
              in
              n + v run - v idle)
            0 names
        in
        let line =
          Wsp_machine.Hierarchy.config_line_size
            (Wsp_machine.Platform.core_hierarchy Wsp_machine.Platform.intel_c5528)
        in
        List.iter
          (fun (cls, field, names, unit) ->
            let reported =
              List.fold_left (fun n s -> n + field s) 0 r.Service.per_shard
            in
            Alcotest.(check bool) (cls ^ " counted") true (reported > 0);
            Alcotest.(check int) cls (delta names) (unit * reported))
          Service.
            [
              ( "stores",
                (fun s -> s.stores),
                [ "nvheap.stores"; "machine.flush.nt_stores" ],
                1 );
              ( "flushes",
                (fun s -> s.flushes),
                [
                  "machine.flush.clflush";
                  "machine.flush.flush_range";
                  "machine.flush.wbinvd";
                ],
                1 );
              ("fences", (fun s -> s.fences), [ "machine.flush.fences" ], 1);
              ( "writebacks",
                (fun s -> s.writebacks),
                Wsp_machine.Hierarchy.writeback_byte_counters,
                line );
              ("tx_commits", (fun s -> s.tx_commits), [ "nvheap.txn.commits" ], 1);
              ("log_appends", (fun s -> s.log_appends), [ "nvheap.log.appends" ], 1);
              ("allocs", (fun s -> s.allocs), [ "nvheap.alloc.allocs" ], 1);
              ("frees", (fun s -> s.frees), [ "nvheap.alloc.frees" ], 1);
            ]);
    Alcotest.test_case "an injection at a write-back still yields a verdict"
      `Quick (fun () ->
        (* Both shapes once armed the injector at a [Wb] event, which is
           published mid-eviction: raising there orphaned the evicted
           line and the next wbinvd failed its assertion. [Crash] counts
           no [Wb] now; the shapes stay as the regression. The verdicts
           themselves are not pinned here. *)
        let p =
          {
            Service.default with
            Service.shards = 3;
            clients = 32;
            queue_cap = 32;
            requests = 2_000;
            keyspace = 500;
          }
        in
        List.iter
          (fun (name, p, points) ->
            let sw = Service.crash_sweep ~jobs:1 ~points p in
            Alcotest.(check int) (name ^ ": points run") points
              (List.length sw.Service.points))
          [
            ( "grow/undo",
              { p with Service.grow_at = Some 5; config = Wsp_nvheap.Config.foc_ul },
              6 );
            ( "shrink/msync",
              { p with Service.shrink_at = Some 5; config = Wsp_nvheap.Config.msync },
              12 );
          ]);
    Alcotest.test_case "crash sweep finds no violation at any event" `Slow
      (fun () ->
        let p =
          {
            Service.default with
            Service.shards = 2;
            clients = 16;
            requests = 800;
            keyspace = 200;
            queue_cap = 16;
            seed = 61;
            grow_at = Some 8;
            migrate_batch = 8;
            record_lookups = true;
          }
        in
        let sw = Service.crash_sweep ~jobs:2 ~points:6 p in
        Alcotest.(check bool) "migration produced events" true
          (sw.Service.total_events > 0);
        Alcotest.(check bool) "injected some failures" true
          (List.length sw.Service.points > 0);
        Alcotest.(check int) "no violations" 0
          (List.length (Service.sweep_violations sw)));
  ]

(* The headline property: serving through N shards is observably
   equivalent to the single-shard oracle. Keys route to exactly one
   shard, per-shard batches preserve issue order, and clients draw
   identically regardless of topology — so every lookup answers the
   same and the merged final contents match key for key. *)
let oracle_equivalence_test =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"sharded service == single-shard oracle"
       ~count:10
       QCheck2.Gen.(
         tup4 (int_range 2 8) (int_range 0 999) (oneofl [ 0.0; 0.6; 0.99 ])
           (oneofl [ 1; 4 ]))
       (fun (shards, seed, theta, jobs) ->
         let run shards jobs =
           Service.run ~jobs
             { (small_params ~shards ~seed) with Service.theta }
         in
         let sharded = run shards jobs in
         let oracle = run 1 1 in
         let get = function Some x -> x | None -> assert false in
         sharded.Service.shed = 0
         && oracle.Service.shed = 0
         && get sharded.Service.lookup_results
            = get oracle.Service.lookup_results
         && get sharded.Service.final_contents
            = get oracle.Service.final_contents))

(* Image-shipping migration: instead of draining key by key from the
   live source tree, the source ships a relocatable heap image to a
   staging base and handoffs read from the restored replica (falling
   back to the live tree only for keys written after the ship). A
   broken relocation would corrupt handed-off values, so golden
   equality against drain mode is a real end-to-end check. *)
let migration_mode_tests =
  [
    Alcotest.test_case "image-shipping migration matches key drain" `Quick
      (fun () ->
        let p =
          { (small_params ~shards:4 ~seed:17) with Service.grow_at = Some 10 }
        in
        let drain = Service.run ~jobs:2 p in
        let image =
          Service.run ~jobs:2 { p with Service.migrate_mode = `Image }
        in
        Alcotest.(check bool) "shipped at least one image" true
          (image.Service.images_shipped > 0);
        Alcotest.(check bool) "wire bytes accounted" true
          (image.Service.image_bytes > 0);
        Alcotest.(check int) "drain ships nothing" 0
          drain.Service.images_shipped;
        let get = function Some x -> x | None -> assert false in
        Alcotest.(check bool) "lookups equal" true
          (get image.Service.lookup_results = get drain.Service.lookup_results);
        Alcotest.(check bool) "final contents equal" true
          (get image.Service.final_contents
          = get drain.Service.final_contents);
        Alcotest.(check int) "no acked writes lost" 0
          image.Service.lost_acked;
        Alcotest.(check int) "every key owned where routed" 0
          image.Service.misplaced_keys);
    Alcotest.test_case "image mode report is byte-identical across --jobs"
      `Quick (fun () ->
        let p =
          {
            (small_params ~shards:3 ~seed:31) with
            Service.shrink_at = Some 15;
            migrate_mode = `Image;
          }
        in
        let run jobs = Service.to_json (Service.run ~jobs p) in
        Alcotest.(check string) "jobs 1 == jobs 4" (run 1) (run 4));
  ]

(* Both migration modes are the same observable service: for any
   topology change the image-shipped run answers every lookup and
   lands every key exactly like the drain run. *)
let migration_mode_equivalence_test =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"image migration == drain migration" ~count:8
       QCheck2.Gen.(
         tup3 (int_range 2 6) (int_range 0 999) (oneofl [ `Grow; `Shrink ]))
       (fun (shards, seed, change) ->
         let base = small_params ~shards ~seed in
         let base =
           match change with
           | `Grow -> { base with Service.grow_at = Some 20 }
           | `Shrink -> { base with Service.shrink_at = Some 20 }
         in
         let drain = Service.run ~jobs:2 base in
         let image =
           Service.run ~jobs:2 { base with Service.migrate_mode = `Image }
         in
         let get = function Some x -> x | None -> assert false in
         image.Service.lost_acked = 0
         && image.Service.misplaced_keys = 0
         && get image.Service.lookup_results
            = get drain.Service.lookup_results
         && get image.Service.final_contents
            = get drain.Service.final_contents))

let suite =
  [
    ("shard.router", router_tests @ [ grow_shrink_roundtrip_test ]);
    ("shard.client", client_tests);
    ("shard.service", service_tests @ [ oracle_equivalence_test ]);
    ( "shard.migration",
      migration_mode_tests @ [ migration_mode_equivalence_test ] );
  ]
