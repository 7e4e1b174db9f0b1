(* Tests for wsp_machine: caches, the hierarchy, CPUs, platforms and
   the flush cost model. *)

open Wsp_sim
open Wsp_machine

let check_time = Alcotest.testable Time.pp Time.equal

let small_cache ?(name = "L1") ?(size = Units.Size.bytes 1024) ?(assoc = 2) () =
  Cache.create
    {
      Cache.name;
      size;
      line_size = 64;
      associativity = assoc;
      hit_latency = Time.ns 2.0;
    }

(* --- Cache -------------------------------------------------------------- *)

let cache_tests =
  [
    Alcotest.test_case "miss then hit" `Quick (fun () ->
        let c = small_cache () in
        Alcotest.(check bool) "cold miss" false (Cache.probe c ~line:3);
        ignore (Cache.insert c ~line:3 ~dirty:false);
        Alcotest.(check bool) "hit" true (Cache.probe c ~line:3));
    Alcotest.test_case "line count" `Quick (fun () ->
        Alcotest.(check int) "16 lines" 16 (Cache.line_count (small_cache ())));
    Alcotest.test_case "LRU eviction within a set" `Quick (fun () ->
        let c = small_cache () in
        (* 8 sets, 2 ways; lines 0, 8, 16 all map to set 0. *)
        ignore (Cache.insert c ~line:0 ~dirty:false);
        ignore (Cache.insert c ~line:8 ~dirty:false);
        ignore (Cache.probe c ~line:0);
        (* 8 is now LRU *)
        let victim = Cache.insert c ~line:16 ~dirty:false in
        if victim = Cache.no_victim then Alcotest.fail "expected an eviction";
        Alcotest.(check int) "victim is LRU" 8 (Cache.victim_line victim);
        Alcotest.(check bool) "0 stays" true (Cache.contains c ~line:0));
    Alcotest.test_case "dirty eviction reported" `Quick (fun () ->
        let c = small_cache () in
        ignore (Cache.insert c ~line:0 ~dirty:true);
        ignore (Cache.insert c ~line:8 ~dirty:false);
        let victim = Cache.insert c ~line:16 ~dirty:false in
        if victim = Cache.no_victim then Alcotest.fail "expected an eviction";
        Alcotest.(check bool) "dirty" true (Cache.victim_dirty victim));
    Alcotest.test_case "insert merges dirty flag" `Quick (fun () ->
        let c = small_cache () in
        ignore (Cache.insert c ~line:1 ~dirty:true);
        ignore (Cache.insert c ~line:1 ~dirty:false);
        Alcotest.(check bool) "still dirty" true (Cache.is_dirty c ~line:1));
    Alcotest.test_case "an evicted line reads absent and re-inserts cleanly"
      `Quick (fun () ->
        (* 8 sets, 2 ways. Line 1029 (set 5) sits in the line
           directory's third page; 5 and 13 fill its set and evict it. *)
        let c = small_cache () in
        let line = (128 * 8) + 5 in
        ignore (Cache.insert c ~line ~dirty:true);
        ignore (Cache.insert c ~line:5 ~dirty:false);
        let victim = Cache.insert c ~line:13 ~dirty:false in
        Alcotest.(check int) "evicted" line (Cache.victim_line victim);
        Alcotest.(check bool) "contains" false (Cache.contains c ~line);
        Alcotest.(check bool) "probe" false (Cache.probe c ~line);
        Alcotest.(check bool) "is_dirty" false (Cache.is_dirty c ~line);
        Cache.set_dirty c ~line;
        Alcotest.(check int) "set_dirty on it is a no-op" 0 (Cache.dirty_count c);
        Alcotest.(check bool) "invalidate" false (Cache.invalidate c ~line);
        Alcotest.(check int) "resident" 2 (Cache.resident_count c);
        let victim = Cache.insert_absent c ~line ~dirty:false in
        Alcotest.(check int) "re-insert evicts the LRU way" 5
          (Cache.victim_line victim);
        Alcotest.(check bool) "back" true (Cache.contains c ~line);
        Alcotest.(check bool) "clean" false (Cache.is_dirty c ~line);
        Alcotest.(check bool) "its victim reads absent" false
          (Cache.contains c ~line:5);
        Alcotest.(check bool) "13 stays" true (Cache.contains c ~line:13);
        Alcotest.(check int) "resident after" 2 (Cache.resident_count c));
    Alcotest.test_case "invalidate returns dirtiness" `Quick (fun () ->
        let c = small_cache () in
        ignore (Cache.insert c ~line:1 ~dirty:true);
        Alcotest.(check bool) "was dirty" true (Cache.invalidate c ~line:1);
        Alcotest.(check bool) "gone" false (Cache.contains c ~line:1);
        Alcotest.(check bool) "second invalidate" false (Cache.invalidate c ~line:1));
    Alcotest.test_case "dirty accounting" `Quick (fun () ->
        let c = small_cache () in
        ignore (Cache.insert c ~line:1 ~dirty:true);
        ignore (Cache.insert c ~line:2 ~dirty:false);
        Cache.set_dirty c ~line:2;
        ignore (Cache.insert c ~line:3 ~dirty:false);
        Alcotest.(check int) "dirty count" 2 (Cache.dirty_count c);
        Alcotest.(check int) "resident" 3 (Cache.resident_count c);
        let dirty = List.sort compare (Cache.dirty_lines c) in
        Alcotest.(check (list int)) "dirty lines" [ 1; 2 ] dirty);
    Alcotest.test_case "clear wipes everything" `Quick (fun () ->
        let c = small_cache () in
        ignore (Cache.insert c ~line:1 ~dirty:true);
        Cache.clear c;
        Alcotest.(check int) "resident" 0 (Cache.resident_count c);
        Alcotest.(check int) "dirty" 0 (Cache.dirty_count c));
  ]

let cache_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"dirty lines are a subset of resident lines" ~count:100
         QCheck2.Gen.(
           list_size (int_range 0 200) (pair (int_range 0 3) (int_range 0 80)))
         (fun ops ->
           let c = small_cache () in
           List.iter
             (fun (kind, line) ->
               match kind with
               | 0 -> ignore (Cache.insert c ~line ~dirty:false)
               | 1 -> ignore (Cache.insert c ~line ~dirty:true)
               | 2 -> Cache.set_dirty c ~line
               | _ -> ignore (Cache.invalidate c ~line))
             ops;
           Cache.dirty_count c <= Cache.resident_count c
           && List.for_all (fun l -> Cache.contains c ~line:l) (Cache.dirty_lines c)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"resident never exceeds capacity" ~count:100
         QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 1000))
         (fun lines ->
           let c = small_cache () in
           List.iter (fun line -> ignore (Cache.insert c ~line ~dirty:false)) lines;
           Cache.resident_count c <= Cache.line_count c));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"inserted line is present until evicted"
         ~count:100
         QCheck2.Gen.(list_size (int_range 1 100) (int_range 0 100))
         (fun lines ->
           let c = small_cache () in
           List.for_all
             (fun line ->
               ignore (Cache.insert c ~line ~dirty:false);
               Cache.contains c ~line)
             lines));
  ]

(* --- Hierarchy ----------------------------------------------------------- *)

let tiny_hierarchy ?(on_writeback = fun ~line:_ ~explicit:_ -> ()) ?metrics
    () =
  Hierarchy.create ~on_writeback ?metrics
    {
      Hierarchy.levels =
        [
          {
            Cache.name = "L1";
            size = Units.Size.bytes 512;
            line_size = 64;
            associativity = 2;
            hit_latency = Time.ns 1.0;
          };
          {
            Cache.name = "L2";
            size = Units.Size.bytes 2048;
            line_size = 64;
            associativity = 4;
            hit_latency = Time.ns 4.0;
          };
        ];
      memory_latency = Time.ns 60.0;
      memory_bandwidth = Units.Bandwidth.gib_per_s 10.0;
      memory_write_bandwidth = Units.Bandwidth.gib_per_s 10.0;
      nt_store_latency = Time.ns 20.0;
      fence_latency = Time.ns 50.0;
      clflush_issue = Time.ns 6.0;
      wbinvd_line_walk = Time.ns 7.0;
    }

let hierarchy_tests =
  [
    Alcotest.test_case "load latencies by hit level" `Quick (fun () ->
        let h = tiny_hierarchy () in
        (* Cold miss probes L1+L2 then memory. *)
        Alcotest.check check_time "cold" (Time.ns 65.0) (Hierarchy.load h ~addr:0);
        (* Now an L1 hit. *)
        Alcotest.check check_time "L1 hit" (Time.ns 1.0) (Hierarchy.load h ~addr:0));
    Alcotest.test_case "L2 hit after L1 eviction" `Quick (fun () ->
        let h = tiny_hierarchy () in
        (* L1: 4 sets x 2 ways. Lines 0,4,8 map to L1 set 0; filling 0,4
           then 8 evicts line 0 from L1 but it stays in L2. *)
        ignore (Hierarchy.load h ~addr:0);
        ignore (Hierarchy.load h ~addr:(4 * 64));
        ignore (Hierarchy.load h ~addr:(8 * 64));
        Alcotest.check check_time "L2 hit" (Time.ns 5.0) (Hierarchy.load h ~addr:0));
    Alcotest.test_case "store dirties exactly one line" `Quick (fun () ->
        let h = tiny_hierarchy () in
        ignore (Hierarchy.store h ~addr:100);
        Alcotest.(check (list int)) "dirty" [ 1 ] (Hierarchy.dirty_lines h);
        Alcotest.(check int) "bytes" 64 (Hierarchy.dirty_bytes h));
    Alcotest.test_case "LLC eviction of dirty line writes back" `Quick (fun () ->
        let written = ref [] in
        let h = tiny_hierarchy ~on_writeback:(fun ~line ~explicit:_ -> written := line :: !written) () in
        (* L2: 8 sets x 4 ways; lines 0,8,16,24,32 map to L2 set 0. *)
        ignore (Hierarchy.store h ~addr:0);
        List.iter
          (fun l -> ignore (Hierarchy.load h ~addr:(l * 64)))
          [ 8; 16; 24; 32 ];
        Alcotest.(check (list int)) "wrote back line 0" [ 0 ] !written;
        Alcotest.(check (list int)) "no longer dirty" [] (Hierarchy.dirty_lines h));
    Alcotest.test_case "clflush writes back and invalidates" `Quick (fun () ->
        let written = ref [] in
        let h = tiny_hierarchy ~on_writeback:(fun ~line ~explicit:_ -> written := line :: !written) () in
        ignore (Hierarchy.store h ~addr:130);
        let cost = Hierarchy.clflush h ~addr:130 in
        Alcotest.(check (list int)) "written" [ 2 ] !written;
        Alcotest.(check (list int)) "clean" [] (Hierarchy.dirty_lines h);
        Alcotest.(check bool) "charged more than issue" true
          Time.(cost > Time.ns 6.0);
        (* Flushing a clean line costs only the issue. *)
        Alcotest.check check_time "clean flush" (Time.ns 6.0)
          (Hierarchy.clflush h ~addr:130));
    Alcotest.test_case "flush_all cleans everything and walks all slots" `Quick
      (fun () ->
        let written = ref 0 in
        let h = tiny_hierarchy ~on_writeback:(fun ~line:_ ~explicit:_ -> incr written) () in
        for i = 0 to 9 do
          ignore (Hierarchy.store h ~addr:(i * 64))
        done;
        let dirty_before = List.length (Hierarchy.dirty_lines h) in
        let cost = Hierarchy.flush_all h in
        Alcotest.(check int) "all written back" dirty_before !written;
        Alcotest.(check (list int)) "clean" [] (Hierarchy.dirty_lines h);
        Alcotest.(check int) "nothing resident" 0 (Hierarchy.resident_lines h);
        (* Walk: 40 slots x 7 ns = 280 ns minimum. *)
        Alcotest.(check bool) "cost includes walk" true Time.(cost >= Time.ns 280.0));
    Alcotest.test_case "drop_volatile loses dirty data silently" `Quick (fun () ->
        let written = ref 0 in
        let h = tiny_hierarchy ~on_writeback:(fun ~line:_ ~explicit:_ -> incr written) () in
        ignore (Hierarchy.store h ~addr:0);
        Hierarchy.drop_volatile h;
        Alcotest.(check int) "no write-back" 0 !written;
        Alcotest.(check (list int)) "nothing dirty" [] (Hierarchy.dirty_lines h));
    Alcotest.test_case "store_nt flushes a dirty cached line first" `Quick
      (fun () ->
        let written = ref [] in
        let h = tiny_hierarchy ~on_writeback:(fun ~line ~explicit:_ -> written := line :: !written) () in
        ignore (Hierarchy.store h ~addr:0);
        ignore (Hierarchy.store_nt h ~addr:8);
        Alcotest.(check (list int)) "line 0 written back" [ 0 ] !written);
    Alcotest.test_case "an NT store finds its line absent until a fill" `Quick
      (fun () ->
        (* The second NT store finds the line absent; the load refills
           it, so the last NT store must find it dirty again. *)
        let metrics = Wsp_obs.Metrics.create () in
        let explicit_wbs = ref 0 in
        let h =
          tiny_hierarchy ~metrics
            ~on_writeback:(fun ~line:_ ~explicit ->
              if explicit then incr explicit_wbs)
            ()
        in
        let addr = 3 * 64 in
        ignore (Hierarchy.store h ~addr);
        ignore (Hierarchy.store_nt h ~addr);
        ignore (Hierarchy.store_nt h ~addr:(addr + 8));
        ignore (Hierarchy.load h ~addr);
        ignore (Hierarchy.store h ~addr);
        ignore (Hierarchy.store_nt h ~addr);
        Alcotest.(check int) "explicit write-backs" 2 !explicit_wbs;
        Alcotest.(check int) "nt_flush_bytes" (2 * 64)
          (Wsp_obs.Metrics.Counter.value
             (Wsp_obs.Metrics.counter metrics "machine.flush.nt_flush_bytes")));
    Alcotest.test_case "total_line_slots" `Quick (fun () ->
        let h = tiny_hierarchy () in
        Alcotest.(check int) "slots" (8 + 32) (Hierarchy.total_line_slots h));
  ]

(* L1 and L2 both 8 lines, over a 16-line LLC. *)
let three_level_hierarchy () =
  let level name bytes associativity ns =
    {
      Cache.name;
      size = Units.Size.bytes bytes;
      line_size = 64;
      associativity;
      hit_latency = Time.ns ns;
    }
  in
  Hierarchy.create
    {
      Hierarchy.levels =
        [ level "L1" 512 2 1.0; level "L2" 512 4 3.0; level "L3" 1024 4 9.0 ];
      memory_latency = Time.ns 60.0;
      memory_bandwidth = Units.Bandwidth.gib_per_s 10.0;
      memory_write_bandwidth = Units.Bandwidth.gib_per_s 10.0;
      nt_store_latency = Time.ns 20.0;
      fence_latency = Time.ns 50.0;
      clflush_issue = Time.ns 6.0;
      wbinvd_line_walk = Time.ns 7.0;
    }

let hierarchy_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"inclusion: every upper-level line is resident in the LLC"
         ~count:100
         QCheck2.Gen.(
           pair bool
             (list_size (int_range 0 150)
                (triple (int_range 0 4) (int_range 0 80) (int_range 1 3))))
         (fun (deep, ops) ->
           (* Every line resident in level i is resident in level i+1,
              after every operation: the invariant that lets
              [invalidate_line] stop at an LLC miss. Drawn on the
              two-level tiny hierarchy and on a three-level one whose
              L2 is as small as its L1, so back-invalidation cascades. *)
           let h = if deep then three_level_hierarchy () else tiny_hierarchy () in
           let levels = List.length (Hierarchy.config h).Hierarchy.levels in
           let inclusive () =
             List.for_all
               (fun line ->
                 List.for_all
                   (fun i ->
                     (not (Hierarchy.resident_at h ~level:i ~line))
                     || Hierarchy.resident_at h ~level:(i + 1) ~line)
                   (List.init (levels - 1) Fun.id))
               (List.init 81 Fun.id)
           in
           List.for_all
             (fun (op, line, span) ->
               let addr = line * 64 in
               (match op with
               | 0 -> ignore (Hierarchy.load h ~addr)
               | 1 -> ignore (Hierarchy.store h ~addr)
               | 2 -> ignore (Hierarchy.store_nt h ~addr)
               | 3 -> ignore (Hierarchy.clflush h ~addr)
               | _ -> ignore (Hierarchy.flush_lines h ~addr ~len:(span * 64)));
               inclusive ()
               && List.length (Hierarchy.dirty_lines h) <= Hierarchy.resident_lines h)
             ops
           &&
           (ignore (Hierarchy.flush_all h);
            Hierarchy.resident_lines h = 0 && Hierarchy.dirty_lines h = [])));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"dirty lines = stored lines minus written-back lines" ~count:100
         QCheck2.Gen.(list_size (int_range 0 120) (int_range 0 60))
         (fun lines ->
           let written = Hashtbl.create 16 in
           let h =
             tiny_hierarchy
               ~on_writeback:(fun ~line ~explicit:_ -> Hashtbl.replace written line ())
               ()
           in
           List.iter (fun l -> ignore (Hierarchy.store h ~addr:(l * 64))) lines;
           let dirty = Hierarchy.dirty_lines h in
           let stored = List.sort_uniq compare lines in
           (* Every stored line is either still dirty in cache or was
              written back (possibly both if re-stored after eviction). *)
           List.for_all
             (fun l -> List.mem l dirty || Hashtbl.mem written l)
             stored
           && List.for_all (fun l -> List.mem l stored) dirty));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"dirty_bytes: O(dirty) accounting counts the distinct dirty lines"
         ~count:100
         QCheck2.Gen.(
           list_size (int_range 0 150) (pair (int_range 0 80) (int_range 0 3)))
         (fun ops ->
           let h = tiny_hierarchy () in
           List.iter
             (fun (line, kind) ->
               let addr = line * 64 in
               match kind with
               | 0 -> ignore (Hierarchy.load h ~addr)
               | 1 | 2 -> ignore (Hierarchy.store h ~addr)
               | _ -> ignore (Hierarchy.clflush h ~addr))
             ops;
           (* The incremental per-level counters deduplicated across
              levels must agree with the distinct lines iter_dirty
              yields; dirty state is always included in the resident
              set. *)
           let seen = Hashtbl.create 16 in
           Hierarchy.iter_dirty h (fun line -> Hashtbl.replace seen line ());
           let n = Hierarchy.dirty_line_count h in
           Hierarchy.dirty_bytes h = 64 * n
           && n = Hashtbl.length seen
           && n = List.length (Hierarchy.dirty_lines h)
           && n <= Hierarchy.resident_lines h));
  ]

(* --- Cpu ------------------------------------------------------------------ *)

let cpu_tests =
  [
    Alcotest.test_case "context serialisation round-trips" `Quick (fun () ->
        let rng = Rng.create ~seed:1 in
        let ctx = Cpu.Context.random rng in
        let buf = Bytes.create Cpu.Context.size_bytes in
        Cpu.Context.write ctx buf ~off:0;
        Alcotest.(check bool) "equal" true
          (Cpu.Context.equal ctx (Cpu.Context.read buf ~off:0)));
    Alcotest.test_case "topology" `Quick (fun () ->
        let cpu = Cpu.create ~sockets:2 ~cores_per_socket:4 ~threads_per_core:2 in
        Alcotest.(check int) "16 threads" 16 (Cpu.core_count cpu);
        Alcotest.(check int) "control id" 0 (Cpu.Core.id (Cpu.control cpu));
        Alcotest.(check int) "socket of thread 8" 1
          (Cpu.Core.socket (Cpu.cores cpu).(8)));
    Alcotest.test_case "halt and resume" `Quick (fun () ->
        let cpu = Cpu.create ~sockets:1 ~cores_per_socket:2 ~threads_per_core:1 in
        Alcotest.(check int) "all running" 2 (Cpu.running_count cpu);
        Cpu.halt_all cpu;
        Alcotest.(check bool) "halted" true (Cpu.all_halted cpu);
        Cpu.resume_all cpu;
        Alcotest.(check int) "running again" 2 (Cpu.running_count cpu));
    Alcotest.test_case "save/restore all contexts through memory" `Quick
      (fun () ->
        let rng = Rng.create ~seed:2 in
        let cpu = Cpu.create ~sockets:1 ~cores_per_socket:4 ~threads_per_core:1 in
        Array.iter (fun c -> Cpu.Core.scramble c rng) (Cpu.cores cpu);
        let saved = Array.map Cpu.Core.context (Cpu.cores cpu) in
        let buf = Bytes.create (Cpu.context_area_bytes cpu) in
        Cpu.save_contexts cpu buf ~off:0;
        Array.iter (fun c -> Cpu.Core.scramble c rng) (Cpu.cores cpu);
        Cpu.restore_contexts cpu buf ~off:0;
        Array.iteri
          (fun i c ->
            Alcotest.(check bool)
              (Printf.sprintf "core %d" i)
              true
              (Cpu.Context.equal saved.(i) (Cpu.Core.context c)))
          (Cpu.cores cpu));
  ]

(* --- Platform & Flush -------------------------------------------------------- *)

let platform_tests =
  [
    Alcotest.test_case "catalog lookup" `Quick (fun () ->
        Alcotest.(check bool) "c5528" true (Platform.by_name "c5528" <> None);
        Alcotest.(check bool) "by full name" true
          (Platform.by_name "AMD 4180" <> None);
        Alcotest.(check bool) "unknown" true (Platform.by_name "i386" = None));
    Alcotest.test_case "LLC totals" `Quick (fun () ->
        Alcotest.(check int) "c5528: 2 x 8 MiB" (Units.Size.mib 16)
          (Platform.llc_total Platform.intel_c5528);
        Alcotest.(check int) "d510: L2 as LLC" (Units.Size.mib 1)
          (Platform.llc_total Platform.intel_d510));
    Alcotest.test_case "hierarchies line up with the catalog" `Quick (fun () ->
        let p = Platform.intel_c5528 in
        let core = Platform.core_hierarchy p in
        Alcotest.(check int) "core levels" 3 (List.length core.Hierarchy.levels);
        let agg = Platform.aggregate_hierarchy p in
        let agg_l1 = (List.hd agg.Hierarchy.levels).Cache.size in
        Alcotest.(check int) "aggregate L1 = 8 cores x 32 KiB"
          (Units.Size.kib 256) agg_l1);
    Alcotest.test_case "cycles at the platform clock" `Quick (fun () ->
        let p = Platform.intel_c5528 in
        (* 2.13 GHz: 213 cycles = 100 ns. *)
        Alcotest.check check_time "100ns" (Time.ns 100.0) (Platform.cycles p 213.0));
  ]

let flush_tests =
  [
    Alcotest.test_case "wbinvd nearly flat in dirty bytes" `Quick (fun () ->
        let p = Platform.intel_c5528 in
        let t0 = Flush.wbinvd_time p ~dirty_bytes:0 in
        let t1 = Flush.wbinvd_time p ~dirty_bytes:(Flush.max_dirty_bytes p) in
        let ratio = Time.to_ns t1 /. Time.to_ns t0 in
        Alcotest.(check bool) "within 1.5x" true (ratio < 1.5 && ratio >= 1.0));
    Alcotest.test_case "clflush beats wbinvd on small regions" `Quick (fun () ->
        let p = Platform.intel_c5528 in
        Alcotest.(check bool) "small region" true
          (Flush.best_instruction p ~region_bytes:4096 ~dirty_bytes:4096 = `Clflush);
        let whole = Flush.max_dirty_bytes p in
        (* Worst case on the Intel testbed the paper measured clflush as
           slightly faster; the AMD part has it the other way. *)
        Alcotest.(check bool) "amd whole cache" true
          (Flush.best_instruction Platform.amd_4180
             ~region_bytes:(Flush.max_dirty_bytes Platform.amd_4180)
             ~dirty_bytes:(Flush.max_dirty_bytes Platform.amd_4180)
          = `Wbinvd);
        ignore whole);
    Alcotest.test_case "theoretical best is a lower bound" `Quick (fun () ->
        List.iter
          (fun p ->
            let d = Flush.max_dirty_bytes p in
            Alcotest.(check bool) "best <= clflush" true
              Time.(
                Flush.theoretical_best p ~dirty_bytes:d
                <= Flush.clflush_time p ~region_bytes:d ~dirty_bytes:d);
            Alcotest.(check bool) "best <= wbinvd" true
              Time.(
                Flush.theoretical_best p ~dirty_bytes:d
                <= Flush.wbinvd_time p ~dirty_bytes:d))
          Platform.all);
    Alcotest.test_case "state save under 5 ms on every platform" `Quick
      (fun () ->
        List.iter
          (fun p ->
            let t =
              Flush.state_save_time p ~dirty_bytes:(Flush.max_dirty_bytes p)
            in
            Alcotest.(check bool)
              (p.Platform.name ^ " under 5 ms")
              true
              Time.(t < Time.ms 5.0))
          Platform.all);
    Alcotest.test_case "analytic model matches the mechanistic hierarchy" `Quick
      (fun () ->
        (* Dirty a known number of lines in the real aggregate hierarchy
           of the smallest platform and compare flush_all's cost with
           the analytic wbinvd_time. *)
        let p = Platform.intel_d510 in
        let dirty_bytes = 64 * 1024 in
        let analytic = Flush.wbinvd_time p ~dirty_bytes in
        let mech =
          Wsp_experiments.Figure8.mechanistic_check p ~dirty_bytes
        in
        let mech = Time.sub mech (Flush.context_save_time p) in
        let delta = abs_float (Time.to_ns mech -. Time.to_ns analytic) in
        Alcotest.(check bool) "within 1%" true
          (delta /. Time.to_ns analytic < 0.01));
  ]

let wear_tests =
  [
    Alcotest.test_case "identity mapping before any gap move" `Quick (fun () ->
        let wl = Wear_level.create ~lines:8 () in
        for i = 0 to 7 do
          Alcotest.(check int) "identity" i (Wear_level.translate wl i)
        done;
        Alcotest.(check bool) "bijective" true (Wear_level.check wl = Ok ()));
    Alcotest.test_case "gap moves rotate the mapping, reads stay consistent"
      `Quick (fun () ->
        let wl = Wear_level.create ~gap_interval:1 ~lines:8 () in
        (* Every write moves the gap; after 9 moves a full cycle. *)
        for _ = 1 to 50 do
          Wear_level.record_write wl 3
        done;
        Alcotest.(check int) "50 gap moves" 50 (Wear_level.gap_moves wl);
        Alcotest.(check bool) "still bijective" true (Wear_level.check wl = Ok ());
        (* All 8 logical lines still map to 8 distinct slots. *)
        let slots = List.init 8 (Wear_level.translate wl) in
        Alcotest.(check int) "distinct" 8
          (List.length (List.sort_uniq compare slots)));
    Alcotest.test_case "hot line wear spreads across slots" `Quick (fun () ->
        let no_level = Wear_level.create ~gap_interval:max_int ~lines:64 () in
        let level = Wear_level.create ~gap_interval:4 ~lines:64 () in
        for _ = 1 to 20_000 do
          Wear_level.record_write no_level 7;
          Wear_level.record_write level 7
        done;
        Alcotest.(check bool) "unlevelled ratio = slot count" true
          (Wear_level.wear_ratio no_level > 60.0);
        (* Residency discretisation leaves some slots with two stays of
           the hot line per sweep, so the floor is ~2x, not 1x. *)
        Alcotest.(check bool) "levelled ratio small" true
          (Wear_level.wear_ratio level < 2.0));
    Alcotest.test_case "gap-move copies are charged as wear" `Quick (fun () ->
        let wl = Wear_level.create ~gap_interval:2 ~lines:4 () in
        for _ = 1 to 10 do
          Wear_level.record_write wl 0
        done;
        let total_recorded = Array.fold_left ( + ) 0 (Wear_level.wear wl) in
        (* 10 data writes + one copy per gap move that displaced data. *)
        Alcotest.(check bool) "includes copies" true (total_recorded >= 10);
        Alcotest.(check int) "moves" 5 (Wear_level.gap_moves wl));
    Alcotest.test_case "uniform traffic is near-ideal even unlevelled" `Quick
      (fun () ->
        let wl = Wear_level.create ~gap_interval:max_int ~lines:32 () in
        for i = 0 to 31_999 do
          Wear_level.record_write wl (i mod 32)
        done;
        (* mean counts the empty gap slot, so the ratio floor is
           slots/lines. *)
        Alcotest.(check bool) "near 1" true (Wear_level.wear_ratio wl < 1.2));
  ]

(* --- Differential cache model ---------------------------------------- *)

(* [Cache] against a naive model written here: each set is a list of
   (line, dirty) pairs, most recently used first, and the dirty lines
   form one list in dirtying order. The model shares nothing with the
   cache's per-set arrays, index arithmetic or intrusive links, so a
   layout bug shows up as a different answer, victim, count or
   write-back order. *)

type model = {
  m_sets : (int * bool) list array;  (* MRU first. *)
  m_ways : int;
  mutable m_dirty : int list;  (* Oldest first. *)
}

let model_create ~sets ~ways =
  { m_sets = Array.make sets []; m_ways = ways; m_dirty = [] }

let model_set m line = line mod Array.length m.m_sets
let model_find m line = List.assoc_opt line m.m_sets.(model_set m line)

let model_drop_dirty m line =
  m.m_dirty <- List.filter (fun l -> l <> line) m.m_dirty

let model_mark_dirty m line =
  if not (List.mem line m.m_dirty) then m.m_dirty <- m.m_dirty @ [ line ]

let model_update m line f =
  let s = model_set m line in
  m.m_sets.(s) <- f m.m_sets.(s)

let model_probe m line =
  match model_find m line with
  | None -> false
  | Some d ->
      model_update m line (fun ways ->
          (line, d) :: List.remove_assoc line ways);
      true

let model_insert m line dirty =
  match model_find m line with
  | Some d ->
      if dirty then model_mark_dirty m line;
      model_update m line (fun ways ->
          (line, d || dirty) :: List.remove_assoc line ways);
      None
  | None ->
      let ways = m.m_sets.(model_set m line) in
      let victim, kept =
        if List.length ways < m.m_ways then (None, ways)
        else
          let lru = List.nth ways (m.m_ways - 1) in
          (Some lru, List.filteri (fun i _ -> i < m.m_ways - 1) ways)
      in
      Option.iter (fun (l, _) -> model_drop_dirty m l) victim;
      if dirty then model_mark_dirty m line;
      model_update m line (fun _ -> (line, dirty) :: kept);
      victim

let model_set_dirty m line =
  if model_find m line <> None then begin
    model_mark_dirty m line;
    model_update m line (List.map (fun (l, d) -> (l, d || l = line)))
  end

let model_invalidate m line =
  match model_find m line with
  | None -> false
  | Some d ->
      model_drop_dirty m line;
      model_update m line (List.remove_assoc line);
      d

let model_clear m =
  Array.fill m.m_sets 0 (Array.length m.m_sets) [];
  m.m_dirty <- []

type cache_op =
  | C_probe of int
  | C_contains of int
  | C_insert of int * bool
  | C_insert_absent of int * bool
  | C_set_dirty of int
  | C_is_dirty of int
  | C_invalidate of int
  | C_clear

(* One step on both sides; [insert_absent] is only legal on an absent
   line, so on a present one both sides take a plain [insert]. *)
let step_both c m op =
  let victim v =
    if v = Cache.no_victim then None
    else Some (Cache.victim_line v, Cache.victim_dirty v)
  in
  match op with
  | C_probe l -> (`Bool (Cache.probe c ~line:l), `Bool (model_probe m l))
  | C_contains l ->
      (`Bool (Cache.contains c ~line:l), `Bool (model_find m l <> None))
  | C_insert (l, d) ->
      (`Victim (victim (Cache.insert c ~line:l ~dirty:d)),
       `Victim (model_insert m l d))
  | C_insert_absent (l, d) ->
      let ins =
        if model_find m l = None then Cache.insert_absent else Cache.insert
      in
      (`Victim (victim (ins c ~line:l ~dirty:d)), `Victim (model_insert m l d))
  | C_set_dirty l ->
      Cache.set_dirty c ~line:l;
      model_set_dirty m l;
      (`Unit, `Unit)
  | C_is_dirty l ->
      ( `Bool (Cache.is_dirty c ~line:l),
        `Bool (model_find m l = Some true) )
  | C_invalidate l ->
      (`Bool (Cache.invalidate c ~line:l), `Bool (model_invalidate m l))
  | C_clear ->
      Cache.clear c;
      model_clear m;
      (`Unit, `Unit)

let cache_obs c =
  let order = ref [] in
  Cache.iter_dirty c (fun l -> order := l :: !order);
  ( Cache.resident_count c,
    Cache.dirty_count c,
    Cache.dirty_lines c,
    List.rev !order )

let model_obs m =
  let resident = Array.fold_left (fun n ways -> n + List.length ways) 0 m.m_sets in
  (resident, List.length m.m_dirty, List.rev m.m_dirty, m.m_dirty)

(* An op awaiting its line. *)
let gen_cache_kind =
  QCheck2.Gen.(
    frequency
      [
        (3, return (fun l -> C_probe l));
        (1, return (fun l -> C_contains l));
        (4, map (fun d l -> C_insert (l, d)) bool);
        (3, map (fun d l -> C_insert_absent (l, d)) bool);
        (2, return (fun l -> C_set_dirty l));
        (1, return (fun l -> C_is_dirty l));
        (2, return (fun l -> C_invalidate l));
        (1, return (fun _ -> C_clear));
      ])

(* About half the ops reuse the previous op's line, so runs such as
   probe, invalidate, probe or insert_absent, set_dirty hit one
   directory entry in turn, each step checked against the model. *)
let gen_cache_ops size line =
  QCheck2.Gen.(
    map
      (fun steps ->
        List.fold_left
          (fun (prev, acc) (kind, l, reuse) ->
            let l = if reuse && prev >= 0 then prev else l in
            (l, kind l :: acc))
          (-1, []) steps
        |> snd |> List.rev)
      (list_size size (triple gen_cache_kind line bool)))

(* Lines [k * sets + set] for [k < 8] over a few chosen sets: twice as
   many lines as ways, so sets fill and evict. A prefix touches only the
   [low] sets, then a [clear], then a suffix touches [low] and [high]:
   the [high] sets are first touched after a clear, some of them in a
   page of sets that no insert has allocated yet. A suffix drawing [k]
   up to [k_max] reaches line-directory pages (512 lines each) that
   the prefix never touched. *)
let gen_diff_stream ~sets ~low ~high ~k_max =
  QCheck2.Gen.(
    let line k_max of_sets =
      map2 (fun k s -> (k * sets) + s) (int_range 0 k_max) (oneofl of_sets)
    in
    map2
      (fun prefix suffix -> prefix @ (C_clear :: suffix))
      (gen_cache_ops (int_range 0 60) (line 7 low))
      (gen_cache_ops (int_range 0 150) (line k_max (low @ high))))

let differential_test ?(k_max = 7) ~sets ~ways ~low ~high () =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:
         (Printf.sprintf
            "cache agrees with a naive LRU model at every step (%d sets%s)"
            sets
            (if k_max = 7 then ""
             else Printf.sprintf ", lines below %d" ((k_max + 1) * sets)))
       ~count:300
       (gen_diff_stream ~sets ~low ~high ~k_max)
       (fun ops ->
         let c =
           small_cache ~size:(Units.Size.bytes (sets * ways * 64)) ~assoc:ways ()
         in
         let m = model_create ~sets ~ways in
         List.for_all
           (fun op ->
             let got, want = step_both c m op in
             got = want && cache_obs c = model_obs m)
           ops))

(* Four ways make a page of 32 sets. 64 sets: two pages, the set index
   a mask. 96 sets: three pages, the set index a division. The third
   run's prefix stays in the first line-directory page (lines below
   512) and its suffix spans nine, eight of them first touched after
   the [clear]. *)
let differential_tests =
  [
    differential_test ~sets:64 ~ways:4 ~low:[ 0; 1; 31 ] ~high:[ 32; 33; 63 ] ();
    differential_test ~sets:96 ~ways:4 ~low:[ 0; 1; 47 ] ~high:[ 48; 64; 95 ] ();
    differential_test ~k_max:64 ~sets:64 ~ways:4 ~low:[ 0; 1; 31 ]
      ~high:[ 32; 33; 63 ] ();
  ]

(* --- Allocation guards -------------------------------------------------- *)

let total_sets (cfg : Hierarchy.config) =
  List.fold_left
    (fun n (l : Cache.config) ->
      n + (Units.Size.to_bytes l.size / l.line_size / l.associativity))
    0 cfg.levels

let allocation_tests =
  [
    Alcotest.test_case "building the C5528 hierarchy allocates O(sets)" `Quick
      (fun () ->
        let cfg = Platform.core_hierarchy Platform.intel_c5528 in
        let metrics = Wsp_obs.Metrics.create () in
        (* Empty the minor heap first: words allocated there earlier are
           otherwise credited at the next minor collection, which a
           large allocation inside [create] can trigger. *)
        Gc.minor ();
        let before = Gc.allocated_bytes () in
        let h = Hierarchy.create ~metrics cfg in
        let words =
          int_of_float (Gc.allocated_bytes () -. before) / (Sys.word_size / 8)
        in
        let sets = total_sets cfg and slots = Hierarchy.total_line_slots h in
        (* At most a pointer per set (one per page of sets, in fact),
           plus a few KiB of fixed cost: the shared fresh pages, the
           scratch table, metric handles. Eager tag arrays took five
           words per slot. *)
        Alcotest.(check bool)
          (Printf.sprintf "%d words for %d sets (%d slots)" words sets slots)
          true
          (words <= (2 * sets) + 4096 && words < slots / 8));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"a hierarchy after flush_all behaves like a fresh one" ~count:100
         QCheck2.Gen.(
           pair
             (list_size (int_range 0 80) (pair (int_range 0 3) (int_range 0 63)))
             (list_size (int_range 0 120) (pair (int_range 0 3) (int_range 0 63))))
         (fun (prefix, stream) ->
           (* Every access returns its latency; write-backs reach the
              callback in order. The flushed hierarchy's stale ways and
              ages must not show through any of it. *)
           let run h wbs ops =
             wbs := [];
             let lat =
               List.map
                 (fun (kind, l) ->
                   let addr = l * 64 in
                   match kind with
                   | 0 -> Hierarchy.load h ~addr
                   | 1 -> Hierarchy.store h ~addr
                   | 2 -> Hierarchy.clflush h ~addr
                   | _ -> Hierarchy.store_nt h ~addr)
                 ops
             in
             (lat, List.rev !wbs, Hierarchy.dirty_lines h,
              Hierarchy.resident_lines h)
           in
           let mk () =
             let wbs = ref [] in
             let h =
               tiny_hierarchy
                 ~on_writeback:(fun ~line ~explicit ->
                   wbs := (line, explicit) :: !wbs)
                 ()
             in
             (h, wbs)
           in
           let fresh, fresh_wbs = mk () and used, used_wbs = mk () in
           ignore (run used used_wbs prefix);
           ignore (Hierarchy.flush_all used);
           run fresh fresh_wbs stream = run used used_wbs stream));
  ]

let suite =
  [
    ("machine.cache", cache_tests @ cache_props @ differential_tests);
    ("machine.wear_level", wear_tests);
    ( "machine.hierarchy",
      hierarchy_tests @ hierarchy_props @ allocation_tests );
    ("machine.cpu", cpu_tests);
    ("machine.platform", platform_tests);
    ("machine.flush", flush_tests);
  ]
