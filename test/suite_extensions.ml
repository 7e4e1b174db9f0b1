(* Tests for the extension subsystems: block-based persistence, SCM
   profiles, hibernation, process persistence, back-end checkpoints, and
   the crash-safety sweep. *)

open Wsp_sim
open Wsp_machine
open Wsp_nvheap
open Wsp_store
open Wsp_core

let check_time = Alcotest.testable Time.pp Time.equal

(* --- Blockstore -------------------------------------------------------- *)

let mk_device ?(len = Units.Size.kib 64) () =
  let nvram = Nvram.create ~size:(Units.Size.kib 128) () in
  (nvram, Blockstore.create nvram ~base:0 ~len ())

let blockstore_tests =
  [
    Alcotest.test_case "block write/read round-trips" `Quick (fun () ->
        let _, dev = mk_device () in
        let block = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
        Blockstore.write_block dev ~idx:3 block;
        Alcotest.(check bytes) "round trip" block (Blockstore.read_block dev ~idx:3));
    Alcotest.test_case "block writes are durable without any flush" `Quick
      (fun () ->
        let nvram, dev = mk_device () in
        let block = Bytes.make 4096 'Q' in
        Blockstore.write_block dev ~idx:0 block;
        Nvram.crash nvram;
        let dev' = Blockstore.attach nvram ~base:0 ~len:(Units.Size.kib 64) () in
        Alcotest.(check bytes) "survived" block (Blockstore.read_block dev' ~idx:0));
    Alcotest.test_case "geometry and bounds" `Quick (fun () ->
        let _, dev = mk_device () in
        Alcotest.(check int) "16 blocks" 16 (Blockstore.block_count dev);
        Alcotest.(check bool) "oob raises" true
          (try
             ignore (Blockstore.read_block dev ~idx:16);
             false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "short buffer raises" true
          (try
             Blockstore.write_block dev ~idx:0 (Bytes.create 100);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "traffic accounting" `Quick (fun () ->
        let _, dev = mk_device () in
        Blockstore.write_block dev ~idx:0 (Bytes.create 4096);
        Blockstore.write_block dev ~idx:1 (Bytes.create 4096);
        Alcotest.(check int) "blocks" 2 (Blockstore.blocks_written dev);
        Alcotest.(check int) "bytes" 8192 (Blockstore.bytes_written dev));
    Alcotest.test_case "block writes cost syscall + transfer time" `Quick
      (fun () ->
        let nvram, dev = mk_device () in
        Nvram.reset_clock nvram;
        Blockstore.write_block dev ~idx:0 (Bytes.create 4096);
        (* At least the 300 ns syscall plus 512 NT stores. *)
        Alcotest.(check bool) "over 1 us" true
          Time.(Nvram.clock nvram > Time.us 1.0));
  ]

(* --- Block_kv ----------------------------------------------------------- *)

let mk_block_kv () =
  let nvram = Nvram.create ~size:(Units.Size.mib 4) () in
  let heap =
    Pheap.create_in ~nvram ~base:0 ~len:(Units.Size.mib 2)
      ~log_size:(Units.Size.kib 64) ()
  in
  let device =
    Blockstore.create nvram ~base:(Units.Size.mib 2) ~len:(Units.Size.mib 2) ()
  in
  (nvram, heap, device, Block_kv.create ~buckets:256 ~heap ~device ())

let block_kv_tests =
  [
    Alcotest.test_case "insert/find/delete" `Quick (fun () ->
        let _, _, _, kv = mk_block_kv () in
        Block_kv.insert kv ~key:1L ~value:10L;
        Block_kv.insert kv ~key:2L ~value:20L;
        Alcotest.(check (option int64)) "find" (Some 10L) (Block_kv.find kv 1L);
        Alcotest.(check bool) "delete" true (Block_kv.delete kv 1L);
        Alcotest.(check (option int64)) "gone" None (Block_kv.find kv 1L);
        Alcotest.(check int) "count" 1 (Block_kv.count kv);
        Alcotest.(check int) "journal records all ops" 3 (Block_kv.journal_records kv));
    Alcotest.test_case "journal replay rebuilds the table after a crash" `Quick
      (fun () ->
        let nvram, _, device, kv = mk_block_kv () in
        for i = 1 to 500 do
          Block_kv.insert kv ~key:(Int64.of_int i) ~value:(Int64.of_int (i * 2))
        done;
        for i = 1 to 100 do
          ignore (Block_kv.delete kv (Int64.of_int i))
        done;
        (* The in-memory half dies; the journal blocks are durable. *)
        Nvram.crash nvram;
        let heap' =
          Pheap.create_in ~nvram ~base:0 ~len:(Units.Size.mib 2)
            ~log_size:(Units.Size.kib 64) ()
        in
        let kv' = Block_kv.recover ~buckets:256 ~heap:heap' ~device () in
        Alcotest.(check int) "count" 400 (Block_kv.count kv');
        Alcotest.(check (option int64)) "deleted stays gone" None
          (Block_kv.find kv' 50L);
        Alcotest.(check (option int64)) "survivor" (Some 400L)
          (Block_kv.find kv' 200L);
        (* Appending after recovery lands after the replayed records. *)
        Block_kv.insert kv' ~key:9999L ~value:1L;
        Alcotest.(check int) "record count continues" 601
          (Block_kv.journal_records kv'));
    Alcotest.test_case "footprint counts both copies" `Quick (fun () ->
        let _, _, _, kv = mk_block_kv () in
        for i = 1 to 100 do
          Block_kv.insert kv ~key:(Int64.of_int i) ~value:0L
        done;
        Alcotest.(check bool) "journal bytes > 0" true (Block_kv.block_bytes kv > 0);
        Alcotest.(check bool) "memory bytes > 0" true (Block_kv.memory_bytes kv > 0));
  ]

(* --- Scm ----------------------------------------------------------------- *)

let scm_tests =
  [
    Alcotest.test_case "dram profile is the identity" `Quick (fun () ->
        let base = Platform.core_hierarchy Platform.intel_c5528 in
        let applied = Scm.apply Scm.dram base in
        Alcotest.check check_time "latency" base.Hierarchy.memory_latency
          applied.Hierarchy.memory_latency;
        Alcotest.(check (float 1e-6)) "write bw"
          base.Hierarchy.memory_write_bandwidth
          applied.Hierarchy.memory_write_bandwidth);
    Alcotest.test_case "pcm slows the write path, not the caches" `Quick
      (fun () ->
        let base = Platform.core_hierarchy Platform.intel_c5528 in
        let pcm = Scm.apply Scm.pcm_optimistic base in
        Alcotest.check check_time "read latency x2"
          (Time.scale base.Hierarchy.memory_latency 2.0)
          pcm.Hierarchy.memory_latency;
        Alcotest.(check bool) "write bw /10" true
          (abs_float
             (pcm.Hierarchy.memory_write_bandwidth
             -. (0.1 *. base.Hierarchy.memory_write_bandwidth))
          < 1.0);
        Alcotest.(check bool) "cache levels untouched" true
          (pcm.Hierarchy.levels = base.Hierarchy.levels));
    Alcotest.test_case "flush energy scales with dirty bytes and profile"
      `Quick (fun () ->
        let p = Platform.intel_c5528 in
        let e profile bytes =
          Units.Energy.to_joules (Scm.flush_energy profile ~platform:p ~dirty_bytes:bytes)
        in
        Alcotest.(check bool) "2x bytes, 2x energy" true
          (abs_float ((2.0 *. e Scm.dram 1000) -. e Scm.dram 2000) < 1e-12);
        Alcotest.(check bool) "pcm costs more" true
          (e Scm.pcm_optimistic 1000 > e Scm.dram 1000));
    Alcotest.test_case "profile lookup" `Quick (fun () ->
        Alcotest.(check bool) "dram" true (Scm.by_name "DRAM" <> None);
        Alcotest.(check bool) "unknown" true (Scm.by_name "core memory" = None));
  ]

(* --- Hibernate --------------------------------------------------------------- *)

let hibernate_tests =
  [
    Alcotest.test_case "hibernation scales with memory, NVDIMM save does not"
      `Quick (fun () ->
        let p = Platform.intel_c5528 in
        let c size modules =
          Hibernate.compare
            (Hibernate.default_params ~memory:size p)
            ~nvdimm_modules:modules
        in
        let small = c (Units.Size.gib 4) 2 in
        let large = c (Units.Size.gib 64) 16 in
        Alcotest.(check bool) "hibernate grows" true
          Time.(large.Hibernate.hibernate_time > small.Hibernate.hibernate_time);
        Alcotest.check check_time "nvdimm constant"
          small.Hibernate.nvdimm_save_time large.Hibernate.nvdimm_save_time);
    Alcotest.test_case "system power demand differs by orders of magnitude"
      `Quick (fun () ->
        let p = Platform.intel_c5528 in
        let c =
          Hibernate.compare
            (Hibernate.default_params ~memory:(Units.Size.gib 16) p)
            ~nvdimm_modules:4
        in
        Alcotest.(check bool) "hibernate needs seconds of power" true
          Time.(c.Hibernate.hibernate_powered > Time.s 10.0);
        Alcotest.(check bool) "wsp needs milliseconds" true
          Time.(c.Hibernate.nvdimm_powered < Time.ms 10.0));
  ]

(* --- Process persistence --------------------------------------------------- *)

let mk_process ?(encapsulation = Process.Library_os) () =
  let heap = Pheap.create ~size:(Units.Size.mib 8) () in
  let rng = Rng.create ~seed:9 in
  (heap, Process.create ~encapsulation ~heap ~threads:4 ~rng ())

let process_tests =
  [
    Alcotest.test_case "library-OS process survives a fresh kernel" `Quick
      (fun () ->
        let heap, proc = mk_process () in
        ignore (Process.open_handle proc Process.File);
        ignore (Process.open_handle proc Process.Socket);
        Process.block_thread proc ~thread:1 ~on:Process.Socket;
        Process.checkpoint proc;
        (* The WSP save/restore cycle in miniature. *)
        Pheap.wsp_flush heap;
        Pheap.crash heap;
        Pheap.recover heap;
        let r = Process.restore_on_fresh_os proc in
        Alcotest.(check bool) "restored" true (r.Process.outcome = `Restored);
        Alcotest.(check int) "one syscall aborted" 1 r.Process.syscalls_aborted;
        Alcotest.(check int) "handles recreated" 2 r.Process.handles_recreated;
        Alcotest.(check int) "none dangling" 0 r.Process.handles_dangling;
        Alcotest.(check bool) "contexts intact" true r.Process.contexts_intact;
        List.iter
          (fun s ->
            Alcotest.(check bool) "threads runnable" true (s = Process.Running_user))
          (Process.thread_states proc));
    Alcotest.test_case "direct-kernel process with handles is unrestorable"
      `Quick (fun () ->
        let heap, proc = mk_process ~encapsulation:Process.Direct_kernel () in
        ignore (Process.open_handle proc Process.Device_handle);
        Process.checkpoint proc;
        Pheap.wsp_flush heap;
        Pheap.crash heap;
        Pheap.recover heap;
        let r = Process.restore_on_fresh_os proc in
        (match r.Process.outcome with
        | `Unrestorable _ -> ()
        | `Restored -> Alcotest.fail "should not restore");
        Alcotest.(check int) "dangling" 1 r.Process.handles_dangling);
    Alcotest.test_case "direct-kernel process without handles restores" `Quick
      (fun () ->
        let _, proc = mk_process ~encapsulation:Process.Direct_kernel () in
        Process.checkpoint proc;
        let r = Process.restore_on_fresh_os proc in
        Alcotest.(check bool) "restored" true (r.Process.outcome = `Restored));
    Alcotest.test_case "restore without a checkpoint is rejected" `Quick
      (fun () ->
        let _, proc = mk_process () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Process.restore_on_fresh_os proc);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "handle churn respects the table limit" `Quick (fun () ->
        let _, proc = mk_process () in
        for _ = 1 to 64 do
          ignore (Process.open_handle proc Process.File)
        done;
        Alcotest.(check int) "64 handles" 64 (Process.handle_count proc);
        Alcotest.(check bool) "65th raises" true
          (try
             ignore (Process.open_handle proc Process.File);
             false
           with Invalid_argument _ -> true));
  ]

(* --- Checkpoint -------------------------------------------------------------- *)

let checkpoint_tests =
  [
    Alcotest.test_case "checkpoint/restore round-trips application state"
      `Quick (fun () ->
        let heap = Pheap.create ~size:(Units.Size.mib 8) () in
        let table = Hash_table.create ~buckets:256 heap in
        for i = 1 to 100 do
          Hash_table.insert table ~key:(Int64.of_int i) ~value:(Int64.of_int i)
        done;
        let backend = Checkpoint.create_backend () in
        ignore (Checkpoint.checkpoint backend ~name:"a" heap);
        (* Keep mutating, then lose everything (no WSP save). *)
        for i = 101 to 200 do
          Hash_table.insert table ~key:(Int64.of_int i) ~value:0L
        done;
        Pheap.crash heap;
        ignore (Checkpoint.restore backend ~name:"a" heap);
        Pheap.recover heap;
        let table' = Hash_table.attach heap in
        Alcotest.(check int) "checkpointed state" 100 (Hash_table.count table');
        Alcotest.(check (option int64)) "value" (Some 42L)
          (Hash_table.find table' 42L));
    Alcotest.test_case "restore survives a further crash (it is flushed)"
      `Quick (fun () ->
        let heap = Pheap.create ~size:(Units.Size.mib 8) () in
        let table = Hash_table.create ~buckets:64 heap in
        Hash_table.insert table ~key:5L ~value:6L;
        let backend = Checkpoint.create_backend () in
        ignore (Checkpoint.checkpoint backend ~name:"a" heap);
        Pheap.crash heap;
        ignore (Checkpoint.restore backend ~name:"a" heap);
        Pheap.crash heap;  (* crash again immediately *)
        Pheap.recover heap;
        let table' = Hash_table.attach heap in
        Alcotest.(check (option int64)) "still there" (Some 6L)
          (Hash_table.find table' 5L));
    Alcotest.test_case "latest tracks the newest name; costs scale with size"
      `Quick (fun () ->
        let heap = Pheap.create ~size:(Units.Size.mib 8) () in
        let backend =
          Checkpoint.create_backend ~bandwidth:(Units.Bandwidth.mib_per_s 100.0) ()
        in
        Alcotest.(check (option string)) "empty" None (Checkpoint.latest backend);
        let cost = Checkpoint.checkpoint backend ~name:"one" heap in
        ignore (Checkpoint.checkpoint backend ~name:"two" heap);
        Alcotest.(check (option string)) "latest" (Some "two")
          (Checkpoint.latest backend);
        (* 8 MiB at 100 MiB/s = 80 ms. *)
        Alcotest.(check bool) "cost" true
          (abs_float (Time.to_ms cost -. 80.0) < 1.0);
        Alcotest.(check int) "two snapshots stored" 2
          (List.length (Checkpoint.stored_names backend)));
    Alcotest.test_case "unknown snapshot raises Not_found" `Quick (fun () ->
        let heap = Pheap.create ~size:(Units.Size.mib 8) () in
        let backend = Checkpoint.create_backend () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Checkpoint.restore backend ~name:"ghost" heap);
             false
           with Not_found -> true));
  ]

(* --- Crash-safety sweep ------------------------------------------------------ *)

(* For any residual-window length, a failure cycle must end in either a
   full recovery with intact data or a *detected* loss — never silent
   corruption. Sweeping the window across the save path's duration
   exercises power loss at every protocol step. *)
let crash_safety_tests =
  [
    Alcotest.test_case "no silent corruption at any window length" `Slow
      (fun () ->
        let windows_ms = [ 0.05; 0.1; 0.3; 0.5; 1.0; 1.5; 2.0; 2.2; 2.4; 2.6; 3.0; 5.0; 20.0 ] in
        List.iter
          (fun window_ms ->
            let psu =
              {
                Wsp_power.Psu.name = Printf.sprintf "sweep-%.2fms" window_ms;
                rated = Units.Power.watts 500.0;
                residual_energy = Units.Energy.joules 1000.0;
                max_hold = Time.ms window_ms;
                collapse_tau = Time.ms 3.0;
                run_jitter = 0.0;
              }
            in
            let sys = System.create ~psu ~seed:5 () in
            let heap = System.heap sys in
            let words = 128 in
            let addr = Pheap.alloc heap (8 * words) in
            for i = 0 to words - 1 do
              Pheap.write_u64 heap ~addr:(addr + (8 * i)) (Int64.of_int (i + 1))
            done;
            Pheap.set_root heap addr;
            System.inject_power_failure sys;
            match System.power_on_and_restore sys with
            | System.Recovered _ ->
                (* Claimed recovery: the data must be bit-for-bit right. *)
                let heap' = System.attach_heap sys in
                Alcotest.(check int)
                  (Printf.sprintf "root at %.2fms" window_ms)
                  addr (Pheap.root heap');
                for i = 0 to words - 1 do
                  Alcotest.(check int64) "word" (Int64.of_int (i + 1))
                    (Pheap.read_u64 heap' ~addr:(addr + (8 * i)))
                done
            | System.Invalid_marker | System.No_image ->
                (* Detected loss: acceptable — the back end takes over. *)
                ())
          windows_ms);
  ]

let suite =
  [
    ("ext.blockstore", blockstore_tests);
    ("ext.block_kv", block_kv_tests);
    ("ext.scm", scm_tests);
    ("ext.hibernate", hibernate_tests);
    ("ext.process", process_tests);
    ("ext.checkpoint", checkpoint_tests);
    ("ext.crash_safety", crash_safety_tests);
  ]
