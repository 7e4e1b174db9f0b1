(* Tests for wsp_core: devices, ACPI, and the end-to-end WSP system. *)

open Wsp_sim
open Wsp_machine
open Wsp_nvheap
open Wsp_core
module Psu = Wsp_power.Psu
module Nvdimm = Wsp_nvdimm.Nvdimm

let check_time = Alcotest.testable Time.pp Time.equal

(* --- Device ------------------------------------------------------------- *)

let disk_spec =
  {
    Device.name = "disk";
    kind = Device.Disk;
    d3_latency = Time.ms 100.0;
    io_drain = Time.ms 5.0;
    reinit_latency = Time.ms 40.0;
    busy_outstanding = 8;
  }

let device_tests =
  [
    Alcotest.test_case "suspend time grows with outstanding I/O" `Quick
      (fun () ->
        let d = Device.create disk_spec in
        Alcotest.check check_time "idle" (Time.ms 100.0) (Device.suspend_duration d);
        Device.set_busy d true;
        Alcotest.check check_time "busy" (Time.ms 140.0) (Device.suspend_duration d));
    Alcotest.test_case "io submit/complete bookkeeping" `Quick (fun () ->
        let d = Device.create disk_spec in
        Device.submit_io d;
        Device.submit_io d;
        Device.complete_io d;
        Alcotest.(check int) "one left" 1 (Device.outstanding d);
        Alcotest.(check bool) "underflow raises" true
          (try
             Device.complete_io d;
             Device.complete_io d;
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "power cycle loses in-flight I/O" `Quick (fun () ->
        let d = Device.create disk_spec in
        Device.set_busy d true;
        Device.power_cycle d;
        Alcotest.(check int) "lost" 8 (Device.ios_lost d);
        Alcotest.(check bool) "dead" true (Device.state d = Device.Dead));
    Alcotest.test_case "reinit fails or replays the lost I/O" `Quick (fun () ->
        let fail = Device.create disk_spec in
        Device.set_busy fail true;
        Device.power_cycle fail;
        Device.reinit fail ~replay:false;
        Alcotest.(check int) "failed" 8 (Device.ios_failed fail);
        Alcotest.(check bool) "powered" true (Device.state fail = Device.Powered);
        let replay = Device.create disk_spec in
        Device.set_busy replay true;
        Device.power_cycle replay;
        Device.reinit replay ~replay:true;
        Alcotest.(check int) "replayed" 8 (Device.ios_replayed replay));
    Alcotest.test_case "suites match their platforms" `Quick (fun () ->
        let amd = Device.suite_for Platform.amd_4180 in
        let intel = Device.suite_for Platform.intel_c5528 in
        Alcotest.(check int) "five devices" 5 (List.length amd);
        let total suite =
          List.fold_left
            (fun acc d -> Time.add acc (Device.suspend_duration d))
            Time.zero suite
        in
        Alcotest.(check bool) "intel suite slower" true
          Time.(total intel > total amd));
  ]

(* --- Acpi --------------------------------------------------------------- *)

let acpi_tests =
  [
    Alcotest.test_case "suspend_all sums durations and suspends" `Quick
      (fun () ->
        let devices = List.map Device.create [ disk_spec; disk_spec ] in
        let total = Acpi.suspend_all devices in
        Alcotest.check check_time "sum" (Time.ms 200.0) total;
        List.iter
          (fun d ->
            Alcotest.(check bool) "suspended" true (Device.state d = Device.Suspended))
          devices);
    Alcotest.test_case "figure 9 envelope: save exceeds every window" `Quick
      (fun () ->
        List.iter
          (fun platform ->
            let devices = Device.suite_for platform in
            let save = Acpi.suspend_duration devices in
            Alcotest.(check bool) "over 5 s busy/idle" true
              Time.(save > Time.s 5.0))
          [ Platform.amd_4180; Platform.intel_c5528 ]);
    Alcotest.test_case "resume_all re-powers devices" `Quick (fun () ->
        let devices = List.map Device.create [ disk_spec ] in
        ignore (Acpi.suspend_all devices);
        ignore (Acpi.resume_all devices);
        List.iter
          (fun d ->
            Alcotest.(check bool) "powered" true (Device.state d = Device.Powered))
          devices);
  ]

(* --- System: the full protocol ------------------------------------------- *)

let populate sys words =
  let heap = System.heap sys in
  let addr = Pheap.alloc heap (8 * words) in
  for i = 0 to words - 1 do
    Pheap.write_u64 heap ~addr:(addr + (8 * i)) (Int64.of_int (i * 3))
  done;
  Pheap.set_root heap addr;
  addr

let verify sys addr words =
  let heap = System.attach_heap sys in
  Pheap.root heap = addr
  && Array.for_all
       (fun i ->
         Int64.equal (Pheap.read_u64 heap ~addr:(addr + (8 * i))) (Int64.of_int (i * 3)))
       (Array.init words (fun i -> i))

let system_tests =
  [
    Alcotest.test_case "failure becomes suspend/resume with data intact" `Quick
      (fun () ->
        let sys = System.create () in
        let addr = populate sys 256 in
        System.inject_power_failure sys;
        let r = System.report sys in
        Alcotest.(check bool) "host save complete" true r.System.host_save_complete;
        Alcotest.(check bool) "nvdimm saved" true r.System.nvdimm_ok;
        Alcotest.(check bool) "no emergency" false r.System.emergency_save;
        (match System.host_save_latency r with
        | Some t ->
            Alcotest.(check bool) "fits the window" true Time.(t < r.System.window)
        | None -> Alcotest.fail "no save latency");
        match System.power_on_and_restore sys with
        | System.Recovered _ ->
            Alcotest.(check bool) "data" true (verify sys addr 256)
        | (System.Invalid_marker | System.No_image) as o ->
            Alcotest.failf "outcome %s" (System.outcome_name o));
    Alcotest.test_case "save works on every platform/PSU pair in Figure 7"
      `Quick (fun () ->
        List.iter
          (fun (platform, psu) ->
            List.iter
              (fun busy ->
                let sys = System.create ~platform ~psu ~busy () in
                ignore (populate sys 64);
                System.inject_power_failure sys;
                let r = System.report sys in
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s/%b completes" platform.Platform.short_name
                     psu.Psu.name busy)
                  true r.System.host_save_complete)
              [ true; false ])
          [
            (Platform.amd_4180, Psu.atx_400);
            (Platform.amd_4180, Psu.atx_525);
            (Platform.intel_c5528, Psu.atx_750);
            (Platform.intel_c5528, Psu.atx_1050);
          ]);
    Alcotest.test_case "ACPI strawman blows the window and is detected" `Quick
      (fun () ->
        let sys = System.create ~strategy:System.Acpi_save ~busy:true () in
        ignore (populate sys 64);
        System.inject_power_failure sys;
        let r = System.report sys in
        Alcotest.(check bool) "did not complete" false r.System.host_save_complete;
        Alcotest.(check bool) "emergency save ran" true r.System.emergency_save;
        match System.power_on_and_restore sys with
        | System.Invalid_marker -> ()
        | (System.Recovered _ | System.No_image) as o ->
            Alcotest.failf "expected invalid-marker, got %s" (System.outcome_name o));
    Alcotest.test_case "marker is cleared after a successful resume" `Quick
      (fun () ->
        let sys = System.create () in
        ignore (populate sys 16);
        ignore (System.run_failure_cycle sys);
        (* A second, immediate crash without a new save must not pass
           marker validation using the stale image. *)
        Alcotest.(check int64) "marker cleared" 0L
          (Nvram.peek_u64 (System.nvram sys) ~addr:0));
    Alcotest.test_case "two consecutive failure cycles both recover" `Quick
      (fun () ->
        let sys = System.create () in
        let addr = populate sys 128 in
        (match System.run_failure_cycle sys with
        | System.Recovered _ -> ()
        | (System.Invalid_marker | System.No_image) as o ->
            Alcotest.failf "first cycle: %s" (System.outcome_name o));
        (* Mutate state, fail again. *)
        let heap = System.attach_heap sys in
        Pheap.write_u64 heap ~addr 999L;
        (match System.run_failure_cycle sys with
        | System.Recovered _ -> ()
        | (System.Invalid_marker | System.No_image) as o ->
            Alcotest.failf "second cycle: %s" (System.outcome_name o));
        let heap' = System.attach_heap sys in
        Alcotest.(check int64) "second-epoch write survived" 999L
          (Pheap.read_u64 heap' ~addr));
    Alcotest.test_case "a second failure during restore is survivable" `Quick
      (fun () ->
        let sys = System.create () in
        let addr = populate sys 128 in
        System.inject_power_failure sys;
        (* Power comes back... and dies again 5 ms into the restore,
           well before the NVDIMM restore (tens of ms) finishes. *)
        Engine.schedule (System.engine sys) ~after:(Time.ms 5.0) (fun _ ->
            Psu.fail_input (System.psu sys) ());
        (match System.power_on_and_restore sys with
        | System.Recovered _ -> Alcotest.fail "restore should have been cut short"
        | System.No_image | System.Invalid_marker -> ());
        (* The flash image is untouched: the next boot retries and wins. *)
        match System.power_on_and_restore sys with
        | System.Recovered _ ->
            Alcotest.(check bool) "data intact" true (verify sys addr 128)
        | (System.Invalid_marker | System.No_image) as o ->
            Alcotest.failf "retry failed: %s" (System.outcome_name o));
    Alcotest.test_case "device restart strategies affect resume latency" `Quick
      (fun () ->
        let resume strategy =
          let sys = System.create ~strategy ~busy:true () in
          ignore (populate sys 16);
          match System.run_failure_cycle sys with
          | System.Recovered { resume_latency; ios_failed; ios_replayed } ->
              (resume_latency, ios_failed, ios_replayed)
          | (System.Invalid_marker | System.No_image) as o ->
              Alcotest.failf "outcome %s" (System.outcome_name o)
        in
        let _, failed_reinit, replayed_reinit = resume System.Restore_reinit in
        Alcotest.(check bool) "reinit fails I/Os" true (failed_reinit > 0);
        Alcotest.(check int) "reinit replays none" 0 replayed_reinit;
        let _, failed_replay, replayed_replay = resume System.Virtualized_replay in
        Alcotest.(check int) "replay fails none" 0 failed_replay;
        Alcotest.(check bool) "replay replays" true (replayed_replay > 0));
    Alcotest.test_case "report timeline is ordered" `Quick (fun () ->
        let sys = System.create () in
        ignore (populate sys 64);
        System.inject_power_failure sys;
        let r = System.report sys in
        let get = function Some t -> t | None -> Alcotest.fail "missing step" in
        let t1 = get r.System.interrupt_at in
        let t2 = get r.System.contexts_saved_at in
        let t3 = get r.System.flush_done_at in
        let t4 = get r.System.marker_written_at in
        let t5 = get r.System.nvdimm_initiated_at in
        Alcotest.(check bool) "ordered" true
          Time.(t1 < t2 && t2 < t3 && t3 < t4 && t4 < t5));
    Alcotest.test_case "flush persisted the dirty lines before the NVDIMM save"
      `Quick (fun () ->
        let sys = System.create () in
        ignore (populate sys 256);
        let dirty_before = Nvram.dirty_bytes (System.nvram sys) in
        Alcotest.(check bool) "had dirty data" true (dirty_before > 0);
        System.inject_power_failure sys;
        Alcotest.(check bool) "recorded" true
          ((System.report sys).System.dirty_bytes_flushed >= dirty_before));
    Alcotest.test_case "busy toggling changes PSU load and queue depths" `Quick
      (fun () ->
        let sys = System.create ~busy:false () in
        let idle_window = Psu.nominal_window (System.psu sys) in
        System.set_busy sys true;
        let busy_window = Psu.nominal_window (System.psu sys) in
        Alcotest.(check bool) "window shrinks or stays (cutoff)" true
          Time.(busy_window <= idle_window));
  ]

let system_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"any amount of dirty state recovers bit-for-bit" ~count:25
         QCheck2.Gen.(pair small_int (int_range 1 400))
         (fun (seed, words) ->
           let sys = System.create ~seed () in
           let heap = System.heap sys in
           let addr = Pheap.alloc heap (8 * words) in
           let rng = Rng.create ~seed in
           let expected = Array.init words (fun _ -> Rng.bits64 rng) in
           Array.iteri
             (fun i v -> Pheap.write_u64 heap ~addr:(addr + (8 * i)) v)
             expected;
           Pheap.set_root heap addr;
           match System.run_failure_cycle sys with
           | System.Recovered _ ->
               let heap' = System.attach_heap sys in
               Pheap.root heap' = addr
               && Array.for_all
                    (fun i ->
                      Int64.equal
                        (Pheap.read_u64 heap' ~addr:(addr + (8 * i)))
                        expected.(i))
                    (Array.init words (fun i -> i))
           | System.Invalid_marker | System.No_image -> false));
  ]

let suite =
  [
    ("core.device", device_tests);
    ("core.acpi", acpi_tests);
    ("core.system", system_tests @ system_props);
  ]
