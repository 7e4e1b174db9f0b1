(* Tests for wsp_power: PSU, ultracapacitors, oscilloscope, monitor. *)

open Wsp_sim
open Wsp_power

let check_time = Alcotest.testable Time.pp Time.equal

let mk_psu ?(spec = Psu.atx_1050) ?(load = 350.0) () =
  let engine = Engine.create () in
  (engine, Psu.create ~engine ~spec ~load)

(* --- Psu -------------------------------------------------------------- *)

let psu_tests =
  [
    Alcotest.test_case "window is energy-limited under heavy load" `Quick
      (fun () ->
        let _, psu = mk_psu ~spec:Psu.atx_400 ~load:150.0 () in
        (* 51.9 J / 150 W = 346 ms < 392 ms cutoff. *)
        Alcotest.check check_time "346ms" (Time.ms 346.0) (Psu.nominal_window psu));
    Alcotest.test_case "window is cutoff-limited under light load" `Quick
      (fun () ->
        let _, psu = mk_psu ~spec:Psu.atx_400 ~load:60.0 () in
        Alcotest.check check_time "392ms cutoff" (Time.ms 392.0)
          (Psu.nominal_window psu));
    Alcotest.test_case "window shrinks with load" `Quick (fun () ->
        let _, heavy = mk_psu ~spec:Psu.atx_525 ~load:150.0 () in
        let _, light = mk_psu ~spec:Psu.atx_525 ~load:60.0 () in
        Alcotest.(check bool) "monotone" true
          Time.(Psu.nominal_window heavy < Psu.nominal_window light));
    Alcotest.test_case "rails nominal until window closes, then decay" `Quick
      (fun () ->
        let engine, psu = mk_psu () in
        Engine.run_until engine (Time.ms 1.0);
        Psu.fail_input psu ();
        let fail_at = Engine.now engine in
        let w = Psu.nominal_window psu in
        let before = Time.add fail_at (Time.scale w 0.9) in
        let after = Time.add fail_at (Time.add w (Time.ms 10.0)) in
        Alcotest.(check (float 1e-9)) "12V holds" 12.0
          (Psu.rail_voltage psu Psu.V12 ~at:before);
        Alcotest.(check bool) "12V decays" true
          (Psu.rail_voltage psu Psu.V12 ~at:after < 12.0);
        Alcotest.(check bool) "powered before" true (Psu.powered psu ~at:before);
        Alcotest.(check bool) "dead after" false (Psu.powered psu ~at:after));
    Alcotest.test_case "PWR_OK drops at the failure instant" `Quick (fun () ->
        let engine, psu = mk_psu () in
        Engine.run_until engine (Time.ms 2.0);
        Psu.fail_input psu ();
        Alcotest.(check bool) "ok before" true (Psu.pwr_ok psu ~at:(Time.ms 1.0));
        Alcotest.(check bool) "down after" false (Psu.pwr_ok psu ~at:(Time.ms 3.0)));
    Alcotest.test_case "callbacks fire in order" `Quick (fun () ->
        let engine, psu = mk_psu () in
        let log = ref [] in
        Psu.on_pwr_ok_drop psu (fun e -> log := ("pwr_ok", Engine.now e) :: !log);
        Psu.on_output_lost psu (fun e -> log := ("lost", Engine.now e) :: !log);
        Psu.fail_input psu ();
        Engine.run engine;
        match List.rev !log with
        | [ ("pwr_ok", t1); ("lost", t2) ] ->
            Alcotest.check check_time "pwr_ok now" Time.zero t1;
            Alcotest.check check_time "lost after window" (Psu.nominal_window psu) t2
        | _ -> Alcotest.fail "wrong callback sequence");
    Alcotest.test_case "double failure rejected" `Quick (fun () ->
        let _, psu = mk_psu () in
        Psu.fail_input psu ();
        Alcotest.(check bool) "raises" true
          (try
             Psu.fail_input psu ();
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "figure 7 calibration points" `Quick (fun () ->
        let window spec load =
          let _, psu = mk_psu ~spec ~load () in
          Time.to_ms (Psu.nominal_window psu)
        in
        (* Paper: 400W 346/392; 525W 22/71 (we land 28/71); 750W 10/10;
           1050W 33/33. Within 30% everywhere. *)
        let close a b = abs_float (a -. b) /. b < 0.30 in
        Alcotest.(check bool) "400 busy" true (close (window Psu.atx_400 150.0) 346.0);
        Alcotest.(check bool) "400 idle" true (close (window Psu.atx_400 60.0) 392.0);
        Alcotest.(check bool) "525 busy" true (close (window Psu.atx_525 150.0) 22.0);
        Alcotest.(check bool) "525 idle" true (close (window Psu.atx_525 60.0) 71.0);
        Alcotest.(check bool) "750 busy" true (close (window Psu.atx_750 350.0) 10.0);
        Alcotest.(check bool) "750 idle" true (close (window Psu.atx_750 150.0) 10.0);
        Alcotest.(check bool) "1050 busy" true (close (window Psu.atx_1050 350.0) 33.0);
        Alcotest.(check bool) "1050 idle" true (close (window Psu.atx_1050 150.0) 33.0));
  ]

(* --- Ultracap ------------------------------------------------------------ *)

let ultracap_tests =
  [
    Alcotest.test_case "usable energy excludes the sub-minimum band" `Quick
      (fun () ->
        let cap = Ultracap.create ~capacitance:5.0 ~v_charge:8.5 () in
        (* 0.5*5*(8.5^2 - 6^2) = 90.625 J. *)
        Alcotest.(check (float 1e-3)) "energy" 90.625
          (Ultracap.usable_energy cap ~band:Ultracap.Datasheet));
    Alcotest.test_case "discharge tracks voltage and exhausts" `Quick (fun () ->
        let cap = Ultracap.create ~capacitance:5.0 ~v_charge:8.5 () in
        (match Ultracap.discharge cap ~power:4.5 ~during:(Time.s 8.5) with
        | `Ok -> ()
        | `Exhausted -> Alcotest.fail "should survive the save");
        Alcotest.(check bool) "voltage dropped" true (Ultracap.voltage cap < 8.5);
        (match Ultracap.discharge cap ~power:4.5 ~during:(Time.s 60.0) with
        | `Exhausted -> ()
        | `Ok -> Alcotest.fail "should exhaust");
        Alcotest.(check bool) "under v_min" true (Ultracap.voltage cap < 6.0));
    Alcotest.test_case "supply duration consistent with can_supply" `Quick
      (fun () ->
        let cap = Ultracap.create ~capacitance:5.0 ~v_charge:8.5 () in
        let d = Ultracap.supply_duration cap ~band:Ultracap.Datasheet ~power:4.5 in
        Alcotest.(check bool) "can supply for d" true
          (Ultracap.can_supply cap ~band:Ultracap.Datasheet ~power:4.5 ~lasting:d);
        Alcotest.(check bool) "cannot exceed d" false
          (Ultracap.can_supply cap ~band:Ultracap.Datasheet ~power:4.5
             ~lasting:(Time.add d (Time.s 1.0))));
    Alcotest.test_case "recharge counts cycles and restores voltage" `Quick
      (fun () ->
        let cap = Ultracap.create ~capacitance:5.0 ~v_charge:8.5 () in
        ignore (Ultracap.discharge cap ~power:4.5 ~during:(Time.s 5.0));
        Ultracap.recharge cap;
        Alcotest.(check (float 1e-9)) "full" 8.5 (Ultracap.voltage cap);
        Alcotest.(check int) "one cycle" 1 (Ultracap.cycles cap));
    Alcotest.test_case "figure 1 endpoints" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "fresh" 1.0
          (Ultracap.capacitance_fraction ~cycles:0 ~band:Ultracap.Worst);
        Alcotest.(check (float 1e-9)) "worst at 100k" 0.90
          (Ultracap.capacitance_fraction ~cycles:100_000 ~band:Ultracap.Worst);
        Alcotest.(check (float 1e-9)) "best at 100k" 0.98
          (Ultracap.capacitance_fraction ~cycles:100_000 ~band:Ultracap.Best);
        Alcotest.(check bool) "battery collapses by 500" true
          (Ultracap.battery_capacity_fraction ~cycles:500 < 0.4));
    Alcotest.test_case "degradation is monotone in cycles" `Quick (fun () ->
        let rec check prev cycles =
          if cycles <= 100_000 then begin
            let f = Ultracap.capacitance_fraction ~cycles ~band:Ultracap.Worst in
            Alcotest.(check bool) "non-increasing" true (f <= prev +. 1e-12);
            check f (cycles + 10_000)
          end
        in
        check 1.0 0);
  ]

(* --- Oscilloscope ----------------------------------------------------------- *)

let oscilloscope_tests =
  [
    Alcotest.test_case "measures the window within half a millisecond" `Quick
      (fun () ->
        let engine = Engine.create () in
        let psu = Psu.create ~engine ~spec:Psu.atx_1050 ~load:350.0 in
        let scope = Oscilloscope.create ~rng:(Rng.create ~seed:1) psu in
        Engine.run_until engine (Time.ms 5.0);
        let fail_at = Engine.now engine in
        Psu.fail_input psu ();
        Engine.run_until engine (Time.ms 150.0);
        match Oscilloscope.measure_window scope ~fail_at ~until:(Time.ms 150.0) with
        | Some w ->
            let err = abs_float (Time.to_ms w -. 33.0) in
            Alcotest.(check bool) "within 1.5 ms of 33" true (err < 1.5)
        | None -> Alcotest.fail "no window measured");
    Alcotest.test_case "noise alone does not trigger the rule" `Quick (fun () ->
        let engine = Engine.create () in
        let psu = Psu.create ~engine ~spec:Psu.atx_1050 ~load:350.0 in
        let scope = Oscilloscope.create ~rng:(Rng.create ~seed:2) psu in
        Engine.run_until engine (Time.ms 50.0);
        (* No failure injected: a healthy PSU must never read as dropped. *)
        let traces =
          Oscilloscope.capture scope ~from:Time.zero ~until:(Time.ms 50.0)
            ~rails:Psu.all_rails
        in
        List.iter
          (fun trace ->
            if Trace.name trace <> "PWR_OK" then
              Alcotest.(check bool)
                (Trace.name trace ^ " stays up")
                true
                (Trace.first_crossing_below trace ~threshold:(0.95 *. 3.3)
                   ~hold:(Time.us 250.0)
                = None))
          traces);
    Alcotest.test_case "capture covers all rails plus PWR_OK" `Quick (fun () ->
        let engine = Engine.create () in
        let psu = Psu.create ~engine ~spec:Psu.atx_750 ~load:150.0 in
        let scope = Oscilloscope.create ~rng:(Rng.create ~seed:3) psu in
        let traces =
          Oscilloscope.capture scope ~from:Time.zero ~until:(Time.ms 1.0)
            ~rails:Psu.all_rails
        in
        Alcotest.(check int) "four traces" 4 (List.length traces);
        List.iter
          (fun t -> Alcotest.(check int) "101 samples" 101 (Trace.length t))
          traces);
  ]

(* --- Power monitor -------------------------------------------------------- *)

let monitor_tests =
  [
    Alcotest.test_case "raises the host interrupt after its latencies" `Quick
      (fun () ->
        let engine = Engine.create () in
        let psu = Psu.create ~engine ~spec:Psu.atx_1050 ~load:350.0 in
        let monitor = Power_monitor.create ~engine ~psu () in
        let fired = ref None in
        Power_monitor.on_power_fail monitor (fun e -> fired := Some (Engine.now e));
        Engine.run_until engine (Time.ms 1.0);
        Psu.fail_input psu ();
        Engine.run engine;
        (match !fired with
        | Some at ->
            Alcotest.check check_time "1ms + 100us" (Time.us 1100.0) at
        | None -> Alcotest.fail "interrupt never fired");
        Alcotest.(check bool) "triggered" true (Power_monitor.triggered monitor));
    Alcotest.test_case "i2c commands are serialised after the latency" `Quick
      (fun () ->
        let engine = Engine.create () in
        let psu = Psu.create ~engine ~spec:Psu.atx_1050 ~load:350.0 in
        let monitor = Power_monitor.create ~engine ~psu () in
        let at = ref Time.zero in
        Power_monitor.send_i2c monitor (fun e -> at := Engine.now e);
        Engine.run engine;
        Alcotest.check check_time "i2c latency" Power_monitor.i2c_latency !at);
  ]

let suite =
  [
    ("power.psu", psu_tests);
    ("power.ultracap", ultracap_tests);
    ("power.oscilloscope", oscilloscope_tests);
    ("power.monitor", monitor_tests);
  ]
