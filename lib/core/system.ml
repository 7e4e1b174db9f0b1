open Wsp_sim
open Wsp_machine
open Wsp_nvheap
module Psu = Wsp_power.Psu
module Power_monitor = Wsp_power.Power_monitor
module Nvdimm = Wsp_nvdimm.Nvdimm

let log_src = Logs.Src.create "wsp.system" ~doc:"WSP save/restore protocol"

module Log = (val Logs.src_log log_src : Logs.LOG)

type restart_strategy = Acpi_save | Restore_reinit | Virtualized_replay

let strategy_name = function
  | Acpi_save -> "acpi-save"
  | Restore_reinit -> "restore-reinit"
  | Virtualized_replay -> "virtualized-replay"

type outcome =
  | Recovered of { resume_latency : Time.t; ios_failed : int; ios_replayed : int }
  | Invalid_marker
  | No_image

let outcome_name = function
  | Recovered _ -> "recovered"
  | Invalid_marker -> "invalid-marker"
  | No_image -> "no-image"

type save_step =
  | Before_interrupt
  | Before_contexts
  | Before_flush
  | Before_marker
  | Before_nvdimm_signal
  | After_nvdimm_signal

let save_steps =
  [
    Before_interrupt;
    Before_contexts;
    Before_flush;
    Before_marker;
    Before_nvdimm_signal;
    After_nvdimm_signal;
  ]

let save_step_name = function
  | Before_interrupt -> "before-interrupt"
  | Before_contexts -> "before-contexts"
  | Before_flush -> "before-flush"
  | Before_marker -> "before-marker"
  | Before_nvdimm_signal -> "before-nvdimm-signal"
  | After_nvdimm_signal -> "after-nvdimm-signal"

type save_report = {
  mutable power_fail_at : Time.t option;
  mutable window : Time.t;
  mutable interrupt_at : Time.t option;
  mutable acpi_done_at : Time.t option;
  mutable contexts_saved_at : Time.t option;
  mutable flush_done_at : Time.t option;
  mutable dirty_bytes_flushed : int;
  mutable marker_written_at : Time.t option;
  mutable nvdimm_initiated_at : Time.t option;
  mutable nvdimm_done_at : Time.t option;
  mutable nvdimm_ok : bool;
  mutable emergency_save : bool;
  mutable host_save_complete : bool;
}

let fresh_report () =
  {
    power_fail_at = None;
    window = Time.zero;
    interrupt_at = None;
    acpi_done_at = None;
    contexts_saved_at = None;
    flush_done_at = None;
    dirty_bytes_flushed = 0;
    marker_written_at = None;
    nvdimm_initiated_at = None;
    nvdimm_done_at = None;
    nvdimm_ok = false;
    emergency_save = false;
    host_save_complete = false;
  }

let host_save_latency r =
  match (r.interrupt_at, r.nvdimm_initiated_at) with
  | Some a, Some b -> Some (Time.sub b a)
  | _ -> None

(* WSP save-area layout at the bottom of memory. *)
let marker_addr = 0
let context_addr = 256
let wsp_area = 4096
let marker_magic = 0x57535056414C4944L (* "WSPVALID" *)

type t = {
  engine : Engine.t;
  platform : Platform.t;
  cpu : Cpu.t;
  nvram : Nvram.t;
  nvdimm : Nvdimm.t;
  psu : Psu.t;
  monitor : Power_monitor.t;
  devices : Device.t list;
  strategy : restart_strategy;
  rng : Rng.t;
  validate_marker : bool;
  mutable powered : bool;
  mutable cut_at : save_step option;
  mutable report : save_report;
  memory : Units.Size.t;
}

let write_marker t value =
  Nvram.write_u64 t.nvram ~addr:marker_addr value;
  Nvram.clflush t.nvram ~addr:marker_addr;
  Nvram.fence t.nvram

(* --- power loss --------------------------------------------------- *)

let power_off t engine =
  if t.powered then begin
    t.powered <- false;
    Log.info (fun m ->
        m "rails out of regulation at %a%s" Time.pp (Engine.now engine)
          (if t.report.host_save_complete then "" else " - save path interrupted"));
    (* Volatile state dies with the rails. *)
    Nvram.crash t.nvram;
    Cpu.halt_all t.cpu;
    List.iter Device.power_cycle t.devices;
    match Nvdimm.state t.nvdimm with
    | Nvdimm.Saving | Nvdimm.Saved | Nvdimm.Lost | Nvdimm.Restoring -> ()
    | Nvdimm.Active | Nvdimm.Self_refresh ->
        (* The host never initiated the save: the monitor triggers an
           emergency NVDIMM save of whatever reached memory. The missing
           valid marker will tell the next boot the flush was torn. *)
        t.report.emergency_save <- true;
        (match Nvdimm.state t.nvdimm with
        | Nvdimm.Active -> Nvdimm.enter_self_refresh t.nvdimm
        | Nvdimm.Self_refresh | Nvdimm.Saving | Nvdimm.Saved
        | Nvdimm.Restoring | Nvdimm.Lost -> ());
        Nvdimm.initiate_save t.nvdimm ~on_complete:(fun engine result ->
            t.report.nvdimm_done_at <- Some (Engine.now engine);
            t.report.nvdimm_ok <- result = `Saved);
        ignore engine
  end

(* --- the WSP save routine ---------------------------------------- *)

let guard t f engine = if t.powered then f engine

(* Cuts the rails at the configured protocol step — the checker's way of
   making the residual energy window expire at exactly that instant.
   Returns [true] when the cut fired, so the step's work is skipped. *)
let cut_here t engine step =
  if t.cut_at = Some step then begin
    power_off t engine;
    true
  end
  else false

let marker_step_latency = Time.ns 250.0

let rec save_step_interrupt t engine =
  match Nvdimm.state t.nvdimm with
  | Nvdimm.Saving | Nvdimm.Saved | Nvdimm.Restoring | Nvdimm.Lost ->
      (* The OS is not running (mid-boot or mid-save): there is no live
         system image worth saving; the boot path handles recovery. *)
      Log.debug (fun m ->
          m "power failed while NVDIMM is %s: save path skipped"
            (Nvdimm.state_name (Nvdimm.state t.nvdimm)))
  | Nvdimm.Active | Nvdimm.Self_refresh -> save_step_interrupt' t engine

and save_step_interrupt' t engine =
  if cut_here t engine Before_interrupt then ()
  else save_step_interrupt'' t engine

and save_step_interrupt'' t engine =
  t.report.interrupt_at <- Some (Engine.now engine);
  Log.debug (fun m ->
      m "power-fail interrupt on CPU0 at %a (window %a)" Time.pp
        (Engine.now engine) Time.pp t.report.window);
  match t.strategy with
  | Acpi_save ->
      (* Strawman: put every device into D3 before touching CPU state.
         This usually blows the residual window (Figure 9 vs Figure 7). *)
      let dur = Acpi.suspend_duration t.devices in
      Engine.schedule engine ~after:dur
        (guard t (fun engine ->
             ignore (Acpi.suspend_all t.devices);
             t.report.acpi_done_at <- Some (Engine.now engine);
             save_step_contexts t engine))
  | Restore_reinit | Virtualized_replay -> save_step_contexts t engine

and save_step_contexts t engine =
  (* IPI fan-out, then every core saves its context in parallel. *)
  let dur = Time.add t.platform.Platform.ipi_latency t.platform.Platform.context_save_latency in
  Engine.schedule engine ~after:dur
    (guard t (fun engine ->
         if cut_here t engine Before_contexts then ()
         else begin
           let buf = Bytes.create (Cpu.context_area_bytes t.cpu) in
           Cpu.save_contexts t.cpu buf ~off:0;
           Nvram.write_bytes t.nvram ~addr:context_addr buf;
           Array.iter
             (fun core -> if Cpu.Core.id core <> 0 then Cpu.Core.halt core)
             (Cpu.cores t.cpu);
           t.report.contexts_saved_at <- Some (Engine.now engine);
           Log.debug (fun m ->
               m "contexts saved, %d cores halted at %a"
                 (Cpu.core_count t.cpu - 1)
                 Time.pp (Engine.now engine));
           save_step_flush t engine
         end))

and save_step_flush t engine =
  let dirty = Nvram.dirty_bytes t.nvram + Nvram.pending_nt_bytes t.nvram in
  t.report.dirty_bytes_flushed <- dirty;
  let dur = Flush.wbinvd_time t.platform ~dirty_bytes:dirty in
  Engine.schedule engine ~after:dur
    (guard t (fun engine ->
         if cut_here t engine Before_flush then ()
         else begin
           Nvram.wbinvd t.nvram;
           t.report.flush_done_at <- Some (Engine.now engine);
           Log.debug (fun m ->
               m "wbinvd complete (%d dirty bytes) at %a" dirty Time.pp
                 (Engine.now engine));
           save_step_marker t engine
         end))

and save_step_marker t engine =
  Engine.schedule engine ~after:marker_step_latency
    (guard t (fun engine ->
         if cut_here t engine Before_marker then ()
         else begin
           write_marker t marker_magic;
           t.report.marker_written_at <- Some (Engine.now engine);
           Log.debug (fun m ->
               m "valid-image marker flushed at %a" Time.pp (Engine.now engine));
           save_step_nvdimm t engine
         end))

and save_step_nvdimm t engine =
  ignore (engine : Engine.t);
  Power_monitor.send_i2c t.monitor
    (guard t (fun _engine -> Nvdimm.enter_self_refresh t.nvdimm));
  Power_monitor.send_i2c t.monitor
    (guard t (fun engine ->
         if cut_here t engine Before_nvdimm_signal then ()
         else begin
           t.report.nvdimm_initiated_at <- Some (Engine.now engine);
           t.report.host_save_complete <- true;
           Log.info (fun m ->
               m "NVDIMM save initiated at %a; host save path complete" Time.pp
                 (Engine.now engine));
           Nvdimm.initiate_save t.nvdimm ~on_complete:(fun engine result ->
               t.report.nvdimm_done_at <- Some (Engine.now engine);
               t.report.nvdimm_ok <- result = `Saved);
           Cpu.Core.halt (Cpu.control t.cpu);
           ignore (cut_here t engine After_nvdimm_signal)
         end))

(* --- construction -------------------------------------------------- *)

let create ?(platform = Platform.intel_c5528) ?(psu = Psu.atx_1050)
    ?(memory = Units.Size.mib 16) ?(strategy = Restore_reinit) ?(busy = false)
    ?(seed = 42) ?(validate_marker = true) () =
  if Units.Size.to_bytes memory <= 2 * wsp_area then
    invalid_arg "System.create: memory too small";
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let cpu =
    Cpu.create ~sockets:platform.Platform.sockets
      ~cores_per_socket:platform.Platform.cores_per_socket
      ~threads_per_core:platform.Platform.threads_per_core
  in
  let nvdimm = Nvdimm.create ~engine ~size:memory () in
  let nvram =
    Nvram.create
      ~hierarchy:(Platform.core_hierarchy platform)
      ~backing:(Nvdimm.dram nvdimm) ~size:memory ()
  in
  let load = if busy then platform.Platform.power_busy else platform.Platform.power_idle in
  let psu = Psu.create ~engine ~spec:psu ~load in
  let monitor = Power_monitor.create ~engine ~psu () in
  let devices = Device.suite_for platform in
  List.iter (fun d -> Device.set_busy d busy) devices;
  let t =
    {
      engine;
      platform;
      cpu;
      nvram;
      nvdimm;
      psu;
      monitor;
      devices;
      strategy;
      rng;
      validate_marker;
      powered = true;
      cut_at = None;
      report = fresh_report ();
      memory;
    }
  in
  (* Running threads hold arbitrary register state. *)
  Array.iter (fun core -> Cpu.Core.scramble core rng) (Cpu.cores cpu);
  (* The valid marker is cleared on startup. *)
  write_marker t 0L;
  Power_monitor.on_power_fail monitor (guard t (save_step_interrupt t));
  Psu.on_output_lost psu (power_off t);
  t

let engine t = t.engine
let platform t = t.platform
let psu t = t.psu
let nvram t = t.nvram
let nvdimm t = t.nvdimm
let cpu t = t.cpu
let devices t = t.devices
let report t = t.report
let powered t = t.powered
let strategy t = t.strategy

let set_busy t busy =
  Psu.set_load t.psu
    (if busy then t.platform.Platform.power_busy else t.platform.Platform.power_idle);
  List.iter (fun d -> Device.set_busy d busy) t.devices

let app_base _t = wsp_area
let app_len t = Units.Size.to_bytes t.memory - wsp_area

let heap ?config ?log_size t =
  Pheap.create_in ?config ?log_size ~nvram:t.nvram ~base:(app_base t)
    ~len:(app_len t) ()

let attach_heap ?config t =
  Pheap.attach_in ?config ~nvram:t.nvram ~base:(app_base t)
    ~len:(app_len t) ()

(* --- observability -------------------------------------------------- *)

(* Cold path: runs once per failure cycle, after the event loop drains,
   so get-or-create registry lookups are fine here. *)
let record_save_metrics t =
  let r = t.report in
  let reg = Wsp_obs.Metrics.ambient () in
  let tr = Wsp_obs.Tracer.ambient () in
  let h name = Wsp_obs.Metrics.histogram reg name in
  let obs_gap name a b =
    match (a, b) with
    | Some a, Some b when Time.(b >= a) ->
        let d = Time.to_ps (Time.sub b a) in
        Wsp_obs.Metrics.Histogram.observe (h name) d;
        Wsp_obs.Tracer.span ~cat:"save" tr
          ~name:(String.sub name 15 (String.length name - 15 - 3))
          ~start_ps:(Time.to_ps a) ~stop_ps:(Time.to_ps b)
    | _ -> ()
  in
  Wsp_obs.Metrics.Counter.incr
    (Wsp_obs.Metrics.counter reg "core.save.cycles");
  if r.emergency_save then
    Wsp_obs.Metrics.Counter.incr
      (Wsp_obs.Metrics.counter reg "core.save.emergency_saves");
  Wsp_obs.Metrics.Histogram.observe (h "core.save.window_ps")
    (Time.to_ps r.window);
  Wsp_obs.Metrics.Histogram.observe
    (h "core.save.dirty_bytes")
    r.dirty_bytes_flushed;
  Wsp_obs.Metrics.Gauge.set
    (Wsp_obs.Metrics.gauge reg "core.psu.residual_load_watts")
    (Units.Power.to_watts (Psu.load t.psu));
  (match r.power_fail_at with
  | Some at ->
      Wsp_obs.Tracer.instant ~cat:"save" tr ~name:"power_fail"
        ~ts:(Time.to_ps at)
  | None -> ());
  (* Figure-4 step durations, interrupt through NVDIMM hand-off. *)
  obs_gap "core.save.step.contexts_ps" r.interrupt_at r.contexts_saved_at;
  obs_gap "core.save.step.flush_ps" r.contexts_saved_at r.flush_done_at;
  obs_gap "core.save.step.marker_ps" r.flush_done_at r.marker_written_at;
  obs_gap "core.save.step.nvdimm_signal_ps" r.marker_written_at
    r.nvdimm_initiated_at;
  obs_gap "core.save.step.nvdimm_save_ps" r.nvdimm_initiated_at r.nvdimm_done_at;
  match (r.interrupt_at, r.nvdimm_initiated_at) with
  | Some a, Some b when Time.(b >= a) ->
      Wsp_obs.Tracer.span ~cat:"save" tr ~name:"host_save"
        ~start_ps:(Time.to_ps a) ~stop_ps:(Time.to_ps b)
  | _ -> ()

let record_restore_metrics t ~boot_at outcome =
  ignore t;
  let reg = Wsp_obs.Metrics.ambient () in
  let tr = Wsp_obs.Tracer.ambient () in
  let count name =
    Wsp_obs.Metrics.Counter.incr (Wsp_obs.Metrics.counter reg name)
  in
  match outcome with
  | Recovered { resume_latency; _ } ->
      count "core.restore.recovered";
      Wsp_obs.Metrics.Histogram.observe
        (Wsp_obs.Metrics.histogram reg "core.restore.resume_ps")
        (Time.to_ps resume_latency);
      Wsp_obs.Tracer.span ~cat:"restore" tr ~name:"restore"
        ~start_ps:(Time.to_ps boot_at)
        ~stop_ps:(Time.to_ps (Time.add boot_at resume_latency))
  | Invalid_marker -> count "core.restore.invalid_marker"
  | No_image -> count "core.restore.no_image"

let inject_power_failure t =
  if not t.powered then invalid_arg "System.inject_power_failure: already off";
  t.report <- fresh_report ();
  t.report.power_fail_at <- Some (Engine.now t.engine);
  Psu.fail_input t.psu ~jitter:t.rng ();
  t.report.window <- Psu.nominal_window t.psu;
  Engine.run t.engine;
  record_save_metrics t

let inject_power_failure_at t step =
  t.cut_at <- Some step;
  Fun.protect
    ~finally:(fun () -> t.cut_at <- None)
    (fun () -> inject_power_failure t)

let restart_devices t =
  match t.strategy with
  | Acpi_save -> Acpi.resume_all t.devices
  | Restore_reinit ->
      List.fold_left
        (fun acc d ->
          Device.reinit d ~replay:false;
          Time.add acc (Device.spec d).Device.reinit_latency)
        Time.zero t.devices
  | Virtualized_replay ->
      (* A fresh host OS boots with its physical device stack, then each
         virtual device is re-attached and its in-flight I/O replayed. *)
      let host_boot = Time.ms 1200.0 in
      List.fold_left
        (fun acc d ->
          let replay_cost = Time.mul (Time.ms 1.0) (Device.ios_lost d) in
          Device.reinit d ~replay:true;
          Time.add acc (Time.add (Time.ms 50.0) replay_cost))
        host_boot t.devices

let power_on_and_restore t =
  if t.powered then invalid_arg "System.power_on_and_restore: already on";
  let boot_at = Engine.now t.engine in
  let result = ref No_image in
  t.powered <- true;
  Psu.restore_input t.psu;
  Nvdimm.recharge t.nvdimm;
  Nvdimm.initiate_restore t.nvdimm ~on_complete:(fun engine restore_result ->
      match restore_result with
      | _ when not t.powered ->
          (* Power died again mid-restore; the flash image is untouched,
             so the next boot simply retries. *)
          result := No_image
      | `No_image -> result := No_image
      | `Restored ->
          Nvdimm.exit_self_refresh t.nvdimm;
          let marker = Nvram.read_u64 t.nvram ~addr:marker_addr in
          if t.validate_marker && not (Int64.equal marker marker_magic) then
            result := Invalid_marker
          else begin
            let buf =
              Nvram.read_bytes t.nvram ~addr:context_addr
                ~len:(Cpu.context_area_bytes t.cpu)
            in
            Cpu.restore_contexts t.cpu buf ~off:0;
            (* Clearing the marker makes a failure during this resume
               detectable as well. *)
            write_marker t 0L;
            let device_time = restart_devices t in
            Engine.schedule engine ~after:device_time (fun engine ->
                if not t.powered then ()
                else begin
                  Cpu.resume_all t.cpu;
                  let ios_failed =
                    List.fold_left (fun acc d -> acc + Device.ios_failed d) 0 t.devices
                  in
                  let ios_replayed =
                    List.fold_left (fun acc d -> acc + Device.ios_replayed d) 0 t.devices
                  in
                  result :=
                    Recovered
                      {
                        resume_latency = Time.sub (Engine.now engine) boot_at;
                        ios_failed;
                        ios_replayed;
                      }
                end)
          end);
  Engine.run t.engine;
  record_restore_metrics t ~boot_at !result;
  !result

let run_failure_cycle t =
  inject_power_failure t;
  power_on_and_restore t

(* --- static save-budget analysis ---------------------------------- *)

type save_budget = {
  window : Time.t;
  detection : Time.t;
  host_save : Time.t;
  total : Time.t;
  fits : bool;
}

(* The Figure-4 critical path priced without building a machine: the
   static analyzer's FoF reliance check asks whether the worst-case
   residual window covers detection plus the host save for a given dirty
   footprint. Mirrors the dynamic path for the Restore_reinit /
   Virtualized_replay strategies (no ACPI device suspend on the save
   side) and the Power_monitor's default latencies; the window takes the
   PSU's worst run-to-run jitter, so a [fits] budget holds across the
   jittered dynamic runs too. *)
let save_budget ?(platform = Platform.intel_c5528) ?(psu = Psu.atx_1050)
    ?(busy = false) ~dirty_bytes () =
  let load =
    if busy then platform.Platform.power_busy else platform.Platform.power_idle
  in
  let nominal =
    Time.min
      (Units.Energy.duration_at psu.Psu.residual_energy load)
      psu.Psu.max_hold
  in
  let window = Time.scale nominal (1.0 -. psu.Psu.run_jitter) in
  let detection =
    Time.add Power_monitor.detect_latency Power_monitor.serial_latency
  in
  let host_save =
    Time.add
      (Time.add platform.Platform.ipi_latency
         platform.Platform.context_save_latency)
      (Time.add
         (Flush.wbinvd_time platform ~dirty_bytes)
         (Time.add marker_step_latency Power_monitor.i2c_latency))
  in
  let total = Time.add detection host_save in
  { window; detection; host_save; total; fits = Time.(total <= window) }
