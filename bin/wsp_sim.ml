(* The wsp-sim command-line interface.

   Subcommands:
     experiment  run one or more of the paper's tables/figures
     list        list the available experiments
     cycle       run one end-to-end power-failure cycle and report it
     window      measure a PSU's residual energy window
     check       crash-consistency checking via power-fail injection
     lint        static persistency-ordering analysis (no recovery runs)
     shard       sharded directory service under closed-loop load
     storm       run the cluster recovery-storm model (rack or fleet) *)

open Cmdliner
open Wsp_sim
open Wsp_machine
module Psu = Wsp_power.Psu
module System = Wsp_core.System
module Config = Wsp_nvheap.Config

let platform_conv =
  let parse s =
    match Platform.by_name s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown platform %S (try: %s)" s
               (String.concat ", "
                  (List.map (fun p -> p.Platform.short_name) Platform.all))))
  in
  Arg.conv (parse, fun ppf p -> Fmt.string ppf p.Platform.short_name)

let psu_conv =
  let parse s =
    let named = [ ("400", Psu.atx_400); ("525", Psu.atx_525); ("750", Psu.atx_750); ("1050", Psu.atx_1050) ] in
    match List.assoc_opt s named with
    | Some spec -> Ok spec
    | None -> (
        match Psu.spec_by_name s with
        | Some spec -> Ok spec
        | None -> Error (`Msg (Printf.sprintf "unknown PSU %S (try: 400, 525, 750, 1050)" s)))
  in
  Arg.conv (parse, fun ppf spec -> Fmt.string ppf spec.Psu.name)

let strategy_conv =
  let parse = function
    | "acpi" -> Ok System.Acpi_save
    | "reinit" -> Ok System.Restore_reinit
    | "replay" -> Ok System.Virtualized_replay
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S (acpi|reinit|replay)" s))
  in
  Arg.conv (parse, fun ppf s -> Fmt.string ppf (System.strategy_name s))

let platform_info =
  Arg.info [ "platform" ] ~docv:"PLATFORM"
    ~doc:"Platform (c5528, x5650, amd4180, d510)."

let platform_arg =
  Arg.(value & opt platform_conv Platform.intel_c5528 platform_info)

let psu_info =
  Arg.info [ "psu" ] ~docv:"PSU" ~doc:"PSU rating (400, 525, 750, 1050)."

let psu_arg = Arg.(value & opt psu_conv Psu.atx_1050 psu_info)

let busy_arg =
  Arg.(value & flag & info [ "busy" ] ~doc:"Run the stress (busy) load.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Trace the save/restore protocol steps.")

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* --- observability exports ------------------------------------------- *)

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the merged metrics registry (counters, gauges, histograms \
           across all worker domains) to $(docv) as JSON on exit.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record simulated-time spans and write them to $(docv) in Chrome \
           trace_event JSON (load in chrome://tracing or Perfetto).")

let json_arg doc =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

(* Writes a [--json] report to its FILE, or to stdout for [-]. Reports
   end in their own newline, so both destinations get the same bytes. *)
let emit_json dest json =
  match dest with
  | None -> ()
  | Some "-" -> print_string json
  | Some path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc json)

(* Malformed or conflicting options are a usage error: one line on
   stderr and exit 2. The library refuses bad parameters by raising
   [Invalid_argument]; [refusing verb f] reports those the same way. *)
let refuse verb msg =
  Printf.eprintf "%s: %s\n" verb msg;
  2

let refusing verb f = try f () with Invalid_argument msg -> refuse verb msg

(* The flags given, of those the chosen mode would ignore. *)
let given_flags flags =
  List.filter_map (fun (given, flag) -> if given then Some flag else None) flags

(* [-j N]: worker domains; 0 defers to the default. *)
let jobs_arg what =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          ("Worker domains " ^ what
         ^ " (0, the default: $(b,WSP_JOBS) or the core count; 1 forces \
            sequential)."))

(* [with_jobs verb jobs f] refuses a negative [-j] and hands [f] the
   width, [None] for the default. *)
let with_jobs verb jobs f =
  if jobs < 0 then
    refuse verb (Printf.sprintf "--jobs must be >= 0, got %d" jobs)
  else f (if jobs = 0 then None else Some jobs)

(* Runs [f] with tracing enabled when requested, then exports both
   artifacts. Exports run even when [f] fails so a crashing run still
   leaves its observability behind. *)
let with_obs metrics trace f =
  if trace <> None then Wsp_obs.Tracer.set_enabled true;
  let export () =
    (* The compact metrics JSON carries no final newline of its own. *)
    if metrics <> None then
      emit_json metrics
        (Wsp_obs.Metrics.to_json (Wsp_obs.Metrics.merged ()) ^ "\n");
    if trace <> None then emit_json trace (Wsp_obs.Tracer.export_json ())
  in
  Fun.protect ~finally:export f

(* --- experiment ----------------------------------------------------- *)

let experiment_cmd =
  let names_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"NAME" ~doc:"Experiments to run (all if none).")
  in
  let full_arg =
    Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale parameters (slow).")
  in
  let run names full jobs metrics trace =
    with_jobs "experiment" jobs @@ fun jobs ->
    with_obs metrics trace @@ fun () ->
    Option.iter Wsp_sim.Parallel.set_jobs jobs;
    match names with
    | [] ->
        Wsp_experiments.Registry.run_all ~full ();
        0
    | names ->
        List.fold_left
          (fun code name ->
            match Wsp_experiments.Registry.find name with
            | Some e ->
                e.Wsp_experiments.Registry.run ~full;
                code
            | None ->
                Printf.eprintf "unknown experiment %S\n" name;
                2)
          0 names
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce the paper's tables and figures")
    Term.(
      const run $ names_arg $ full_arg
      $ jobs_arg "for independent simulations"
      $ metrics_arg $ trace_arg)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Wsp_experiments.Registry.t) ->
        Printf.printf "%-11s %s\n" e.name e.title)
      Wsp_experiments.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments") Term.(const run $ const ())

(* --- cycle ----------------------------------------------------------- *)

let cycle_cmd =
  let strategy_arg =
    Arg.(
      value
      & opt strategy_conv System.Restore_reinit
      & info [ "strategy" ] ~docv:"STRATEGY" ~doc:"Device restart strategy (acpi|reinit|replay).")
  in
  let run platform psu busy strategy seed verbose metrics trace =
    setup_logs verbose;
    with_obs metrics trace @@ fun () ->
    let sys = System.create ~platform ~psu ~busy ~strategy ~seed () in
    let heap = System.heap sys in
    let addr = Wsp_nvheap.Pheap.alloc heap 4096 in
    for i = 0 to 511 do
      Wsp_nvheap.Pheap.write_u64 heap ~addr:(addr + (8 * i)) (Int64.of_int i)
    done;
    Wsp_nvheap.Pheap.set_root heap addr;
    System.inject_power_failure sys;
    let r = System.report sys in
    Printf.printf "platform:        %s\n" platform.Platform.name;
    Printf.printf "psu:             %s (%s load)\n" (Psu.spec (System.psu sys)).Psu.name
      (if busy then "busy" else "idle");
    Printf.printf "window:          %s\n" (Time.to_string r.System.window);
    (match System.host_save_latency r with
    | Some t -> Printf.printf "host save:       %s\n" (Time.to_string t)
    | None -> print_endline "host save:       did not finish before power loss");
    Printf.printf "dirty flushed:   %d bytes\n" r.System.dirty_bytes_flushed;
    Printf.printf "emergency save:  %b\n" r.System.emergency_save;
    let outcome = System.power_on_and_restore sys in
    Printf.printf "outcome:         %s\n" (System.outcome_name outcome);
    (match outcome with
    | System.Recovered { resume_latency; ios_failed; ios_replayed } ->
        Printf.printf "resume latency:  %s (%d I/Os failed, %d replayed)\n"
          (Time.to_string resume_latency) ios_failed ios_replayed;
        let heap' = System.attach_heap sys in
        let intact = ref true in
        let root = Wsp_nvheap.Pheap.root heap' in
        for i = 0 to 511 do
          if
            not
              (Int64.equal
                 (Wsp_nvheap.Pheap.read_u64 heap' ~addr:(root + (8 * i)))
                 (Int64.of_int i))
          then intact := false
        done;
        Printf.printf "data intact:     %b\n" !intact
    | System.Invalid_marker | System.No_image ->
        print_endline "data intact:     false (recover from the back end)");
    0
  in
  Cmd.v
    (Cmd.info "cycle" ~doc:"Run one end-to-end WSP power-failure cycle")
    Term.(
      const run $ platform_arg $ psu_arg $ busy_arg $ strategy_arg $ seed_arg
      $ verbose_arg $ metrics_arg $ trace_arg)

(* --- window ----------------------------------------------------------- *)

let window_cmd =
  let runs_arg =
    Arg.(value & opt int 3 & info [ "runs" ] ~docv:"N" ~doc:"Measurement runs.")
  in
  let run platform psu busy seed runs =
    refusing "window" @@ fun () ->
    if runs <= 0 then invalid_arg "--runs must be positive";
    let rng = Rng.create ~seed in
    let load = if busy then platform.Platform.power_busy else platform.Platform.power_idle in
    for i = 1 to runs do
      let engine = Engine.create () in
      let p = Psu.create ~engine ~spec:psu ~load in
      let scope = Wsp_power.Oscilloscope.create ~rng p in
      Engine.run_until engine (Time.ms 5.0);
      let fail_at = Engine.now engine in
      Psu.fail_input p ~jitter:rng ();
      let until = Time.add fail_at (Time.ms 600.0) in
      Engine.run_until engine until;
      match Wsp_power.Oscilloscope.measure_window scope ~fail_at ~until with
      | Some w -> Printf.printf "run %d: %s\n" i (Time.to_string w)
      | None -> Printf.printf "run %d: no drop within 600ms\n" i
    done;
    0
  in
  Cmd.v
    (Cmd.info "window" ~doc:"Measure a PSU's residual energy window")
    Term.(const run $ platform_arg $ psu_arg $ busy_arg $ seed_arg $ runs_arg)

(* --- check ------------------------------------------------------------ *)

(* The certification matrix names configurations by what they promise:
   undo, redo and msync must recover from the drained bytes alone; wsp
   relies on the flush-on-fail save. Shared by check, lint and shard. *)
let config_of_name = function
  | "undo" -> Some Config.foc_ul
  | "redo" -> Some Config.foc_stm
  | "wsp" -> Some Config.fof
  | s -> Config.by_name s

let config_conv =
  let parse s =
    match config_of_name s with
    | Some c -> Ok c
    | None ->
        Error
          (`Msg (Printf.sprintf "unknown config %S (undo|redo|wsp|msync)" s))
  in
  Arg.conv (parse, fun ppf (c : Config.t) -> Fmt.string ppf c.Config.name)

(* Every float flag is a duration in seconds or a skew: NaN and the
   infinities are refused while parsing, before [Time.s] turns seconds
   into integer picoseconds. *)
let finite_float =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok f when not (Float.is_finite f) ->
        Error (`Msg (Printf.sprintf "%S is not a finite number" s))
    | (Ok _ | Error _) as r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* The sabotage [check] and [lint] inject with [--broken]. *)
let fault_conv =
  let module Checker = Wsp_check.Checker in
  let parse = function
    | "none" -> Ok Checker.No_fault
    | "fences" -> Ok Checker.Broken_fences
    | "wsp-save" -> Ok Checker.Broken_wsp_save
    | s -> Error (`Msg (Printf.sprintf "unknown fault %S (none|fences|wsp-save)" s))
  in
  Arg.conv (parse, fun ppf f -> Fmt.string ppf (Checker.fault_name f))

let check_cmd =
  let module Checker = Wsp_check.Checker in
  let module Protocol_check = Wsp_check.Protocol_check in
  let workload_conv =
    let parse s =
      match Checker.kind_of_name s with
      | Some k -> Ok k
      | None ->
          Error
            (`Msg
              (Printf.sprintf "unknown workload %S (try: %s)" s
                 (String.concat ", "
                    (List.map Checker.kind_name Checker.all_kinds))))
    in
    Arg.conv (parse, fun ppf k -> Fmt.string ppf (Checker.kind_name k))
  in
  let workloads_arg =
    Arg.(
      value & opt_all workload_conv []
      & info [ "workload" ] ~docv:"WORKLOAD"
          ~doc:"Workload(s) to check (btree, hash_table, skiplist, block_kv; \
                default: all).")
  in
  let configs_arg =
    Arg.(
      value & opt_all config_conv []
      & info [ "config" ] ~docv:"CONFIG"
          ~doc:"Persistence configuration(s) (undo, redo, wsp, msync; \
                default: all four).")
  in
  let points_arg =
    Arg.(
      value & opt int 1000
      & info [ "points" ] ~docv:"N"
          ~doc:"Crash points per workload x config cell (exhaustive when the \
                trace is shorter).")
  in
  let txns_arg =
    Arg.(value & opt int 32 & info [ "txns" ] ~docv:"N" ~doc:"Transactions per workload.")
  in
  let broken_arg =
    Arg.(
      value & opt fault_conv Checker.No_fault
      & info [ "broken" ] ~docv:"FAULT"
          ~doc:"Deliberate sabotage to inject (none, fences, wsp-save); the \
                checker must detect it.")
  in
  let protocol_arg =
    Arg.(
      value & flag
      & info [ "protocol" ]
          ~doc:"Also sweep the Figure-4 save protocol's crash points (all \
                steps x strategies).")
  in
  let no_shrink_arg =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Skip minimising failing traces.")
  in
  let stride_arg =
    Arg.(
      value & opt int 256
      & info [ "stride" ] ~docv:"N"
          ~doc:"Snapshot interval in crash points (also the parallel chunk \
                size); 0 disables waypoints so every chunk replays from the \
                base image.")
  in
  let json_arg =
    json_arg
      "Also write the machine-readable reports to $(docv) ($(b,-) for \
       stdout). Byte-identical across $(b,--jobs) widths and $(b,--stride) \
       values."
  in
  let run workloads configs points txns jobs broken protocol no_shrink
      stride json seed verbose metrics trace =
    with_jobs "check" jobs @@ fun jobs ->
    setup_logs verbose;
    with_obs metrics trace @@ fun () ->
    refusing "check" @@ fun () ->
    let workloads = if workloads = [] then Checker.all_kinds else workloads in
    let configs =
      if configs = [] then
        [ Config.foc_ul; Config.foc_stm; Config.fof; Config.msync ]
      else configs
    in
    let reports =
      List.concat_map
        (fun kind ->
          List.map
            (fun config ->
              let r =
                Checker.check ?jobs ~points ~txns ~fault:broken
                  ~shrink:(not no_shrink) ~snapshot_stride:stride
                  ~kind ~config ~seed ()
              in
              Fmt.pr "%a@." Checker.pp_report r;
              r)
            configs)
        workloads
    in
    emit_json json (Checker.reports_to_json reports);
    let workload_violations =
      List.exists (fun r -> r.Checker.violations <> []) reports
    in
    let protocol_violations =
      if protocol then begin
        let results = Protocol_check.run ~seed () in
        Fmt.pr "@.save-protocol sweep:@.";
        List.iter (fun r -> Fmt.pr "  %a@." Protocol_check.pp_result r) results;
        Protocol_check.violations results <> []
      end
      else false
    in
    if workload_violations || protocol_violations then 1 else 0
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Crash-consistency checking: systematic power-fail injection over \
          every persistency event of a workload, with the real recovery path \
          run on each crash image")
    Term.(
      const run $ workloads_arg $ configs_arg $ points_arg $ txns_arg
      $ jobs_arg "for crash-point fan-out"
      $ broken_arg $ protocol_arg $ no_shrink_arg $ stride_arg $ json_arg
      $ seed_arg $ verbose_arg $ metrics_arg $ trace_arg)

(* --- lint ------------------------------------------------------------- *)

let lint_cmd =
  let module Checker = Wsp_check.Checker in
  let module Rules = Wsp_analysis.Rules in
  let module Analyzer = Wsp_analysis.Analyzer in
  let rule_conv =
    let parse s =
      match Rules.rule_of_name s with
      | Some r -> Ok r
      | None -> Error (`Msg (Printf.sprintf "unknown rule %S (R1..R10)" s))
    in
    Arg.conv (parse, fun ppf r -> Fmt.string ppf (Rules.rule_name r))
  in
  let workload_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"WORKLOAD"
          ~doc:"Limit to one structure (btree, hash_table, skiplist, \
                block_kv, bank, avl) or a full id like $(b,btree/foc-ul).")
  in
  let config_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "config" ] ~docv:"CONFIG"
          ~doc:"Limit to one configuration slug (foc-ul, foc-stm, fof, \
                fof-ul, fof-stm, msync).")
  in
  let broken_arg =
    Arg.(
      value & opt (some fault_conv) None
      & info [ "broken" ] ~docv:"FAULT"
          ~doc:"Deliberate sabotage to inject (none, fences, wsp-save); the \
                analyzer must convict it statically.")
  in
  let txns_arg =
    Arg.(value & opt int 32 & info [ "txns" ] ~docv:"N" ~doc:"Transactions per workload.")
  in
  let json_arg =
    json_arg
      "Also write the machine-readable report to $(docv) ($(b,-) for \
       stdout). Byte-identical across $(b,--jobs) widths."
  in
  let expect_arg =
    Arg.(
      value & opt_all rule_conv []
      & info [ "expect" ] ~docv:"RULE"
          ~doc:"Allowlist a rule id (repeatable): its diagnostics are \
                reported but do not affect the exit code.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Fail (exit 1) on unexpected advisories too, not just errors.")
  in
  (* Absent unless given, so a flag the concurrent registry ignores can
     be refused rather than silently dropped. *)
  let lint_platform_arg =
    Arg.(value & opt (some platform_conv) None platform_info)
  in
  let lint_psu_arg = Arg.(value & opt (some psu_conv) None psu_info) in
  let concurrent_arg =
    Arg.(
      value & flag
      & info [ "concurrent" ]
          ~doc:"Run the concurrent registry instead: multi-domain durable \
                structures analysed by the vector-clock race detector \
                (rules R6-R9 on top of the per-domain R1-R5 streams). \
                Refuses $(b,--broken), $(b,--psu), $(b,--platform) and \
                $(b,--busy), which only the sequential registry models.")
  in
  let buses_arg =
    Arg.(
      value & opt int 0
      & info [ "buses" ] ~docv:"N"
          ~doc:"With $(b,--concurrent): raise the logical domain count \
                above each workload's minimum (more queue producers, more \
                counter peers).")
  in
  let run workload config broken txns jobs concurrent buses json expect strict
      psu platform busy seed verbose metrics trace =
    with_jobs "lint" jobs @@ fun jobs ->
    let conflicts =
      if concurrent then
        given_flags
          [
            (Option.is_some broken, "--broken");
            (Option.is_some psu, "--psu");
            (Option.is_some platform, "--platform");
            (busy, "--busy");
          ]
      else if buses <> 0 then [ "--buses" ]
      else []
    in
    if conflicts <> [] then
      refuse "lint"
        (Printf.sprintf "%s %s"
           (String.concat ", " conflicts)
           (if concurrent then "cannot be combined with --concurrent"
            else "requires --concurrent"))
    else begin
      setup_logs verbose;
      with_obs metrics trace @@ fun () ->
      refusing "lint" @@ fun () ->
      let module Canalyzer = Wsp_analysis.Canalyzer in
      let render reports =
        Fmt.pr "%a" (Analyzer.pp_human ~expect) reports;
        emit_json json (Analyzer.to_json ~expect reports);
        let errs, advs = Analyzer.errors ~expect reports in
        if errs > 0 || (strict && advs > 0) then 1 else 0
      in
      if concurrent then begin
        let buses = if buses = 0 then None else Some buses in
        match Canalyzer.cfind ?workload ?config () with
        | [] ->
            Printf.eprintf "no concurrent workload matches the given filters\n";
            2
        | workloads -> render (Canalyzer.clint ?jobs ?buses ~txns ~seed ~workloads ())
      end
      else
        match Analyzer.find ?workload ?config () with
        | [] ->
            Printf.eprintf "no workload matches the given filters\n";
            2
        | workloads ->
            render
              (Analyzer.lint ?jobs ?fault:broken ~txns ~seed ?psu ?platform
                 ~busy ~workloads ())
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static persistency-ordering analysis: build the persist-before DAG \
          from a recorded trace and report ordering violations, heap-lifetime \
          bugs, redundant flushes, and flush-on-fail budget gaps without \
          executing recovery")
    Term.(
      const run $ workload_arg $ config_arg $ broken_arg $ txns_arg
      $ jobs_arg "for the workload fan-out"
      $ concurrent_arg $ buses_arg $ json_arg $ expect_arg $ strict_arg
      $ lint_psu_arg $ lint_platform_arg $ busy_arg $ seed_arg $ verbose_arg
      $ metrics_arg $ trace_arg)

(* --- shard ------------------------------------------------------------ *)

let shard_cmd =
  let module Service = Wsp_shard.Service in
  let module Client = Wsp_shard.Client in
  let d = Service.default in
  let shards_arg =
    Arg.(
      value & opt int d.shards & info [ "shards" ] ~docv:"N" ~doc:"Shard count.")
  in
  let clients_arg =
    Arg.(
      value & opt int d.clients
      & info [ "clients" ] ~docv:"N"
          ~doc:"Closed-loop client population (requests per round).")
  in
  let requests_arg =
    Arg.(
      value & opt int d.requests
      & info [ "requests" ] ~docv:"N" ~doc:"Total operations to issue.")
  in
  let keyspace_arg =
    Arg.(
      value & opt int d.keyspace
      & info [ "keyspace" ] ~docv:"N" ~doc:"Distinct keys clients draw from.")
  in
  let theta_arg =
    Arg.(
      value & opt finite_float d.theta
      & info [ "theta" ] ~docv:"THETA"
          ~doc:"Zipfian key skew in [0,1); 0 for uniform keys.")
  in
  let mix_arg =
    Arg.(
      value
      & opt (t3 ~sep:'/' int int int) (d.mix.lookups, d.mix.inserts, d.mix.deletes)
      & info [ "mix" ] ~docv:"L/I/D"
          ~doc:"Lookup/insert/delete percentages, summing to 100.")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int d.queue_cap
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Per-shard, per-round admission bound; arrivals beyond it are \
                shed and counted.")
  in
  let config_arg =
    Arg.(
      value & opt config_conv d.config
      & info [ "config" ] ~docv:"CONFIG"
          ~doc:"Persistence configuration per shard heap (undo, redo, wsp, \
                msync).")
  in
  let heap_arg =
    Arg.(
      value
      & opt int (int_of_float (Units.Size.to_mib d.shard_heap))
      & info [ "heap-mib" ] ~docv:"MIB" ~doc:"NVRAM region per shard (MiB).")
  in
  let crash_arg =
    Arg.(
      value & opt (some int) None
      & info [ "crash-at" ] ~docv:"ROUND"
          ~doc:"Power-fail after this 0-based round (WSP save, crash, \
                restore), then keep serving. Fails the whole service unless \
                $(b,--crash-shard) narrows it to one shard.")
  in
  let crash_shard_arg =
    Arg.(
      value & opt (some int) None
      & info [ "crash-shard" ] ~docv:"K"
          ~doc:"Power-fail only shard $(docv) at $(b,--crash-at): it saves, \
                restores and catches up on its backlog while the other \
                shards keep serving; the report books the availability dip.")
  in
  let grow_arg =
    Arg.(
      value & opt (some int) None
      & info [ "grow-at" ] ~docv:"ROUND"
          ~doc:"Add a shard after this round and migrate the moved keys to \
                it in bounded batches while serving continues.")
  in
  let shrink_arg =
    Arg.(
      value & opt (some int) None
      & info [ "shrink-at" ] ~docv:"ROUND"
          ~doc:"Remove the highest-numbered shard after this round; it \
                drains its keys to the survivors, then retires.")
  in
  let migrate_batch_arg =
    Arg.(
      value & opt int d.migrate_batch
      & info [ "migrate-batch" ] ~docv:"N"
          ~doc:"Maximum key handoffs per draining shard per round.")
  in
  let migrate_mode_arg =
    Arg.(
      value
      & opt (enum [ ("drain", `Drain); ("image", `Image) ]) d.migrate_mode
      & info [ "migrate-mode" ] ~docv:"MODE"
          ~doc:
            "How topology changes move data: $(b,drain) hands keys off out \
             of the live source tree; $(b,image) ships each source's heap \
             as a relocatable image of its allocated extents to a staging \
             node (restored at a different base, pointers swizzled) and hands keys off out of \
             the restored replica, reconciling post-ship writes. Both modes \
             converge to the same final directory.")
  in
  let sweep_arg =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:"Mid-migration crash sweep: run once crash-free, then re-run \
                with a power failure injected before each sampled migration \
                memory event, verifying lossless single-owner recovery \
                against the golden run. Needs $(b,--grow-at) or \
                $(b,--shrink-at) and refuses $(b,--lint) and \
                $(b,--race-lint); exits non-zero on any violation.")
  in
  let sweep_points_arg =
    Arg.(
      value & opt (some int) None
      & info [ "sweep-points" ] ~docv:"N"
          ~doc:"Crash points in $(b,--sweep): a sample of the migration's \
                memory events seeded by $(b,--seed), or all of them when \
                $(docv) is at least their count (default 64).")
  in
  let lint_arg =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:"Stream the static persistency analyzer off every shard bus.")
  in
  let race_lint_arg =
    Arg.(
      value & flag
      & info [ "race-lint" ]
          ~doc:"Stream every shard bus plus the migration protocol's sync \
                annotations into the cross-domain race detector (rules \
                R6-R9, one vector-clock domain per shard); exits non-zero \
                on any cross-domain error.")
  in
  let broken_handoff_arg =
    Arg.(
      value & flag
      & info [ "broken-handoff" ]
          ~doc:"Sabotage the migration engine: tombstone each key at the \
                source before its destination persist. $(b,--race-lint) \
                convicts it via R8; $(b,--sweep) loses acked keys. Needs a \
                topology change.")
  in
  let json_arg =
    json_arg
      "Write the report as JSON to $(docv) ($(b,-) for stdout). Simulated \
       quantities only — byte-identical across $(b,--jobs) widths."
  in
  let run shards clients requests keyspace theta (lookups, inserts, deletes)
      queue_cap config heap_mib crash_at crash_shard grow_at shrink_at
      migrate_batch migrate_mode sweep sweep_points lint race_lint
      broken_handoff jobs json seed verbose metrics trace =
    with_jobs "shard" jobs @@ fun jobs ->
    setup_logs verbose;
    with_obs metrics trace @@ fun () ->
    let params =
      {
        Service.default with
        Service.shards;
        clients;
        requests;
        keyspace;
        theta;
        mix = { Client.lookups; inserts; deletes };
        queue_cap;
        config;
        shard_heap = Units.Size.mib heap_mib;
        seed;
        crash_at;
        crash_shard;
        grow_at;
        shrink_at;
        migrate_batch;
        migrate_mode;
        lint;
        race_lint;
        broken_handoff;
      }
    in
    (* Malformed or conflicting flags, some only detectable mid-run
       (a crash aimed at a retired shard), are a usage error. *)
    refusing "shard" @@ fun () ->
    let wall0 = Unix.gettimeofday () in
    if (not sweep) && sweep_points <> None then
      refuse "shard" "--sweep-points requires --sweep"
    else if sweep then begin
      let s = Service.crash_sweep ?jobs ?points:sweep_points params in
      let wall = Unix.gettimeofday () -. wall0 in
      Fmt.pr "%a@." Service.pp_sweep s;
      Fmt.pr "wall-clock: %.2f s@." wall;
      emit_json json (Service.sweep_to_json s);
      if Service.sweep_violations s <> [] then 1 else 0
    end
    else begin
      let report = Service.run ?jobs params in
      let wall = Unix.gettimeofday () -. wall0 in
      Fmt.pr "%a@." Service.pp_report report;
      Fmt.pr "wall-clock: %.2f s (%.0f kreq/s actual)@." wall
        (if wall > 0.0 then float_of_int report.Service.served /. wall /. 1e3
         else 0.0);
      emit_json json (Service.to_json report);
      let race_errs, _ = Service.race_errors report in
      if
        report.Service.lost_acked > 0
        || report.Service.misplaced_keys > 0
        || race_errs > 0
      then 1
      else 0
    end
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Serve a sharded directory under closed-loop load, through live \
          topology changes and whole-service or single-shard power failures")
    Term.(
      const run $ shards_arg $ clients_arg $ requests_arg $ keyspace_arg
      $ theta_arg $ mix_arg $ queue_cap_arg $ config_arg $ heap_arg
      $ crash_arg $ crash_shard_arg $ grow_arg $ shrink_arg
      $ migrate_batch_arg $ migrate_mode_arg $ sweep_arg $ sweep_points_arg
      $ lint_arg $ race_lint_arg $ broken_handoff_arg
      $ jobs_arg "serving shards"
      $ json_arg
      $ seed_arg $ verbose_arg $ metrics_arg $ trace_arg)

(* --- storm ------------------------------------------------------------ *)

let storm_cmd =
  let servers_arg =
    Arg.(value & opt int 32 & info [ "servers" ] ~docv:"N" ~doc:"Fleet size (rack model).")
  in
  let state_arg =
    Arg.(value & opt int 256 & info [ "state-gib" ] ~docv:"GIB" ~doc:"State per server (GiB).")
  in
  let outage_arg =
    Arg.(
      value & opt finite_float 30.0
      & info [ "outage" ] ~docv:"SECONDS" ~doc:"Outage duration.")
  in
  let nodes_arg =
    Arg.(
      value & opt int 0
      & info [ "nodes" ] ~docv:"N"
          ~doc:"Run the fleet-scale storm over $(docv) nodes with staggered \
                PSU failures (0: the classic rack model, which refuses the \
                fleet-storm flags).")
  in
  (* Absent unless given: the rack model refuses the fleet-storm flags,
     and the fleet model takes a missing one from [default_fleet]. *)
  let fleet_arg parse name docv doc =
    Arg.(value & opt (some parse) None & info [ name ] ~docv ~doc)
  in
  let stagger_arg =
    fleet_arg finite_float "stagger" "SECONDS"
      "PSU failures land uniformly in [0, $(docv))."
  in
  let slots_arg =
    fleet_arg Arg.int "slots" "N"
      "Simultaneous back-end catch-up slots in the fleet storm."
  in
  let horizon_arg =
    fleet_arg finite_float "horizon" "SECONDS"
      "Availability observation window of the fleet storm."
  in
  let failures_arg =
    fleet_arg Arg.int "failures" "N"
      "How many nodes fail in the fleet storm: 0 for the whole fleet (the \
       classic PSU wave), $(docv) < nodes for a partial storm against a \
       fleet that keeps serving."
  in
  let spares_arg =
    fleet_arg Arg.int "spares" "N"
      "Failed machines that never come back: the first $(docv) failures \
       restore on spare nodes by pulling the dead node's whole NVRAM image \
       through a back-end slot (image-shipping failover) instead of \
       restoring from local NVDIMMs."
  in
  let json_arg =
    json_arg "Write the fleet-storm report as JSON to $(docv) ($(b,-) for stdout)."
  in
  let fleet_json (r : Wsp_cluster.Recovery_storm.fleet_result) =
    Printf.sprintf
      "{\n\
      \  \"verb\": \"storm-fleet\",\n\
      \  \"nodes\": %d,\n\
      \  \"stagger_ps\": %d,\n\
      \  \"slots\": %d,\n\
      \  \"horizon_ps\": %d,\n\
      \  \"failures\": %d,\n\
      \  \"failed_in_window\": %d,\n\
      \  \"spare_failovers\": %d,\n\
      \  \"seed\": %d,\n\
      \  \"restore_latency_ps\": { \"p50\": %d, \"p99\": %d, \"max\": %d, \
       \"mean\": %d },\n\
      \  \"availability\": %.6f,\n\
      \  \"last_online_ps\": %d\n\
       }\n"
      r.fleet.nodes (Time.to_ps r.fleet.stagger) r.fleet.restore_concurrency
      (Time.to_ps r.fleet.horizon) r.fleet.failures r.failed_in_window
      r.spare_failovers r.fleet.seed (Time.to_ps r.p50) (Time.to_ps r.p99)
      (Time.to_ps r.worst)
      (Time.to_ps r.mean) r.availability (Time.to_ps r.last_online)
  in
  let run servers state_gib outage nodes stagger slots horizon failures spares
      json seed metrics trace =
    let fleet_only =
      given_flags
        [
          (Option.is_some stagger, "--stagger");
          (Option.is_some slots, "--slots");
          (Option.is_some horizon, "--horizon");
          (Option.is_some failures, "--failures");
          (Option.is_some spares, "--spares");
          (Option.is_some json, "--json");
        ]
    in
    if nodes = 0 && fleet_only <> [] then
      refuse "storm"
        (Printf.sprintf "%s requires --nodes" (String.concat ", " fleet_only))
    else
      with_obs metrics trace @@ fun () ->
      refusing "storm" @@ fun () ->
      let open Wsp_cluster.Recovery_storm in
      let params =
        {
          default with
          servers;
          state_per_server = Units.Size.gib state_gib;
          outage = Time.s outage;
        }
      in
      (* A negative node count goes to the fleet model, which refuses it. *)
      if nodes <> 0 then begin
        let fleet =
          {
            node = params;
            nodes;
            stagger = Option.fold ~none:default_fleet.stagger ~some:Time.s stagger;
            restore_concurrency =
              Option.value slots ~default:default_fleet.restore_concurrency;
            horizon = Option.fold ~none:default_fleet.horizon ~some:Time.s horizon;
            failures = Option.value failures ~default:default_fleet.failures;
            spares = Option.value spares ~default:default_fleet.spares;
            seed;
          }
        in
        let r = storm fleet in
        Fmt.pr "%a@." pp_fleet_result r;
        emit_json json (fleet_json r)
      end
      else begin
        let r = run params in
        Fmt.pr "%a@." pp_result r
      end;
      0
  in
  Cmd.v
    (Cmd.info "storm"
       ~doc:"Model a correlated recovery storm (rack- or fleet-scale)")
    Term.(
      const run $ servers_arg $ state_arg $ outage_arg $ nodes_arg
      $ stagger_arg $ slots_arg $ horizon_arg $ failures_arg $ spares_arg
      $ json_arg $ seed_arg $ metrics_arg $ trace_arg)

let () =
  let info =
    Cmd.info "wsp-sim" ~version:"1.0.0"
      ~doc:"Whole-system persistence (ASPLOS 2012) simulator and reproduction"
  in
  let cmds =
    [
      experiment_cmd;
      list_cmd;
      cycle_cmd;
      window_cmd;
      check_cmd;
      lint_cmd;
      shard_cmd;
      storm_cmd;
    ]
  in
  let main = Cmd.group info cmds in
  (* Cmdliner's own usage errors (an unparsable value, an unknown option
     or verb) are refusals too: the first line of its report, unwrapped
     and without the "try --help" lines, under the verb's name. *)
  let err = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer err in
  Format.pp_set_margin ppf 10_000;
  let result = Cmd.eval_value ~err:ppf main in
  Format.pp_print_flush ppf ();
  exit
    (match result with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> Cmd.Exit.ok
    | Error `Exn ->
        prerr_string (Buffer.contents err);
        Cmd.Exit.internal_error
    | Error (`Parse | `Term) ->
        (* The report's first line is "wsp-sim: MESSAGE". *)
        let line = List.hd (String.split_on_char '\n' (Buffer.contents err)) in
        let skip = String.length (Cmd.name main) + 2 in
        let msg = String.sub line skip (String.length line - skip) in
        let verb =
          match Array.to_list Sys.argv with
          | _ :: v :: _ when List.exists (fun c -> Cmd.name c = v) cmds -> v
          | _ -> Cmd.name main
        in
        refuse verb msg)
