(* Benchmark harness for the WSP simulator. perfbench/run.py draws a
   workload's parameters from its seed and passes them here; this
   program measures, checks, and prints its findings as one JSON line.

     wspbench.exe kv --shards 8 --requests 25600 ... --seconds 10 --trace 0
     wspbench.exe certify --points 512 --seed 7 --seconds 10 --trace 1
     wspbench.exe digest --shards 8 --requests 25600 ...   (self-test) *)

open Wsp_sim
module Service = Wsp_shard.Service

(* Per-layer metrics only one family of workloads produces; the other
   family reports them as zero. *)
let kv_only =
  [
    "shard.client_next_ns";
    "shard.route_ns";
    "shard.run_s";
    "shard.ladder_s";
    "shard.residual_s";
    "shard.unattributed_share";
    "shard.keys_moved";
    "txn.self_ns";
    "setup.shard_format_ms";
    "trace.overhead_s";
    "sim.mops";
    "sim.p99_ns";
    "image.bytes";
  ]
  @ List.concat_map
      (fun op ->
        List.map (fun s -> "avl." ^ op ^ s) [ "_p50_ns"; "_p99_ns"; "_count" ])
      [ "find"; "insert"; "delete" ]
  @ Kv.image_metrics @ Kv.core_metrics

let certify_only =
  [
    "check.record_ms";
    "check.cell_p50_ms";
    "check.cell_max_ms";
    "check.judge_us_per_point";
    "check.seek_us";
    "check.trace_events";
    "analysis.analyze_ns_per_event";
    "analysis.lint_s";
    "analysis.clint_s";
    "analysis.events";
  ]

(* Peak resident set of this process, in MiB. *)
let peak_rss_mb () =
  let status =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
  in
  let line =
    List.find
      (String.starts_with ~prefix:"VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

let fail msg =
  prerr_endline ("wspbench: " ^ msg);
  exit 2

(* Worker domains: the hosts this benchmark is sized for have two cores. *)
let jobs = 2

(* Set-up is repeated and its median reported. *)
let setup_reps = 21

(* Closed-loop clients per kv run, one request each per round. *)
let clients = 256

(* Admission queue and power-failure backlog per shard: every arrival of
   16 rounds. A failed shard stays dark 4-6 rounds, and a hot one takes
   more than its share of a round, so a queue of one round sheds. *)
let queue_cap = 16 * clients

let () =
  let mode = ref "" in
  let seconds = ref 10.0 and trace = ref 0 and spans_out = ref "" in
  let shards = ref 16 and requests = ref 10_000 in
  let keyspace = ref 20_000 and theta = ref 0.99 and mix = ref "70,25,5" in
  let config = ref "fof" and heap_mib = ref 4 and seed = ref 1 in
  let grow_at = ref (-1) and shrink_at = ref (-1) in
  let crash_at = ref (-1) and crash_shard = ref (-1) in
  let migrate_mode = ref "drain" and points = ref 512 in
  let specs =
    Arg.align
      [
        ("--seconds", Arg.Set_float seconds, "S measure for about S seconds");
        ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced run");
        ("--spans-out", Arg.Set_string spans_out, "FILE where the traced run writes its spans");
        ("--shards", Arg.Set_int shards, "N shards");
        ("--requests", Arg.Set_int requests, "N requests per Service.run");
        ("--keyspace", Arg.Set_int keyspace, "N distinct keys");
        ("--theta", Arg.Set_float theta, "T Zipf skew, 0 for uniform keys");
        ("--mix", Arg.Set_string mix, "L,I,D lookup/insert/delete percentages");
        ("--config", Arg.Set_string config, "NAME persistence configuration");
        ("--heap-mib", Arg.Set_int heap_mib, "N NVRAM per shard, MiB");
        ("--seed", Arg.Set_int seed, "N request-stream or checker seed");
        ("--grow-at", Arg.Set_int grow_at, "R add a shard after round R");
        ("--shrink-at", Arg.Set_int shrink_at, "R remove a shard after round R");
        ("--crash-at", Arg.Set_int crash_at, "R power failure after round R");
        ("--crash-shard", Arg.Set_int crash_shard, "K the shard that fails");
        ("--migrate-mode", Arg.Set_string migrate_mode, "drain|image");
        ("--points", Arg.Set_int points, "N crash points per checker cell");
      ]
  in
  Arg.parse specs (fun m -> mode := m) "wspbench.exe (kv|certify|digest) [options]";
  let opt r = if !r < 0 then None else Some !r in
  let kv_params () =
    let mix =
      try
        Scanf.sscanf !mix "%d,%d,%d%!" (fun lookups inserts deletes ->
            { Wsp_shard.Client.lookups; inserts; deletes })
      with Scanf.Scan_failure _ | Failure _ | End_of_file ->
        fail "--mix wants L,I,D"
    in
    let config =
      match Wsp_nvheap.Config.by_name !config with
      | Some c -> c
      | None -> fail ("unknown --config " ^ !config)
    in
    let migrate_mode =
      match !migrate_mode with
      | "drain" -> `Drain
      | "image" -> `Image
      | m -> fail ("unknown --migrate-mode " ^ m)
    in
    {
      Service.default with
      shards = !shards;
      clients;
      requests = !requests;
      keyspace = !keyspace;
      theta = !theta;
      mix;
      queue_cap;
      config;
      shard_heap = Units.Size.mib !heap_mib;
      seed = !seed;
      grow_at = opt grow_at;
      shrink_at = opt shrink_at;
      crash_at = opt crash_at;
      crash_shard = opt crash_shard;
      migrate_mode;
    }
  in
  let out = Out.create () in
  let traced = !trace = 1 in
  let spans_out = if !spans_out = "" then None else Some !spans_out in
  (match !mode with
  | "kv" ->
      let p = kv_params () in
      if traced then begin
        Rungs.run out;
        Kv.traced out p ~jobs ~spans_out;
        Out.idle out certify_only
      end
      else Kv.untimed out p ~jobs ~seconds:!seconds ~setup_reps
  | "certify" ->
      let pr = { Certify.points = !points; seed = !seed } in
      if traced then begin
        Rungs.run out;
        Certify.traced out pr ~jobs ~spans_out;
        Out.idle out kv_only
      end
      else
        Certify.untimed out pr ~jobs ~seconds:!seconds ~setup_reps
  | "digest" ->
      Kv.digest_only (kv_params ());
      exit 0
  | m -> fail ("unknown mode " ^ m));
  if not traced then Out.value out "peak_rss_mb" (peak_rss_mb ());
  Out.print out
