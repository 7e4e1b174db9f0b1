(* The sharded-service workloads. The untimed run measures Service.run
   end to end. The traced run replays the same request stream through
   the layers one public call at a time — client, router, transaction,
   AVL tree — so each layer's self time can be read off its spans, and
   times the image-shipping and power-failure steps on a heap of the
   workload's size. *)

open Wsp_sim
open Wsp_nvheap
module Service = Wsp_shard.Service
module Client = Wsp_shard.Client
module Router = Wsp_shard.Router
module Avl = Wsp_store.Avl
module System = Wsp_core.System
module Metrics = Wsp_obs.Metrics

(* Equal digests mean equal simulated outcomes: final contents,
   makespan, tail latency and every shard's persistency-event counts. *)
let digest (r : Service.report) =
  String.concat ";"
    (Printf.sprintf "%Lx/%d/%d/%d" r.checksum (Time.to_ps r.makespan)
       (Time.to_ps r.p99) r.served
    :: List.map
         (fun (s : Service.shard_stats) ->
           Printf.sprintf "%d:%d/%d/%d/%d/%d/%d/%d" s.shard s.served s.stores
             s.flushes s.fences s.tx_commits s.log_appends s.allocs)
         r.per_shard)

(* Shed and crash-shed requests are failed operations; a lost
   acknowledged write or a misplaced key fails a check. *)
let audit out (r : Service.report) =
  Out.ops out ~attempted:r.issued ~failed:(r.shed + r.crash_shed);
  Out.check out "kv.lost_acked_zero" (r.lost_acked = 0);
  Out.check out "kv.misplaced_zero" (r.misplaced_keys = 0);
  Out.check out "kv.accounted" (r.served + r.shed + r.crash_shed = r.issued)

let ships_images (p : Service.params) =
  p.migrate_mode = `Image && (p.grow_at <> None || p.shrink_at <> None)

let untimed out (p : Service.params) ~jobs ~seconds ~setup_reps =
  (* Shards are formatted inside Service.run, so set-up is a
     zero-request run with the same parameters. *)
  for _ = 1 to setup_reps do
    Gc.full_major ();
    let _, s =
      Span.timed (fun () -> Service.run ~jobs { p with requests = 0 })
    in
    Out.sample out "setup_s" s
  done;
  (* One untimed pass, so heap growth is paid before timing starts. *)
  audit out (Service.run ~jobs p);
  let t0 = Span.now () in
  let rec loop first n =
    let r, s = Span.timed (fun () -> Service.run ~jobs p) in
    audit out r;
    Out.sample out "ops_per_s" (float_of_int r.served /. s);
    let first =
      match first with
      | None -> r
      | Some r0 ->
          Out.check out "kv.digest_repeats" (digest r0 = digest r);
          r0
    in
    if n < 3 || Span.seconds_since t0 < seconds then loop (Some first) (n + 1)
    else first
  in
  let r = loop None 1 in
  Out.value out "sim_mops" r.throughput_mops;
  Out.value out "sim_p99_ns" (Time.to_ns r.p99);
  if ships_images p then begin
    let d = Service.run ~jobs { p with migrate_mode = `Drain } in
    audit out d;
    Out.check out "kv.image_checksum_eq_drain"
      (Int64.equal d.checksum r.checksum)
  end

(* ---- the traced run ---------------------------------------------- *)

(* Service.run wraps each write in a transaction exactly when the
   configuration logs, runs STM, or uses the msync backend. *)
let transactional (c : Config.t) =
  c.logging <> Config.No_log || c.stm || c.backend = Config.Msync

type shard = { heap : Pheap.t; tree : Avl.t }

(* The workload's own client stream, in the service's issue order,
   routed and served on per-shard heaps of the workload's config. With
   [spans] every call into a layer is recorded; without, the same calls
   run bare, and the difference is the tracing overhead. *)
let ladder spans (p : Service.params) =
  let sp name =
    let id = Span.intern name in
    match spans with
    | Some t -> fun ~req f -> Span.record t id ~req f
    | None -> fun ~req:_ f -> f ()
  in
  let mkfs = sp "setup.format" and next = sp "shard.client_next" in
  let route = sp "shard.route" and txn = sp "txn.with_tx" in
  let find = sp "avl.find" and insert = sp "avl.insert" in
  let delete = sp "avl.delete" in
  let tx = transactional p.config in
  let len = Units.Size.to_bytes p.shard_heap in
  let shards =
    Array.init p.shards (fun _ ->
        mkfs ~req:(-1) (fun () ->
            let nvram = Nvram.create ~size:p.shard_heap () in
            let heap =
              Pheap.create_in ~config:p.config ~log_size:p.log_size ~nvram
                ~base:0 ~len ()
            in
            { heap; tree = Avl.create heap }))
  in
  let router = Router.create ~vnodes:p.vnodes ~shards:p.shards () in
  let gen =
    Client.create ~mix:p.mix ~theta:p.theta ~clients:p.clients
      ~keyspace:p.keyspace ~seed:p.seed ()
  in
  let write sh ~req f =
    if tx then txn ~req (fun () -> Pheap.with_tx sh.heap f) else f ()
  in
  let issued = ref 0 in
  while !issued < p.requests do
    let n = min p.clients (p.requests - !issued) in
    for c = 0 to n - 1 do
      let req = !issued + c in
      let op = next ~req (fun () -> Client.next gen ~client:c) in
      let sh =
        shards.(route ~req (fun () ->
                    Router.shard_of_key router (Client.key op)))
      in
      match op with
      | Client.Lookup key -> ignore (find ~req (fun () -> Avl.find sh.tree key))
      | Client.Insert (key, value) ->
          write sh ~req (fun () ->
              insert ~req (fun () -> Avl.insert sh.tree ~key ~value))
      | Client.Delete key ->
          write sh ~req (fun () ->
              ignore (delete ~req (fun () -> Avl.delete sh.tree key)))
    done;
    issued := !issued + n
  done;
  shards

let ladder_spans =
  [
    "setup.format";
    "shard.client_next";
    "shard.route";
    "txn.with_tx";
    "avl.find";
    "avl.insert";
    "avl.delete";
  ]

(* Keys are routed, so shards are disjoint and the merged contents sort
   into one key order: the surface Service.run exposes as
   [final_contents]. *)
let contents shards =
  let all =
    Array.concat
      (Array.to_list
         (Array.map (fun s -> Array.of_list (Avl.to_list s.tree)) shards))
  in
  Array.sort (fun (a, _) (b, _) -> Int64.compare a b) all;
  all

let machine_counters =
  [
    ("machine.hits_per_op", "machine.cache.hits");
    ("machine.misses_per_op", "machine.cache.misses");
    ("machine.evictions_per_op", "machine.cache.evictions");
    ("machine.clflush_per_op", "machine.flush.clflush");
    ("machine.fences_per_op", "machine.flush.fences");
  ]

let image_steps = [ "save"; "encode"; "decode"; "restore"; "swizzle" ]

let image_metrics =
  List.map (fun s -> "image." ^ s ^ "_ms") image_steps
  @ [ "image.mb_per_s"; "image.evictions" ]

let core_metrics =
  [ "core.save_budget_us"; "core.wsp_flush_ms"; "core.recover_ms" ]

(* The service restores shipped images away from the source's base, so
   every ship relocates; the rung does the same. *)
let staging_base = 4096

(* One image ship, step by step, from a shard heap of this workload. *)
let image_rungs out (p : Service.params) src =
  let want = Avl.to_list src.tree in
  let times = Hashtbl.create 8 in
  let step name f =
    let v, s = Span.timed f in
    Hashtbl.replace times name
      (s :: Option.value (Hashtbl.find_opt times name) ~default:[]);
    v
  in
  let reps = 3 in
  let wire_bytes = ref 0 and evictions = ref 0 in
  for _ = 1 to reps do
    Metrics.reset_all ();
    let image = step "save" (fun () -> Image.save src.heap) in
    let wire = step "encode" (fun () -> Image.to_bytes image) in
    let image = step "decode" (fun () -> Image.of_bytes wire) in
    let heap =
      step "restore" (fun () ->
          let size = Units.Size.bytes (staging_base + Image.region_len image) in
          let nvram = Nvram.create ~size () in
          Image.restore_at ~config:p.config image ~nvram ~base:staging_base ())
    in
    let tree =
      step "swizzle" (fun () ->
          Avl.attach_relocated heap ~delta:(staging_base - Image.src_base image))
    in
    evictions :=
      !evictions
      + Metrics.Counter.value
          (Metrics.counter (Metrics.merged ()) "machine.cache.evictions");
    wire_bytes := Bytes.length wire;
    Out.check out "image.roundtrip_contents" (Avl.to_list tree = want)
  done;
  let med name = Out.median (Hashtbl.find times name) in
  List.iter
    (fun s -> Out.value out ("image." ^ s ^ "_ms") (med s *. 1e3))
    image_steps;
  let total = List.fold_left (fun acc s -> acc +. med s) 0.0 image_steps in
  Out.value out "image.mb_per_s"
    (Out.ratio (float_of_int !wire_bytes) total /. 1e6);
  Out.value out "image.evictions" (float_of_int !evictions /. float_of_int reps)

(* The Figure-4 path on the same heap: price the save, flush on fail,
   lose power, re-attach and recover the tree. *)
let core_rungs out (p : Service.params) src =
  let want = Avl.to_list src.tree in
  let dirty_bytes = Pheap.dirty_bytes src.heap in
  let n = 10_000 in
  let (), budget_s =
    Span.timed (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (System.save_budget ~dirty_bytes ()))
        done)
  in
  let (), flush_s = Span.timed (fun () -> Pheap.wsp_flush src.heap) in
  Pheap.crash src.heap;
  let tree, recover_s =
    Span.timed (fun () ->
        Avl.attach
          (Pheap.attach_in ~config:p.config ~log_size:p.log_size
             ~nvram:(Pheap.nvram src.heap) ~base:0
             ~len:(Units.Size.to_bytes p.shard_heap) ()))
  in
  Out.check out "core.recovered_contents" (Avl.to_list tree = want);
  Out.value out "core.save_budget_us" (budget_s /. float_of_int n *. 1e6);
  Out.value out "core.wsp_flush_ms" (flush_s *. 1e3);
  Out.value out "core.recover_ms" (recover_s *. 1e3)

let traced out (p : Service.params) ~jobs ~spans_out =
  (* One domain first: exact machine counters, and the wall the
     single-threaded ladder is compared with. *)
  Metrics.reset_all ();
  let g0 = Gc.quick_stat () in
  let r1, run_s = Span.timed (fun () -> Service.run ~jobs:1 p) in
  let g1 = Gc.quick_stat () in
  let m = Metrics.merged () in
  audit out r1;
  let cpu0 = Sys.time () in
  let r2, run2_s = Span.timed (fun () -> Service.run ~jobs p) in
  let cpu = Sys.time () -. cpu0 in
  audit out r2;
  Out.check out "kv.digest_j1_eq_j2" (digest r1 = digest r2);
  let rf = Service.run ~jobs { p with record_lookups = true } in
  audit out rf;
  let _, bare_s = Span.timed (fun () -> ladder None p) in
  let spans = Span.create () in
  let shards, traced_s = Span.timed (fun () -> ladder (Some spans) p) in
  Out.check out "kv.ladder_contents_eq_service"
    (Some (contents shards) = rf.final_contents);
  let served = float_of_int r1.served in
  let per_op x = Out.ratio (float_of_int x) served in
  let counter name = Metrics.Counter.value (Metrics.counter m name) in
  List.iter
    (fun (name, c) -> Out.value out name (per_op (counter c)))
    machine_counters;
  let total f =
    List.fold_left (fun acc (s : Service.shard_stats) -> acc + f s) 0 r1.per_shard
  in
  let commits = total (fun s -> s.tx_commits) in
  Out.value out "nvram.stores_per_op" (per_op (total (fun s -> s.stores)));
  Out.value out "nvram.flushes_per_op" (per_op (total (fun s -> s.flushes)));
  Out.value out "txn.commits" (float_of_int commits);
  Out.value out "log.appends_per_commit"
    (Out.ratio
       (float_of_int (total (fun s -> s.log_appends)))
       (float_of_int commits));
  Out.value out "alloc.allocs_per_op" (per_op (total (fun s -> s.allocs)));
  Out.value out "sim.mops" r1.throughput_mops;
  Out.value out "sim.p99_ns" (Time.to_ns r1.p99);
  let summaries = List.map (fun n -> (n, Span.summary spans n)) ladder_spans in
  let get n = List.assoc n summaries in
  let mean_self (x : Span.summary) =
    Out.ratio (float_of_int x.self_ns) (float_of_int x.calls)
  in
  Out.value out "shard.client_next_ns" (mean_self (get "shard.client_next"));
  Out.value out "shard.route_ns" (mean_self (get "shard.route"));
  Out.value out "txn.self_ns" (mean_self (get "txn.with_tx"));
  List.iter
    (fun op ->
      let x = get ("avl." ^ op) in
      let pct q = float_of_int (Span.percentile x.durations q) in
      Out.value out ("avl." ^ op ^ "_p50_ns") (pct 50.0);
      Out.value out ("avl." ^ op ^ "_p99_ns") (pct 99.0);
      Out.value out ("avl." ^ op ^ "_count") (float_of_int x.calls))
    [ "find"; "insert"; "delete" ];
  (* The ladder's self times plus the residual add up to the service's
     wall by construction; the residual is the work the ladder does not
     do: admission, bookkeeping, migration, restores and joins. *)
  let ladder_ns =
    List.fold_left (fun acc (_, (x : Span.summary)) -> acc + x.self_ns) 0 summaries
  in
  let ladder_s = float_of_int ladder_ns /. 1e9 in
  let residual = run_s -. ladder_s in
  Out.value out "shard.run_s" run_s;
  Out.value out "shard.ladder_s" ladder_s;
  Out.value out "shard.residual_s" residual;
  Out.value out "shard.unattributed_share" (Out.ratio residual run_s);
  Out.value out "shard.keys_moved" (float_of_int r1.keys_moved);
  Out.value out "setup.shard_format_ms"
    (float_of_int (get "setup.format").self_ns /. 1e6);
  Out.value out "parallel.speedup_j2" (Out.ratio run_s run2_s);
  Out.value out "cpu_util" (Out.ratio cpu run2_s);
  Out.value out "gc.minor_words_per_op"
    (Out.ratio (g1.minor_words -. g0.minor_words) served);
  Out.value out "gc.major_collections"
    (float_of_int (g1.major_collections - g0.major_collections));
  Out.value out "trace.overhead_s" (traced_s -. bare_s);
  Out.value out "trace.spans" (float_of_int (Span.count spans));
  Out.value out "trace.shard_spans"
    (float_of_int (Span.count_prefix spans "shard."));
  Out.value out "image.bytes" (float_of_int r1.image_bytes);
  let fullest =
    Array.fold_left
      (fun a b -> if Avl.size b.tree > Avl.size a.tree then b else a)
      shards.(0) shards
  in
  if ships_images p then image_rungs out p fullest
  else Out.idle out image_metrics;
  if p.crash_at <> None then core_rungs out p fullest
  else Out.idle out core_metrics;
  Option.iter (Span.write_csv spans) spans_out

(* Self-test support: the simulated digest at one and two worker
   domains, and a hash of the first requests of the client stream. *)
let digest_only (p : Service.params) =
  let r1 = Service.run ~jobs:1 p in
  let r2 = Service.run ~jobs:2 p in
  let gen =
    Client.create ~mix:p.mix ~theta:p.theta ~clients:p.clients
      ~keyspace:p.keyspace ~seed:p.seed ()
  in
  let acc = ref 0L in
  for i = 0 to 4095 do
    let op = Client.next gen ~client:(i mod p.clients) in
    let v =
      match op with
      | Client.Lookup _ -> 1L
      | Client.Insert (_, v) -> v
      | Client.Delete _ -> 2L
    in
    acc := Router.mix64 (Int64.add (Int64.logxor !acc (Client.key op)) v)
  done;
  Printf.printf "{\"digest\":%S,\"digest_j2\":%S,\"stream\":\"%Lx\"}\n%!"
    (digest r1) (digest r2) !acc
