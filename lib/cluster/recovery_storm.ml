open Wsp_sim

type params = {
  servers : int;
  state_per_server : Units.Size.t;
  backend_bandwidth : Units.Bandwidth.t;
  update_rate_per_server : Units.Bandwidth.t;
  outage : Time.t;
  nvdimm_restore : Time.t;
  replay_factor : float;
}

let default =
  {
    servers = 32;
    state_per_server = Units.Size.gib 256;
    backend_bandwidth = Units.Bandwidth.gib_per_s 0.5;
    update_rate_per_server = Units.Bandwidth.mib_per_s 8.0;
    outage = Time.s 30.0;
    nvdimm_restore = Time.s 9.0;
    replay_factor = 1.3;
  }

let single_server = { default with servers = 1 }

type result = {
  params : params;
  full_recovery : Time.t;
  wsp_recovery : Time.t;
  speedup : float;
  backend_bytes_full : float;
  backend_bytes_wsp : float;
}

let missed_bytes p =
  Units.Bandwidth.to_bytes_per_s p.update_rate_per_server *. Time.to_s p.outage

let full_bytes p =
  float_of_int p.servers *. float_of_int (Units.Size.to_bytes p.state_per_server)

let backend_transfer p bytes =
  Time.s (bytes /. Units.Bandwidth.to_bytes_per_s p.backend_bandwidth)

(* Shared by [run] and [storm]: a negative state size or outage would
   publish negative bytes and times. *)
let check_node fn p =
  if Units.Size.to_bytes p.state_per_server < 0 then
    invalid_arg (fn ^ ": negative state_per_server");
  if Time.to_s p.outage < 0.0 then invalid_arg (fn ^ ": negative outage")

let run p =
  if p.servers <= 0 then
    invalid_arg "Recovery_storm.run: servers must be positive";
  check_node "Recovery_storm.run" p;
  let reg = Wsp_obs.Metrics.ambient () in
  Wsp_obs.Metrics.Counter.incr (Wsp_obs.Metrics.counter reg "cluster.storm.runs");
  let backend_bytes_full = full_bytes p in
  let backend_bytes_wsp = float_of_int p.servers *. missed_bytes p in
  let full_recovery =
    Time.scale (backend_transfer p backend_bytes_full) p.replay_factor
  in
  let wsp_recovery =
    Time.add p.nvdimm_restore
      (Time.scale (backend_transfer p backend_bytes_wsp) p.replay_factor)
  in
  let speedup = Time.to_s full_recovery /. Time.to_s wsp_recovery in
  Wsp_obs.Metrics.Gauge.set
    (Wsp_obs.Metrics.gauge reg "cluster.storm.speedup")
    speedup;
  { params = p; full_recovery; wsp_recovery; speedup; backend_bytes_full;
    backend_bytes_wsp }

let recovery_timeline p ~fraction mode =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "recovery_timeline: fraction out of range";
  let k = int_of_float (ceil (fraction *. float_of_int p.servers)) in
  match mode with
  | `Full ->
      (* Servers stream their checkpoints through the shared back end in
         sequence; the k-th is done after k full transfers. *)
      let per_server =
        Time.scale
          (backend_transfer p (float_of_int (Units.Size.to_bytes p.state_per_server)))
          p.replay_factor
      in
      Time.mul per_server k
  | `Wsp ->
      let per_server =
        Time.scale (backend_transfer p (missed_bytes p)) p.replay_factor
      in
      Time.add p.nvdimm_restore (Time.mul per_server k)

(* Fleet-scale storms: instead of the closed-form rack model above, an
   event-driven sweep over thousands of nodes whose PSUs do not all die
   at the same instant. Every node restores its DRAM image from local
   NVDIMMs immediately (perfectly parallel — no shared resource), then
   queues for one of [restore_concurrency] back-end slots to fetch the
   updates it missed. The slot queue is what turns a datacenter-wide
   outage into a latency *distribution* rather than a single number. *)

type fleet_params = {
  node : params;  (* per-node rates; [servers] is ignored here *)
  nodes : int;
  stagger : Time.t;
      (* PSU failures land uniformly in [0, stagger): breaker trips and
         transfer-switch ripple spread a "simultaneous" outage over
         seconds. Zero = a perfectly correlated failure. *)
  restore_concurrency : int;  (* simultaneous back-end catch-up slots *)
  horizon : Time.t;  (* observation window for availability *)
  failures : int;
      (* How many nodes fail: 0 (or >= nodes) = the whole fleet, the
         classic PSU wave; k < nodes = k nodes drawn at random fail
         while the rest keep serving — single-node failures against a
         live fleet, the WSP regime. *)
  spares : int;
      (* Failed machines that are not coming back: the first this-many
         failures (in failure order) restore on a spare node instead,
         which must pull the dead node's whole NVRAM image through a
         back-end slot (plus the missed updates) rather than restoring
         from local NVDIMMs. Zero = every node restores in place. *)
  seed : int;
}

let default_fleet =
  {
    node = default;
    nodes = 1000;
    stagger = Time.s 5.0;
    restore_concurrency = 32;
    horizon = Time.s 600.0;
    failures = 0;
    spares = 0;
    seed = 1;
  }

type fleet_result = {
  fleet : fleet_params;
  latencies : Time.t array;
      (* Per-node failure-to-back-in-service latency, node order;
         [Time.zero] for nodes that never failed. *)
  p50 : Time.t;
  p99 : Time.t;
  worst : Time.t;
  mean : Time.t;
  availability : float;
      (* 1 - Σ node downtime / (nodes × horizon), downtime clipped to
         the horizon. *)
  failed_in_window : int;
      (* Nodes whose failure landed inside the horizon; with stagger
         validated <= horizon this is every drawn failure, and the
         denominator above is honest. *)
  spare_failovers : int;  (* failures that restored on a spare node *)
  last_online : Time.t;  (* when the final node is back, from t = 0 *)
}

let storm f =
  let p = f.node in
  if f.nodes <= 0 then invalid_arg "Recovery_storm.storm: no nodes";
  check_node "Recovery_storm.storm" p;
  if f.restore_concurrency <= 0 then
    invalid_arg "Recovery_storm.storm: restore_concurrency must be positive";
  if Time.to_s f.horizon <= 0.0 then
    invalid_arg "Recovery_storm.storm: horizon must be positive";
  (* A stagger wider than the horizon would let nodes fail after the
     observation window closes, silently skewing availability toward
     1.0 — refuse it rather than publish a flattering number. *)
  if Time.to_s f.stagger < 0.0 then
    invalid_arg "Recovery_storm.storm: negative stagger";
  if Time.to_s f.stagger > Time.to_s f.horizon then
    invalid_arg "Recovery_storm.storm: stagger exceeds horizon";
  if f.failures < 0 || f.failures > f.nodes then
    invalid_arg "Recovery_storm.storm: failures out of range";
  if f.spares < 0 then invalid_arg "Recovery_storm.storm: negative spares";
  let reg = Wsp_obs.Metrics.ambient () in
  Wsp_obs.Metrics.Counter.incr
    (Wsp_obs.Metrics.counter reg "cluster.storm.fleet_runs");
  let rng = Rng.create ~seed:f.seed in
  (* Which nodes fail. The whole-fleet path draws nothing extra, so a
     given seed reproduces the exact pre-[failures] schedules. *)
  let failing =
    if f.failures = 0 || f.failures = f.nodes then
      Array.init f.nodes (fun i -> i)
    else begin
      let idx = Array.init f.nodes (fun i -> i) in
      Rng.shuffle rng idx;
      let chosen = Array.sub idx 0 f.failures in
      Array.sort Stdlib.compare chosen;
      chosen
    end
  in
  let nfail = Array.length failing in
  let fail_at = Array.make f.nodes Float.infinity in
  Array.iter
    (fun i ->
      fail_at.(i) <-
        (if Time.to_s f.stagger <= 0.0 then 0.0
         else Rng.float rng (Time.to_s f.stagger)))
    failing;
  (* Each slot is one full-rate restore stream: [backend_bandwidth] is
     per-stream, and [restore_concurrency] is how many such streams the
     back end sustains at once. Provisioning fewer slots congests the
     queue and stretches the tail; more slots genuinely add capacity. *)
  let catchup =
    p.replay_factor *. missed_bytes p
    /. Units.Bandwidth.to_bytes_per_s p.backend_bandwidth
  in
  (* A spare failover ships the dead node's whole NVRAM image through
     its slot on top of the missed updates — the image-migration cost —
     but skips the local NVDIMM restore (the spare has no image of its
     own to load). *)
  let catchup_spare =
    p.replay_factor
    *. (missed_bytes p +. float_of_int (Units.Size.to_bytes p.state_per_server))
    /. Units.Bandwidth.to_bytes_per_s p.backend_bandwidth
  in
  let local = Time.to_s p.nvdimm_restore in
  (* FIFO in failure order; ties broken by node index so the schedule
     is deterministic for a given seed. *)
  let order = Array.copy failing in
  Array.sort
    (fun a b ->
      let c = Float.compare fail_at.(a) fail_at.(b) in
      if c <> 0 then c else Stdlib.compare a b)
    order;
  let slot_free = Array.make f.restore_concurrency 0.0 in
  let latencies = Array.make f.nodes Time.zero in
  let last = ref 0.0 in
  let spare_failovers = Stdlib.min f.spares nfail in
  let rank = ref 0 in
  Array.iter
    (fun i ->
      let on_spare = !rank < spare_failovers in
      incr rank;
      (* Local NVDIMM restore runs before the node asks for a slot; a
         spare failover has no local image and goes straight to one. *)
      let ready = fail_at.(i) +. (if on_spare then 0.0 else local) in
      let slot = ref 0 in
      for s = 1 to f.restore_concurrency - 1 do
        if slot_free.(s) < slot_free.(!slot) then slot := s
      done;
      let start = Float.max ready slot_free.(!slot) in
      let finish = start +. (if on_spare then catchup_spare else catchup) in
      slot_free.(!slot) <- finish;
      latencies.(i) <- Time.s (finish -. fail_at.(i));
      if finish > !last then last := finish)
    order;
  (* Tail statistics are over the nodes that failed; a node that never
     went down has no restore latency to report. *)
  let samples = Array.map (fun i -> Time.to_s latencies.(i)) failing in
  let mean = Array.fold_left ( +. ) 0.0 samples /. float_of_int nfail in
  Array.sort Float.compare samples;
  let horizon = Time.to_s f.horizon in
  let downtime =
    Array.fold_left
      (fun acc i ->
        let d =
          Float.min horizon (fail_at.(i) +. Time.to_s latencies.(i))
          -. Float.min horizon fail_at.(i)
        in
        acc +. d)
      0.0 order
  in
  let availability = 1.0 -. (downtime /. (float_of_int f.nodes *. horizon)) in
  let failed_in_window =
    Array.fold_left
      (fun acc i -> if fail_at.(i) < horizon then acc + 1 else acc)
      0 failing
  in
  Wsp_obs.Metrics.Gauge.set
    (Wsp_obs.Metrics.gauge reg "cluster.storm.fleet_availability")
    availability;
  {
    fleet = f;
    latencies;
    p50 = Time.s (Stats.percentile samples 50.0);
    p99 = Time.s (Stats.percentile samples 99.0);
    worst = Time.s (Stats.percentile samples 100.0);
    mean = Time.s mean;
    availability;
    failed_in_window;
    spare_failovers;
    last_online = Time.s !last;
  }

let pp_fleet_result ppf r =
  Fmt.pf ppf
    "%d nodes (%d failed in-window%a), %a stagger, %d restore slots: restore \
     p50=%a p99=%a max=%a mean=%a; availability %.4f over %a; all online at %a"
    r.fleet.nodes r.failed_in_window
    (fun ppf n ->
      if n > 0 then Fmt.pf ppf ", %d restored on spares via full images" n)
    r.spare_failovers Time.pp r.fleet.stagger
    r.fleet.restore_concurrency Time.pp r.p50 Time.pp r.p99 Time.pp r.worst
    Time.pp r.mean r.availability Time.pp r.fleet.horizon Time.pp r.last_online

let pp_result ppf r =
  Fmt.pf ppf
    "%d servers x %a: full=%a wsp=%a (%.0fx); backend reads %.1f GiB vs %.3f GiB"
    r.params.servers Units.Size.pp r.params.state_per_server Time.pp
    r.full_recovery Time.pp r.wsp_recovery r.speedup
    (r.backend_bytes_full /. (1024.0 ** 3.0))
    (r.backend_bytes_wsp /. (1024.0 ** 3.0))
