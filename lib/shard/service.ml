open Wsp_sim
open Wsp_nvheap
module Bus = Wsp_events.Bus
module Metrics = Wsp_obs.Metrics
module Rules = Wsp_analysis.Rules
module Crules = Wsp_analysis.Crules
module System = Wsp_core.System
module Avl = Wsp_store.Avl

type params = {
  shards : int;
  vnodes : int;
  clients : int;
  requests : int;
  keyspace : int;
  theta : float;
  mix : Client.mix;
  queue_cap : int;
  config : Config.t;
  shard_heap : Units.Size.t;
  log_size : Units.Size.t;
  seed : int;
  crash_at : int option;
  crash_shard : int option;
  grow_at : int option;
  shrink_at : int option;
  migrate_batch : int;
  migrate_mode : [ `Drain | `Image ];
  lint : bool;
  race_lint : bool;
  broken_handoff : bool;
  record_lookups : bool;
}

let default =
  {
    shards = 16;
    vnodes = 64;
    clients = 256;
    requests = 100_000;
    keyspace = 20_000;
    theta = 0.99;
    mix = Client.default_mix;
    queue_cap = 256;
    config = Config.fof;
    shard_heap = Units.Size.mib 4;
    log_size = Units.Size.kib 256;
    seed = 42;
    crash_at = None;
    crash_shard = None;
    grow_at = None;
    shrink_at = None;
    migrate_batch = 64;
    migrate_mode = `Drain;
    lint = false;
    race_lint = false;
    broken_handoff = false;
    record_lookups = false;
  }

type restore = {
  shard : int;
  dirty_bytes : int;
  save_fits : bool;
  save_total : Time.t;
  window : Time.t;
  flush_cost : Time.t;
  restore_cost : Time.t;
  lost_acked : int;
}

type topology_change = {
  change : [ `Grow | `Shrink ];
  at_round : int;
  from_shards : int;
  to_shards : int;
  moved_fraction : float;
  mutable moved_keys : int;
  mutable migration_rounds : int;
}

type shard_stats = {
  shard : int;
  served : int;
  shed : int;
  crash_shed : int;
  lookups : int;
  hits : int;
  inserts : int;
  deletes : int;
  final_keys : int;
  migrated_in : int;
  migrated_out : int;
  retired : bool;
  downtime : Time.t;
  down_rounds : int;
  busy : Time.t;
  p50 : Time.t;
  p99 : Time.t;
  lat_max : Time.t;
  stores : int;
  flushes : int;
  fences : int;
  writebacks : int;
  tx_commits : int;
  log_appends : int;
  allocs : int;
  frees : int;
  lint_errors : int;
  lint_advisories : int;
  bus_subscribers : int;
}

type report = {
  params : params;
  issued : int;
  served : int;
  shed : int;
  crash_shed : int;
  rounds : int;
  makespan : Time.t;
  throughput_mops : float;
  availability : float;
  p50 : Time.t;
  p99 : Time.t;
  p999 : Time.t;
  lat_max : Time.t;
  lost_acked : int;
  keys_moved : int;
  migration_time : Time.t;
  mig_events : int;
  dup_resolved : int;
  images_shipped : int;
  image_bytes : int;
  image_deltas : int;
  misplaced_keys : int;
  topology : topology_change list;
  restores : restore list;
  per_shard : shard_stats list;
  checksum : int64;
  race : Rules.result option;
  lookup_results : (int * int64 option) array option;
  final_contents : (int64 * int64) array option;
}

type shard = {
  id : int;  (* stable id = ring label - 1; survives renumbering *)
  nvram : Nvram.t;
      (* Counts into a registry private to this shard, so the worker
         domain serving it writes no counter another domain writes. *)
  counts0 : Metrics.t;  (* a copy of its registry once formatted *)
  mutable heap : Pheap.t;
  mutable tree : Avl.t;
  model : (int64, int64) Hashtbl.t;  (* acknowledged writes, volatile *)
  batch : (int * Client.op) array;  (* (issue serial, op); admission queue *)
  mutable batch_len : int;
  backlog : (int * Client.op) array;  (* arrivals while powered off *)
  mutable backlog_len : int;
  mutable is_down : bool;
  mutable down_until : Time.t;  (* makespan at which restore completes *)
  mutable downtime : Time.t;
  mutable down_rounds : int;
  mutable retired : bool;  (* shrink victim, fully drained *)
  mutable served : int;
  mutable shed : int;
  mutable crash_shed : int;  (* lost to a full backlog or end-of-run *)
  mutable migrated_in : int;
  mutable migrated_out : int;
  mutable lookups : int;
  mutable hits : int;
  mutable inserts : int;
  mutable deletes : int;
  mutable lat : int array;  (* per-op simulated latency, ps *)
  mutable lat_len : int;
  mutable lint : (Rules.stream * Bus.subscription) option;
  mutable lint_errors : int;
  mutable lint_advisories : int;
  mutable lookup_log : (int * int64 option) list;  (* newest first *)
  mutable wset : (int64, unit) Hashtbl.t option;
      (* Keys written since this shard's heap image was shipped; [Some]
         only while an image migration is staging from this shard. The
         worker domain writes it, the coordinator reads it — ordered by
         the round join like all other shard state. *)
  mutable rbuf : Crules.item list;
      (* race-lint backlog, newest first: each shard's bus tap and the
         serve loop push here on the shard's own worker domain; only
         the coordinator drains, after the round join. *)
}

(* One draining source of one topology change. The queue snapshots the
   moved keys at change time; [pending] routing keeps later writes for
   those keys arriving at the source until each key's handoff lands.
   Under [`Image] migration, [staged] is the source's relocatable heap
   image restored (at a different base) on a staging node: handoffs
   read values out of the restored replica, reconciling each against
   the live source for writes that raced the ship. *)
type migration = {
  src : shard;
  topo : topology_change;
  mutable queue : int64 array;
  mutable pos : int;
  mutable staged : Avl.t option;
}

type state = {
  p : params;
  pool : Parallel.pool;  (* worker domains for the rounds' fan-outs *)
  crash : Crash.t;
      (* Runs only around migration steps, on the coordinating domain:
         the k-th event is the same at every [--jobs] width. *)
  race : Crules.stream option;  (* the cross-domain race detector *)
  mutable router : Router.t;
  mutable ring : shard array;  (* router index -> shard *)
  mutable roster : shard list;  (* every shard ever, in stable-id order *)
  mutable next_id : int;
  pending : (int64, shard) Hashtbl.t;  (* key -> shard still holding it *)
  mutable migrations : migration list;
  mutable topology : topology_change list;
  (* Unfired trigger rounds, clamped to the run's end; [None] once
     fired (or never asked for). *)
  mutable grow_due : int option;
  mutable shrink_due : int option;
  mutable crash_due : int option;
  mutable makespan : Time.t;
  mutable migration_time : Time.t;
  mutable shard_time_ps : int;  (* sum of round time x active fleet *)
  mutable downtime_ps : int;  (* sum of round time over down shards *)
  mutable restores : restore list;
  mutable issued : int;
  mutable shed : int;
  mutable crash_shed : int;
  mutable dup_resolved : int;
  mutable images_shipped : int;
  mutable image_bytes : int;
  mutable image_deltas : int;
}

let attach_lint config heap =
  let machine = Rules.default_machine ~config () in
  let nvram = Pheap.nvram heap in
  let stream =
    Rules.stream_create machine ~line_size:(Nvram.line_size nvram)
      ~alloc_base:(Pheap.heap_base heap)
      ~alloc_limit:(Pheap.heap_base heap + Pheap.heap_size heap)
  in
  Wsp_check.Trace.iter_baseline heap (Rules.stream_step stream);
  let sub = Bus.subscribe (Pheap.bus heap) (Rules.stream_step stream) in
  (stream, sub)

(* What the shard's registry counted since it was formatted, summed
   over [names]. Each event is counted there once, by the layer that
   executes it. *)
let counted sh names =
  let sum reg =
    List.fold_left
      (fun n name -> n + Metrics.Counter.value (Metrics.counter reg name))
      0 names
  in
  sum (Nvram.metrics sh.nvram) - sum sh.counts0

let make_shard p ~race id =
  let len = Units.Size.to_bytes p.shard_heap in
  let nvram =
    Nvram.create ~metrics:(Metrics.create ()) ~size:p.shard_heap ()
  in
  let heap =
    Pheap.create_in ~config:p.config ~log_size:p.log_size ~nvram ~base:0 ~len ()
  in
  let tree = Avl.create heap in
  let counts0 = Metrics.create () in
  Metrics.merge_into ~into:counts0 (Nvram.metrics nvram);
  let lint = if p.lint then Some (attach_lint p.config heap) else None in
  let sh =
    {
      id;
      nvram;
      counts0;
      heap;
      tree;
      model = Hashtbl.create 1024;
      batch = Array.make p.queue_cap (0, Client.Lookup 0L);
      batch_len = 0;
      backlog = Array.make p.queue_cap (0, Client.Lookup 0L);
      backlog_len = 0;
      is_down = false;
      down_until = Time.zero;
      downtime = Time.zero;
      down_rounds = 0;
      retired = false;
      served = 0;
      shed = 0;
      crash_shed = 0;
      migrated_in = 0;
      migrated_out = 0;
      lookups = 0;
      hits = 0;
      inserts = 0;
      deletes = 0;
      lat = Array.make 1024 0;
      lat_len = 0;
      lint;
      lint_errors = 0;
      lint_advisories = 0;
      lookup_log = [];
      wset = None;
      rbuf = [];
    }
  in
  (* Register this shard's domain with the race detector before the bus
     taps go live: the allocation baseline (the tree's root block)
     replays directly — the stream is idle on the coordinating domain
     whenever a shard is born — and only post-setup traffic buffers. *)
  (match race with
  | Some cs ->
      Crules.register cs ~domain:id heap;
      let tap item = sh.rbuf <- item :: sh.rbuf in
      ignore (Bus.subscribe (Pheap.bus heap) (fun ev -> tap (Crules.Bus ev)));
      ignore
        (Bus.subscribe (Nvram.sync_bus nvram) (fun sy -> tap (Crules.Sync sy)))
  | None -> ());
  sh

let push_lat sh v =
  if sh.lat_len = Array.length sh.lat then begin
    let bigger = Array.make (2 * Array.length sh.lat) 0 in
    Array.blit sh.lat 0 bigger 0 sh.lat_len;
    sh.lat <- bigger
  end;
  sh.lat.(sh.lat_len) <- v;
  sh.lat_len <- sh.lat_len + 1

(* ---- race-lint plumbing ------------------------------------------ *)

(* Feeding order is the happens-before model: within one shard the rbuf
   preserves program order (both bus taps dispatch synchronously);
   across shards only the coordinator's drain points order anything,
   and a [Barrier] is emitted exactly where the real code has a global
   sync — the [Parallel.pool_map] round join and a whole-service crash
   recovery. *)
let race_drain st =
  match st.race with
  | None -> ()
  | Some cs ->
      List.iter
        (fun sh ->
          match sh.rbuf with
          | [] -> ()
          | items ->
              sh.rbuf <- [];
              List.iter (Crules.step cs ~domain:sh.id) (List.rev items))
        st.roster

let race_barrier st =
  match st.race with
  | None -> ()
  | Some cs -> Crules.step cs ~domain:0 (Crules.Sync Event.Barrier)

(* Serves a shard's admitted batch in issue order; runs on the shard's
   worker domain and touches only this shard's state. Returns the
   simulated time the batch took on this shard. *)
let serve_shard p sh =
  let sync = Nvram.sync_bus sh.nvram in
  let t0 = Pheap.clock sh.heap in
  for i = 0 to sh.batch_len - 1 do
    let serial, op = sh.batch.(i) in
    let c0 = Pheap.clock sh.heap in
    (match op with
    | Client.Lookup key ->
        let r = Avl.find sh.tree key in
        if Bus.active sync then Bus.publish sync (Event.Read { obj = key });
        if Option.is_some r then sh.hits <- sh.hits + 1;
        sh.lookups <- sh.lookups + 1;
        if p.record_lookups then sh.lookup_log <- (serial, r) :: sh.lookup_log
    | Client.Insert (key, value) ->
        (* The annotation brackets the write with its ack: the Write
           lands before the transaction's commit record so the seal
           tracking can watch it settle; the Ack is the round reply. *)
        if Bus.active sync then
          Bus.publish sync (Event.Write { obj = key; addr = -1 });
        Pheap.durably sh.heap (fun () -> Avl.insert sh.tree ~key ~value);
        if Bus.active sync then Bus.publish sync (Event.Ack { obj = key });
        Hashtbl.replace sh.model key value;
        sh.inserts <- sh.inserts + 1
    | Client.Delete key ->
        if Bus.active sync then
          Bus.publish sync (Event.Write { obj = key; addr = -1 });
        let removed =
          Pheap.durably sh.heap (fun () -> Avl.delete sh.tree key)
        in
        if Bus.active sync then Bus.publish sync (Event.Ack { obj = key });
        if removed then Hashtbl.remove sh.model key;
        sh.deletes <- sh.deletes + 1);
    (* While an image ship is staging from this shard, its writes
       supersede the shipped copies. *)
    (match (sh.wset, op) with
    | Some ws, (Client.Insert (key, _) | Client.Delete key) ->
        Hashtbl.replace ws key ()
    | None, _ | Some _, Client.Lookup _ -> ());
    sh.served <- sh.served + 1;
    push_lat sh (Time.to_ps (Time.sub (Pheap.clock sh.heap) c0))
  done;
  sh.batch_len <- 0;
  Time.sub (Pheap.clock sh.heap) t0

(* The paper's Figure-4 path for one shard: price the save against the
   residual-energy window at the shard's dirty footprint, flush on
   fail, power off, re-attach the heap over the surviving NVRAM and
   re-adopt the tree through the validating [Avl.attach]. The
   acked-write audit is separate ([audit_shard]) because after a crash
   mid-migration the directory must first resolve double-owned keys. *)
let save_crash_attach p sh =
  let dirty = Nvram.dirty_bytes sh.nvram in
  let budget = System.save_budget ~dirty_bytes:dirty () in
  let f0 = Pheap.clock sh.heap in
  Pheap.wsp_flush sh.heap;
  let flush_cost = Time.sub (Pheap.clock sh.heap) f0 in
  Pheap.crash sh.heap;
  let len = Units.Size.to_bytes p.shard_heap in
  let heap =
    Pheap.attach_in ~config:p.config ~log_size:p.log_size ~nvram:sh.nvram
      ~base:0 ~len ()
  in
  let tree = Avl.attach heap in
  let restore_cost = Pheap.clock heap in
  sh.heap <- heap;
  sh.tree <- tree;
  {
    shard = sh.id;
    dirty_bytes = dirty;
    save_fits = budget.System.fits;
    save_total = budget.System.total;
    window = budget.System.window;
    flush_cost;
    restore_cost;
    lost_acked = 0;
  }

(* Compares the recovered tree against the volatile model of
   acknowledged writes, in both directions. Zero under WSP. *)
let audit_shard sh =
  let lost = ref 0 in
  Hashtbl.iter
    (fun k v ->
      match Avl.find sh.tree k with
      | Some v' when Int64.equal v v' -> ()
      | _ -> incr lost)
    sh.model;
  List.iter
    (fun (k, _) -> if not (Hashtbl.mem sh.model k) then incr lost)
    (Avl.to_list sh.tree);
  !lost

let finish_lint sh =
  match sh.lint with
  | None -> ()
  | Some (stream, sub) ->
      Bus.unsubscribe sub;
      let result = Rules.stream_finish stream in
      List.iter
        (fun d ->
          match d.Rules.severity with
          | Rules.Error -> sh.lint_errors <- sh.lint_errors + 1
          | Rules.Advisory -> sh.lint_advisories <- sh.lint_advisories + 1)
        result.Rules.diagnostics;
      sh.lint <- None

(* ---- routing and admission --------------------------------------- *)

(* The double-ownership window: a key in [pending] still lives at its
   pre-change shard, so requests chase the data, not the ring. Once its
   handoff completes the entry disappears and the ring answers. *)
let route st key =
  match Hashtbl.find_opt st.pending key with
  | Some sh -> sh
  | None -> st.ring.(Router.shard_of_key st.router key)

let admit st sh serial op =
  if sh.is_down then begin
    if sh.backlog_len < Array.length sh.backlog then begin
      sh.backlog.(sh.backlog_len) <- (serial, op);
      sh.backlog_len <- sh.backlog_len + 1
    end
    else begin
      sh.crash_shed <- sh.crash_shed + 1;
      st.crash_shed <- st.crash_shed + 1
    end
  end
  else if sh.batch_len < Array.length sh.batch then begin
    sh.batch.(sh.batch_len) <- (serial, op);
    sh.batch_len <- sh.batch_len + 1
  end
  else begin
    sh.shed <- sh.shed + 1;
    st.shed <- st.shed + 1
  end

let live st =
  List.filter (fun sh -> (not sh.retired) && not sh.is_down) st.roster

let wake sh =
  sh.is_down <- false;
  Array.blit sh.backlog 0 sh.batch 0 sh.backlog_len;
  sh.batch_len <- sh.backlog_len;
  sh.backlog_len <- 0

(* ---- migration engine -------------------------------------------- *)

(* Image shipping: the staging node restores at a different base than
   every source (sources sit at 0), so each ship exercises the full
   relocation path — base-relative root, swizzled node pointers. *)
let staging_base = 4096

(* Ships the source's heap as a relocatable image to a staging
   node: quiesce + save, serialise to wire form, validate and adopt on
   a fresh NVRAM at a different base, swizzle the tree's absolute
   pointers. The staging node has no bus subscribers, so its traffic
   costs neither migration events nor report counters — like the
   destination machine's, its work is off the source fleet's books. *)
let ship_image st m =
  let image = Image.save m.src.heap in
  let wire = Image.to_bytes image in
  let image = Image.of_bytes wire in
  let len = staging_base + Image.region_len image in
  let nvram = Nvram.create ~size:(Units.Size.bytes len) () in
  let heap =
    Image.restore_at ~config:st.p.config image ~nvram ~base:staging_base ()
  in
  let tree =
    Avl.attach_relocated heap ~delta:(staging_base - Image.src_base image)
  in
  st.images_shipped <- st.images_shipped + 1;
  st.image_bytes <- st.image_bytes + Bytes.length wire;
  m.staged <- Some tree;
  (* Post-ship client writes to still-pending keys must supersede the
     shipped copies; the serve loop records them here from now on. *)
  m.src.wset <- Some (Hashtbl.create 64)

let ensure_staged st m =
  if st.p.migrate_mode = `Image && m.staged = None then ship_image st m

(* The value a handoff moves. Draining (which never stages) reads the
   live source. A staged image is read instead — the restored, swizzled
   copy is the ground truth a real destination node would have — except
   for keys a client wrote after the ship (the pending table keeps
   routing those to the source, and [wset] records them): those take
   the live value, and each such reconciliation is counted. *)
let handoff_value st m key =
  match m.staged with
  | None -> Avl.find m.src.tree key
  | Some staged ->
      let dirty =
        match m.src.wset with
        | Some ws -> Hashtbl.mem ws key
        | None -> false
      in
      if dirty then begin
        st.image_deltas <- st.image_deltas + 1;
        Avl.find m.src.tree key
      end
      else Avl.find staged key

(* The source half of a handoff: tombstone the key, ordered behind its
   destination persist. *)
let tombstone src key =
  let sync = Nvram.sync_bus src.nvram in
  if Bus.active sync then Bus.publish sync (Event.Tombstone { obj = key });
  ignore (Pheap.durably src.heap (fun () -> Avl.delete src.tree key))

(* A landed handoff's volatile bookkeeping: the acked-write model entry
   follows the key to [dst], and the change counts one key moved. *)
let book_handoff m dst key =
  let src = m.src in
  (match Hashtbl.find_opt src.model key with
  | Some v ->
      Hashtbl.remove src.model key;
      Hashtbl.replace dst.model key v
  | None -> ());
  src.migrated_out <- src.migrated_out + 1;
  dst.migrated_in <- dst.migrated_in + 1;
  m.topo.moved_keys <- m.topo.moved_keys + 1

(* One key's failure-atomic handoff: (1) persist at the destination,
   checkpoint; (2) tombstone at the source; (3) move the volatile model
   entry and drop the routing override, checkpoint. A power failure
   between (1) and (2) leaves the key at both shards; recovery resolves
   in favour of the destination, which is why the destination must be
   persisted and fenced first. *)
let move_key st m key =
  let src = m.src in
  match handoff_value st m key with
  | None ->
      (* deleted by a client while pending; nothing to hand off *)
      Hashtbl.remove st.pending key
  | Some value ->
      let dst = st.ring.(Router.shard_of_key st.router key) in
      (* The destination observes the source's state (a cross-domain
         read the round barrier must dominate), re-writes it, and only
         its published persist licenses the source tombstone. *)
      let persist_half () =
        let sync = Nvram.sync_bus dst.nvram in
        let annotating = Bus.active sync in
        if annotating then begin
          Bus.publish sync (Event.Read { obj = key });
          Bus.publish sync (Event.Write { obj = key; addr = -1 })
        end;
        Pheap.durably dst.heap (fun () ->
            Avl.insert dst.tree ~key ~value);
        if annotating then
          Bus.publish sync (Event.Handoff_persist { obj = key });
        race_drain st
      in
      let retire_half () =
        tombstone src key;
        race_drain st
      in
      (* Sabotage: tombstone first. A power failure at the checkpoint
         between the halves holds the key nowhere — the value only
         survives in this volatile binding. *)
      let first, second =
        if st.p.broken_handoff then (retire_half, persist_half)
        else (persist_half, retire_half)
      in
      first ();
      Crash.checkpoint st.crash;
      second ();
      book_handoff m dst key;
      Hashtbl.remove st.pending key;
      Crash.checkpoint st.crash

let retire sh =
  sh.retired <- true;
  finish_lint sh

(* Drops completed migrations; a drained shrink victim (no longer on
   the ring) retires for good. *)
let settle_migrations st =
  let live, finished =
    List.partition (fun m -> m.pos < Array.length m.queue) st.migrations
  in
  st.migrations <- live;
  List.iter
    (fun m ->
      m.staged <- None;
      m.src.wset <- None;
      if (not (Array.exists (fun s -> s == m.src) st.ring)) && not m.src.retired
      then retire m.src)
    finished

(* After a whole-service power failure with migrations in flight:
   rebuild each migration from persistent ground truth. The stale
   routing overrides and queue position are volatile and gone; per
   surviving source key owned elsewhere, either the destination already
   holds it (the handoff's first half landed — tombstone the source
   copy, the destination wins) or it does not (re-pend it and migrate
   again). Every key ends owned by exactly one shard. *)
let recover_migrations st =
  List.iter
    (fun m ->
      let src = m.src in
      (* A staged image (and its write tracking) predates the failure;
         draining resumes from a freshly shipped post-recovery image. *)
      m.staged <- None;
      src.wset <- None;
      let stale =
        Hashtbl.fold
          (fun k sh acc -> if sh == src then k :: acc else acc)
          st.pending []
      in
      List.iter (fun k -> Hashtbl.remove st.pending k) stale;
      let remaining =
        List.filter_map
          (fun (k, _) ->
            let dst = st.ring.(Router.shard_of_key st.router k) in
            if dst == src then None
            else if Avl.mem dst.tree k then begin
              (* The handoff's first half landed before the failure; the
                 WSP save made it durable, so this tombstone is ordered
                 behind a published destination persist — R8-clean. *)
              tombstone src k;
              book_handoff m dst k;
              st.dup_resolved <- st.dup_resolved + 1;
              None
            end
            else begin
              Hashtbl.replace st.pending k src;
              Some k
            end)
          (Avl.to_list src.tree)
      in
      m.queue <- Array.of_list remaining;
      m.pos <- 0)
    st.migrations;
  race_drain st;
  settle_migrations st

(* Whole-service power failure: every powered shard runs the Figure-4
   save in parallel, then (on the coordinating domain) in-flight
   migrations are repaired and each shard is audited against its model
   of acknowledged writes. Synchronous, as in the original service: the
   fleet is down as one, so no availability dip is booked. *)
let crash_service st =
  let live = live st in
  let rs = Parallel.pool_map st.pool ~chunk:1 (save_crash_attach st.p) live in
  (* The fleet went down and came back as one — the restore point is a
     global sync edge, and the save's flush traffic has to reach the
     detector before recovery's tombstones are judged. *)
  race_drain st;
  race_barrier st;
  recover_migrations st;
  let rs =
    List.map2
      (fun sh (r : restore) -> { r with lost_acked = audit_shard sh })
      live rs
  in
  st.restores <- st.restores @ rs

(* Single-shard power failure: only shard [sh] runs the save/restore;
   it stays down until the fleet's simulated clock passes its restore
   time, backlogging (and beyond capacity, shedding) its arrivals while
   the other shards keep serving. Fired at a round boundary, so no
   handoff is in flight on this shard. The flush-on-fail runs on
   residual energy *during* the failure — the paper's central trick —
   so only the restore costs serving time once power returns. *)
let crash_one st sh =
  if sh.retired then
    invalid_arg "Service.run: crash_shard target already retired";
  let r = save_crash_attach st.p sh in
  (* One shard saved and restored; no global edge, just its events. *)
  race_drain st;
  let lost = audit_shard sh in
  st.restores <- st.restores @ [ { r with lost_acked = lost } ];
  sh.is_down <- true;
  sh.down_until <- Time.add st.makespan r.restore_cost

(* One bounded round of draining: up to [migrate_batch] handoffs per
   source, skipping sources that are powered off and pausing a stream
   whose next destination is powered off. Advances the service clock by
   the slowest shard's migration work — the migration traffic the
   report accounts. *)
let apply_migrations st =
  if st.migrations <> [] then begin
    let actors =
      List.filter (fun sh -> not sh.retired) st.roster
      |> List.map (fun sh -> (sh, Pheap.clock sh.heap))
    in
    let topos =
      List.fold_left
        (fun acc m ->
          if m.src.is_down || List.memq m.topo acc then acc else m.topo :: acc)
        [] st.migrations
    in
    List.iter (fun t -> t.migration_rounds <- t.migration_rounds + 1) topos;
    let drain () =
      List.iter
        (fun m ->
          if not m.src.is_down then begin
            ensure_staged st m;
            let moved = ref 0 in
            let stalled = ref false in
            while
              (not !stalled)
              && !moved < st.p.migrate_batch
              && m.pos < Array.length m.queue
            do
              let key = m.queue.(m.pos) in
              if Hashtbl.mem st.pending key then begin
                let dst = st.ring.(Router.shard_of_key st.router key) in
                if dst.is_down then stalled := true
                else begin
                  move_key st m key;
                  incr moved;
                  m.pos <- m.pos + 1
                end
              end
              else m.pos <- m.pos + 1
            done
          end)
        st.migrations
    in
    if Crash.run st.crash (List.map (fun sh -> sh.nvram) st.roster) drain = None
    then crash_service st;
    let delta =
      List.fold_left
        (fun acc (sh, c0) ->
          Time.max acc (Time.sub (Pheap.clock sh.heap) c0))
        Time.zero actors
    in
    st.makespan <- Time.add st.makespan delta;
    st.migration_time <- Time.add st.migration_time delta;
    settle_migrations st
  end

(* ---- topology changes -------------------------------------------- *)

(* Records a ring change made after [round], then snapshots the keys
   each source must give up under the already-updated ring, pends them
   so writes keep landing where the data is, and queues one migration
   per non-empty source. *)
let change_ring st change round ~from_shards ranges srcs =
  let topo =
    {
      change;
      at_round = round;
      from_shards;
      to_shards = Array.length st.ring;
      moved_fraction = Router.moved_fraction ranges;
      moved_keys = 0;
      migration_rounds = 0;
    }
  in
  st.topology <- st.topology @ [ topo ];
  let migs =
    List.filter_map
      (fun src ->
        let keys =
          List.filter_map
            (fun (k, _) ->
              if st.ring.(Router.shard_of_key st.router k) != src then begin
                Hashtbl.replace st.pending k src;
                Some k
              end
              else None)
            (Avl.to_list src.tree)
        in
        if keys = [] then None
        else
          Some { src; topo; queue = Array.of_list keys; pos = 0; staged = None })
      srcs
  in
  st.migrations <- st.migrations @ migs

let start_grow st round =
  let old_ring = st.ring in
  let router', ranges = Router.add_shard st.router in
  let id = st.next_id in
  st.next_id <- id + 1;
  let sh = make_shard st.p ~race:st.race id in
  st.roster <- st.roster @ [ sh ];
  st.router <- router';
  st.ring <- Array.append st.ring [| sh |];
  change_ring st `Grow round ~from_shards:(Array.length old_ring) ranges
    (Array.to_list old_ring)

let can_shrink st =
  Array.length st.ring > 1
  && not st.ring.(Array.length st.ring - 1).is_down

let start_shrink st round =
  let n = Array.length st.ring in
  let victim = st.ring.(n - 1) in
  let router', ranges = Router.remove_shard st.router (n - 1) in
  st.router <- router';
  st.ring <- Array.sub st.ring 0 (n - 1);
  change_ring st `Shrink round ~from_shards:n ranges [ victim ];
  (* an empty victim has nothing to drain: retire on the spot *)
  if not (List.exists (fun m -> m.src == victim) st.migrations) then
    retire victim

(* ---- reporting helpers ------------------------------------------- *)

(* The percentiles of sorted picosecond samples, rounded to the
   picosecond; zero for an empty sample. *)
let percentile_ps sorted =
  let xs = Array.map float_of_int sorted in
  fun p ->
    if Array.length xs = 0 then Time.zero
    else Time.ps (int_of_float (Float.round (Stats.percentile xs p)))

(* A shard's latency samples, sorted once: the shard's percentiles
   read them, and the service's merge them ([Runs.merge]). *)
let sorted_lat sh =
  let lat = Array.sub sh.lat 0 sh.lat_len in
  Runs.sort lat;
  lat

(* Order-sensitive digest of every shard's final contents in stable-id
   order: equal checksums across runs mean equal final key→value
   states. A retired shard is empty and contributes nothing. *)
let contents_checksum shards =
  List.fold_left
    (fun acc sh ->
      List.fold_left
        (fun acc (k, v) ->
          Router.mix64 (Int64.add (Router.mix64 (Int64.logxor acc k)) v))
        acc (Avl.to_list sh.tree))
    0x9E3779B97F4A7C15L shards

let validate p =
  if p.shards <= 0 then invalid_arg "Service.run: shards must be positive";
  if p.clients <= 0 then invalid_arg "Service.run: clients must be positive";
  if p.requests < 0 then invalid_arg "Service.run: negative request count";
  if p.queue_cap <= 0 then invalid_arg "Service.run: queue_cap must be positive";
  if p.shard_heap <= 0 then
    invalid_arg "Service.run: shard_heap must be positive";
  if p.migrate_batch <= 0 then
    invalid_arg "Service.run: migrate_batch must be positive";
  List.iter
    (fun (what, round) ->
      match round with
      | Some r when r < 0 ->
          invalid_arg ("Service.run: negative " ^ what ^ " round")
      | _ -> ())
    [ ("crash", p.crash_at); ("grow", p.grow_at); ("shrink", p.shrink_at) ];
  if p.broken_handoff && p.grow_at = None && p.shrink_at = None then
    invalid_arg "Service.run: broken_handoff needs a topology change";
  (match p.crash_shard with
  | Some k ->
      if p.crash_at = None then
        invalid_arg "Service.run: crash_shard needs crash_at";
      let total = p.shards + match p.grow_at with Some _ -> 1 | None -> 0 in
      if k < 0 || k >= total then invalid_arg "Service.run: no such shard";
      (match (p.grow_at, p.crash_at) with
      | Some g, Some c when k >= p.shards && c < g ->
          invalid_arg "Service.run: crash_shard names the grown shard before it exists"
      | _ -> ())
  | None -> ());
  match (p.shrink_at, p.grow_at) with
  | Some s, g when p.shards = 1 -> (
      match g with
      | Some gr when gr <= s -> ()
      | _ -> invalid_arg "Service.run: cannot shrink a 1-shard service")
  | _ -> ()

(* ---- the closed loop --------------------------------------------- *)

let due trigger round =
  match trigger with Some r -> r <= round | None -> false

(* Fires a due grow, else a due shrink, once no migration is in flight
   and (for a shrink) the victim is powered. True if a change began. *)
let fire_topology st round =
  if st.migrations <> [] then false
  else if due st.grow_due round then begin
    st.grow_due <- None;
    start_grow st round;
    true
  end
  else if due st.shrink_due round && can_shrink st then begin
    st.shrink_due <- None;
    start_shrink st round;
    true
  end
  else false

(* Fires a due power failure: the whole service, or [crash_shard] once
   it exists (a deferred grow may not have built it yet) and is up. *)
let fire_crash st round =
  if due st.crash_due round then
    match st.p.crash_shard with
    | None ->
        st.crash_due <- None;
        crash_service st
    | Some k -> (
        match List.find_opt (fun sh -> sh.id = k) st.roster with
        | Some sh when not sh.is_down ->
            st.crash_due <- None;
            crash_one st sh
        | Some _ | None -> ())

let setup p ~pool ~arm ~rounds =
  (* With a log to roll back, freeze; plain WSP resumes, then fails. *)
  let crash =
    Crash.create ?at:arm
      (if Config.protocol p.config = Config.Plain then Crash.Defer
       else Crash.Freeze)
  in
  let race =
    if p.race_lint then
      (* Domain ids are stable shard ids; a grow adds exactly one. *)
      let domains = p.shards + match p.grow_at with Some _ -> 1 | None -> 0 in
      Some (Crules.create (Rules.default_machine ~config:p.config ()) ~domains)
    else None
  in
  let shards0 = Array.init p.shards (fun i -> make_shard p ~race i) in
  (* A trigger at or past the last round fires once, after the run. *)
  let clamp = Option.map (fun r -> Stdlib.min r rounds) in
  {
    p;
    pool;
    crash;
    race;
    router = Router.create ~vnodes:p.vnodes ~shards:p.shards ();
    ring = shards0;
    roster = Array.to_list shards0;
    next_id = p.shards;
    pending = Hashtbl.create 1024;
    migrations = [];
    topology = [];
    grow_due = clamp p.grow_at;
    shrink_due = clamp p.shrink_at;
    crash_due = clamp p.crash_at;
    makespan = Time.zero;
    migration_time = Time.zero;
    shard_time_ps = 0;
    downtime_ps = 0;
    restores = [];
    issued = 0;
    shed = 0;
    crash_shed = 0;
    dup_resolved = 0;
    images_shipped = 0;
    image_bytes = 0;
    image_deltas = 0;
  }

(* One round: wake restored shards, admit one request per client, serve
   every live shard in parallel, book the round's time, advance the
   migrations, then fire whatever triggers are due. *)
let step st gen round =
  List.iter
    (fun sh ->
      if sh.is_down && Time.to_ps st.makespan >= Time.to_ps sh.down_until
      then wake sh)
    st.roster;
  let this_round = Stdlib.min st.p.clients (st.p.requests - st.issued) in
  for c = 0 to this_round - 1 do
    let serial = st.issued in
    let op = Client.next gen ~client:c in
    admit st (route st (Client.key op)) serial op;
    st.issued <- st.issued + 1
  done;
  let deltas =
    Parallel.pool_map st.pool ~chunk:1 (serve_shard st.p) (live st)
  in
  let delta = List.fold_left Time.max Time.zero deltas in
  st.makespan <- Time.add st.makespan delta;
  let active = List.filter (fun sh -> not sh.retired) st.roster in
  st.shard_time_ps <-
    st.shard_time_ps + (Time.to_ps delta * List.length active);
  List.iter
    (fun sh ->
      if sh.is_down then begin
        sh.downtime <- Time.add sh.downtime delta;
        sh.down_rounds <- sh.down_rounds + 1;
        st.downtime_ps <- st.downtime_ps + Time.to_ps delta
      end)
    active;
  (* [Parallel.pool_map]'s return ordered every worker's round behind
     this point — the one real happens-before edge each round has. *)
  race_drain st;
  race_barrier st;
  apply_migrations st;
  ignore (fire_topology st round);
  fire_crash st round

(* No rounds remain: a still-dark shard's backlog can never be served;
   book it as crash shed and power everything up. *)
let lights_on st =
  List.iter
    (fun sh ->
      if sh.is_down then begin
        sh.crash_shed <- sh.crash_shed + sh.backlog_len;
        st.crash_shed <- st.crash_shed + sh.backlog_len;
        sh.backlog_len <- 0;
        sh.is_down <- false
      end)
    st.roster

let drain st =
  while st.migrations <> [] do
    apply_migrations st
  done

(* After the last round every unfired trigger is due: settle the fleet,
   fire each topology change through the round step's own trigger path
   and drain it, then fire the crash. *)
let tail st rounds =
  lights_on st;
  drain st;
  while fire_topology st rounds do
    drain st
  done;
  fire_crash st rounds;
  if st.crash_due <> None then
    invalid_arg "Service.run: crash_shard never existed";
  lights_on st;
  drain st

let finish st ~rounds =
  let p = st.p in
  List.iter finish_lint st.roster;
  let race_result =
    match st.race with
    | None -> None
    | Some cs ->
        race_drain st;
        Some (Crules.finish cs)
  in
  (* Every key must sit exactly where the directory would route it;
     with [pending] drained that is the ring's answer, and a retired
     shard must be empty. *)
  let misplaced =
    List.fold_left
      (fun acc sh ->
        List.fold_left
          (fun acc (k, _) -> if route st k != sh then acc + 1 else acc)
          acc (Avl.to_list sh.tree))
      0 st.roster
  in
  let lats = List.map sorted_lat st.roster in
  let global = percentile_ps (Runs.merge lats) in
  let per_shard =
    List.map2
      (fun sh lat ->
        let pct = percentile_ps lat in
        {
          shard = sh.id;
          served = sh.served;
          shed = sh.shed;
          crash_shed = sh.crash_shed;
          lookups = sh.lookups;
          hits = sh.hits;
          inserts = sh.inserts;
          deletes = sh.deletes;
          final_keys = Hashtbl.length sh.model;
          migrated_in = sh.migrated_in;
          migrated_out = sh.migrated_out;
          retired = sh.retired;
          downtime = sh.downtime;
          down_rounds = sh.down_rounds;
          busy =
            Array.fold_left
              (fun acc v -> Time.add acc (Time.ps v))
              Time.zero lat;
          p50 = pct 50.0;
          p99 = pct 99.0;
          lat_max = pct 100.0;
          stores = counted sh [ "nvheap.stores"; "machine.flush.nt_stores" ];
          flushes =
            counted sh
              [ "machine.flush.clflush"; "machine.flush.flush_range"; "machine.flush.wbinvd" ];
          fences = counted sh [ "machine.flush.fences" ];
          writebacks =
            counted sh Wsp_machine.Hierarchy.writeback_byte_counters
            / Nvram.line_size sh.nvram;
          tx_commits = counted sh [ "nvheap.txn.commits" ];
          log_appends = counted sh [ "nvheap.log.appends" ];
          allocs = counted sh [ "nvheap.alloc.allocs" ];
          frees = counted sh [ "nvheap.alloc.frees" ];
          lint_errors = sh.lint_errors;
          lint_advisories = sh.lint_advisories;
          bus_subscribers = Bus.subscriber_count (Nvram.bus sh.nvram);
        })
      st.roster lats
  in
  let served = List.fold_left (fun n sh -> n + sh.served) 0 st.roster in
  let recorded f = if p.record_lookups then Some (f ()) else None in
  (* Issue serials are distinct non-negative ints. *)
  let lookup_results =
    recorded (fun () ->
        Runs.sort_by_key fst
          (Array.of_list (List.concat_map (fun sh -> sh.lookup_log) st.roster)))
  in
  (* Routing is by key, so keys are disjoint across shards, and each
     shard's [Avl.to_list] is already in key order: the merged runs are
     the global key order. *)
  let final_contents =
    recorded (fun () ->
        Runs.merge_by
          (fun (a, _) (b, _) -> Int64.compare a b)
          (List.map (fun sh -> Array.of_list (Avl.to_list sh.tree)) st.roster))
  in
  let makespan = st.makespan in
  {
    params = p;
    issued = st.issued;
    served;
    shed = st.shed;
    crash_shed = st.crash_shed;
    rounds;
    makespan;
    throughput_mops =
      (if Time.to_s makespan > 0.0 then
         float_of_int served /. Time.to_s makespan /. 1e6
       else 0.0);
    availability =
      (if st.shard_time_ps = 0 then 1.0
       else
         1.0
         -. (float_of_int st.downtime_ps /. float_of_int st.shard_time_ps));
    p50 = global 50.0;
    p99 = global 99.0;
    p999 = global 99.9;
    lat_max = global 100.0;
    lost_acked =
      List.fold_left (fun n (r : restore) -> n + r.lost_acked) 0 st.restores;
    keys_moved =
      List.fold_left (fun n t -> n + t.moved_keys) 0 st.topology;
    migration_time = st.migration_time;
    mig_events = Crash.events st.crash;
    dup_resolved = st.dup_resolved;
    images_shipped = st.images_shipped;
    image_bytes = st.image_bytes;
    image_deltas = st.image_deltas;
    misplaced_keys = misplaced;
    topology = st.topology;
    restores = st.restores;
    per_shard;
    checksum = contents_checksum st.roster;
    race = race_result;
    lookup_results;
    final_contents;
  }

(* [arm] injects a whole-service power failure at that migration
   memory event — the sweep's hook, kept out of [params]. *)
let simulate ?jobs ?arm p =
  validate p;
  (* Before [setup], so a bad mix or skew is refused before any shard
     heap is formatted. *)
  let gen =
    Client.create ~mix:p.mix ~theta:p.theta ~clients:p.clients
      ~keyspace:p.keyspace ~seed:p.seed ()
  in
  let rounds =
    if p.requests = 0 then 0 else (p.requests + p.clients - 1) / p.clients
  in
  Parallel.with_pool ?jobs @@ fun pool ->
  let st = setup p ~pool ~arm ~rounds in
  (* The shard registries reach the caller's ambient one only after
     [finish], whose final audit also counts; on a failed run too, so a
     refused run's metrics export keeps what it did. *)
  let fold () =
    List.iter
      (fun sh ->
        Metrics.merge_into ~into:(Metrics.ambient ()) (Nvram.metrics sh.nvram))
      st.roster
  in
  Fun.protect ~finally:fold @@ fun () ->
  for round = 0 to rounds - 1 do
    step st gen round
  done;
  tail st rounds;
  finish st ~rounds

let run ?jobs p = simulate ?jobs p

(* ---- the mid-migration crash sweep ------------------------------- *)

type sweep_point = {
  event : int;
  lost : int;
  misplaced : int;
  dups : int;
  state_ok : bool;
}

type sweep = {
  golden : report;
  total_events : int;
  points : sweep_point list;
}

let sweep_violations s =
  List.filter (fun pt -> not (pt.lost = 0 && pt.misplaced = 0 && pt.state_ok))
    s.points

(* A golden run counts the migration's memory events; then the service
   re-runs with a power failure injected at each sampled event.
   Every crash run must lose nothing, place every key uniquely, and
   converge to the golden run's exact final state and lookup answers. *)
let crash_sweep ?jobs ?(points = 64) p =
  if p.grow_at = None && p.shrink_at = None then
    invalid_arg "Service.crash_sweep: needs grow_at or shrink_at";
  if points <= 0 then invalid_arg "Service.crash_sweep: points must be positive";
  if p.lint || p.race_lint then
    invalid_arg "Service.crash_sweep: lint and race_lint verdicts are not swept";
  let p =
    {
      p with
      record_lookups = true;
      crash_at = None;
      crash_shard = None;
    }
  in
  let golden = run ?jobs p in
  let total = golden.mig_events in
  (* A sweep with nothing to inject would certify nothing. *)
  if total = 0 then
    invalid_arg "Service.crash_sweep: the migration has no persistency event";
  let chosen, _ =
    Crash.select ~rng:(Rng.create ~seed:p.seed) ~total ~budget:points
  in
  let pts =
    List.map
      (fun e ->
        let r = simulate ?jobs ~arm:e p in
        {
          event = e;
          lost = r.lost_acked;
          misplaced = r.misplaced_keys;
          dups = r.dup_resolved;
          state_ok =
            Int64.equal r.checksum golden.checksum
            && r.lookup_results = golden.lookup_results
            && r.final_contents = golden.final_contents;
        })
      chosen
  in
  { golden; total_events = total; points = pts }

(* ---- output ------------------------------------------------------- *)

(* The race verdict counts only the cross-domain rules: the embedded
   per-domain R1–R5 streams also surface in [race], but those belong to
   [--lint] and must not flip a race-lint exit code. *)
let cross_domain (d : Rules.diagnostic) =
  match d.Rules.rule with
  | Rules.R6 | Rules.R7 | Rules.R8 | Rules.R9 -> true
  | Rules.R1 | Rules.R2 | Rules.R3 | Rules.R4 | Rules.R5 | Rules.R10 -> false

let race_errors (r : report) =
  match r.race with
  | None -> (0, 0)
  | Some res ->
      List.fold_left
        (fun (e, a) (d : Rules.diagnostic) ->
          if not (cross_domain d) then (e, a)
          else
            match d.Rules.severity with
            | Rules.Error -> (e + 1, a)
            | Rules.Advisory -> (e, a + 1))
        (0, 0) res.Rules.diagnostics

let json_opt_int = function None -> "null" | Some v -> string_of_int v
(* Appends a JSON array's items, one object per line. *)
let json_items b items item =
  List.iteri
    (fun i x ->
      Buffer.add_string b (if i = 0 then "\n    " else ",\n    ");
      item x)
    items;
  if items <> [] then Buffer.add_string b "\n  "

let mode_name = function `Drain -> "drain" | `Image -> "image"
let change_name = function `Grow -> "grow" | `Shrink -> "shrink"

(* Canonical JSON: picosecond integers and fixed-precision floats only
   (never wall-clock), so equal reports are byte-identical across
   [--jobs] widths, engines and hosts. *)
let to_json r =
  let b = Buffer.create 4096 in
  let p = r.params in
  Printf.bprintf b
    "{\n\
    \  \"verb\": \"shard\",\n\
    \  \"shards\": %d,\n\
    \  \"vnodes\": %d,\n\
    \  \"clients\": %d,\n\
    \  \"requests\": %d,\n\
    \  \"keyspace\": %d,\n\
    \  \"theta\": %.4f,\n\
    \  \"queue_cap\": %d,\n\
    \  \"config\": %S,\n\
    \  \"seed\": %d,\n\
    \  \"crash_at\": %s,\n\
    \  \"crash_shard\": %s,\n\
    \  \"grow_at\": %s,\n\
    \  \"shrink_at\": %s,\n\
    \  \"migrate_batch\": %d,\n\
    \  \"migrate_mode\": %S,\n\
    \  \"issued\": %d,\n\
    \  \"served\": %d,\n\
    \  \"shed\": %d,\n\
    \  \"crash_shed\": %d,\n\
    \  \"rounds\": %d,\n\
    \  \"makespan_ps\": %d,\n\
    \  \"throughput_mops\": %.6f,\n\
    \  \"availability\": %.6f,\n\
    \  \"latency_ps\": { \"p50\": %d, \"p99\": %d, \"p999\": %d, \"max\": %d \
     },\n\
    \  \"lost_acked\": %d,\n\
    \  \"keys_moved\": %d,\n\
    \  \"bytes_moved\": %d,\n\
    \  \"migration_ps\": %d,\n\
    \  \"migration_events\": %d,\n\
    \  \"dup_resolved\": %d,\n\
    \  \"images_shipped\": %d,\n\
    \  \"image_bytes\": %d,\n\
    \  \"image_deltas\": %d,\n\
    \  \"misplaced_keys\": %d,\n\
    \  \"checksum\": \"0x%016Lx\",\n"
    p.shards p.vnodes p.clients p.requests p.keyspace p.theta p.queue_cap
    p.config.Config.name p.seed (json_opt_int p.crash_at)
    (json_opt_int p.crash_shard) (json_opt_int p.grow_at)
    (json_opt_int p.shrink_at) p.migrate_batch
    (mode_name p.migrate_mode)
    r.issued r.served r.shed
    r.crash_shed r.rounds (Time.to_ps r.makespan) r.throughput_mops
    r.availability (Time.to_ps r.p50) (Time.to_ps r.p99) (Time.to_ps r.p999)
    (Time.to_ps r.lat_max) r.lost_acked r.keys_moved (16 * r.keys_moved)
    (Time.to_ps r.migration_time) r.mig_events r.dup_resolved r.images_shipped
    r.image_bytes r.image_deltas r.misplaced_keys r.checksum;
  (match r.race with
  | None -> Buffer.add_string b "  \"race_lint\": null,\n"
  | Some res ->
      let count rule =
        List.length
          (List.filter
             (fun (d : Rules.diagnostic) -> d.Rules.rule = rule)
             res.Rules.diagnostics)
      in
      let errs, advs = race_errors r in
      Printf.bprintf b
        "  \"race_lint\": { \"errors\": %d, \"advisories\": %d, \"r6\": %d, \
         \"r7\": %d, \"r8\": %d, \"r9\": %d, \"events\": %d },\n"
        errs advs (count Rules.R6) (count Rules.R7) (count Rules.R8)
        (count Rules.R9) res.Rules.stats.Rules.events);
  Buffer.add_string b "  \"topology\": [";
  json_items b r.topology (fun (t : topology_change) ->
      Printf.bprintf b
        "{ \"change\": %S, \"at_round\": %d, \"from_shards\": %d, \
         \"to_shards\": %d, \"moved_fraction\": %.6f, \"moved_keys\": %d, \
         \"migration_rounds\": %d }"
        (change_name t.change)
        t.at_round t.from_shards t.to_shards t.moved_fraction t.moved_keys
        t.migration_rounds);
  Buffer.add_string b "],\n  \"restores\": [";
  json_items b r.restores (fun (rr : restore) ->
      Printf.bprintf b
        "{ \"shard\": %d, \"dirty_bytes\": %d, \"save_fits\": %b, \
         \"save_total_ps\": %d, \"window_ps\": %d, \"flush_ps\": %d, \
         \"restore_ps\": %d, \"lost_acked\": %d }"
        rr.shard rr.dirty_bytes rr.save_fits (Time.to_ps rr.save_total)
        (Time.to_ps rr.window) (Time.to_ps rr.flush_cost)
        (Time.to_ps rr.restore_cost) rr.lost_acked);
  Buffer.add_string b "],\n  \"per_shard\": [";
  json_items b r.per_shard (fun s ->
      Printf.bprintf b
        "{ \"shard\": %d, \"served\": %d, \"shed\": %d, \"crash_shed\": \
         %d, \"lookups\": %d, \"hits\": %d, \"inserts\": %d, \"deletes\": %d, \
         \"final_keys\": %d, \"migrated_in\": %d, \"migrated_out\": %d, \
         \"retired\": %b, \"downtime_ps\": %d, \"down_rounds\": %d, \
         \"busy_ps\": %d, \"p50_ps\": %d, \"p99_ps\": %d, \"max_ps\": %d, \
         \"stores\": %d, \"flushes\": %d, \"fences\": %d, \"writebacks\": %d, \
         \"tx_commits\": %d, \"log_appends\": %d, \"allocs\": %d, \"frees\": \
         %d, \"lint_errors\": %d, \"lint_advisories\": %d }"
        s.shard s.served s.shed s.crash_shed s.lookups s.hits s.inserts
        s.deletes s.final_keys s.migrated_in s.migrated_out s.retired
        (Time.to_ps s.downtime) s.down_rounds (Time.to_ps s.busy)
        (Time.to_ps s.p50) (Time.to_ps s.p99) (Time.to_ps s.lat_max) s.stores
        s.flushes s.fences s.writebacks s.tx_commits s.log_appends s.allocs
        s.frees s.lint_errors s.lint_advisories);
  Buffer.add_string b "]\n}\n";
  Buffer.contents b

let sweep_to_json s =
  let b = Buffer.create 1024 in
  let p = s.golden.params in
  Printf.bprintf b
    "{\n\
    \  \"verb\": \"shard-sweep\",\n\
    \  \"shards\": %d,\n\
    \  \"config\": %S,\n\
    \  \"grow_at\": %s,\n\
    \  \"shrink_at\": %s,\n\
    \  \"migrate_mode\": %S,\n\
    \  \"migration_events\": %d,\n\
    \  \"points_run\": %d,\n\
    \  \"violations\": %d,\n\
    \  \"golden_checksum\": \"0x%016Lx\",\n\
    \  \"points\": ["
    p.shards p.config.Config.name (json_opt_int p.grow_at)
    (json_opt_int p.shrink_at)
    (mode_name p.migrate_mode)
    s.total_events (List.length s.points)
    (List.length (sweep_violations s))
    s.golden.checksum;
  json_items b s.points (fun pt ->
      Printf.bprintf b
        "{ \"event\": %d, \"lost_acked\": %d, \"misplaced_keys\": %d, \
         \"dup_resolved\": %d, \"state_ok\": %b }"
        pt.event pt.lost pt.misplaced pt.dups pt.state_ok);
  Buffer.add_string b "]\n}\n";
  Buffer.contents b

let pp_report ppf r =
  let p = r.params in
  Fmt.pf ppf
    "@[<v>shard service: %d shards x %d clients, %d/%d requests served (%d \
     shed) in %d rounds@,\
     config %s, keyspace %d, theta %.2f, queue cap %d, seed %d@,\
     makespan %a simulated (%.3f Mops/s), latency p50 %a p99 %a p99.9 %a max \
     %a@]"
    p.shards p.clients r.served r.issued r.shed r.rounds p.config.Config.name
    p.keyspace p.theta p.queue_cap p.seed Time.pp r.makespan r.throughput_mops
    Time.pp r.p50 Time.pp r.p99 Time.pp r.p999 Time.pp r.lat_max;
  List.iter
    (fun (t : topology_change) ->
      Fmt.pf ppf
        "@,%s %d -> %d shards after round %d: %.2f%% of keyspace moved, %d \
         keys over %d migration rounds"
        (change_name t.change)
        t.from_shards t.to_shards t.at_round
        (100.0 *. t.moved_fraction)
        t.moved_keys t.migration_rounds)
    r.topology;
  if r.keys_moved > 0 || r.mig_events > 0 then
    Fmt.pf ppf
      "@,\
       migration: %d keys (%d bytes) handed off in %a simulated, %d \
       memory events, %d duplicate(s) resolved, %d misplaced key(s)"
      r.keys_moved (16 * r.keys_moved) Time.pp r.migration_time r.mig_events
      r.dup_resolved r.misplaced_keys;
  if r.images_shipped > 0 then
    Fmt.pf ppf
      "@,\
       image shipping: %d relocatable heap image(s), %d wire bytes, %d \
       post-ship write(s) reconciled"
      r.images_shipped r.image_bytes r.image_deltas;
  if r.restores <> [] then begin
    (match (p.crash_shard, p.crash_at) with
    | Some k, Some c ->
        Fmt.pf ppf
          "@,shard %d power failure after round %d (the rest kept serving):" k
          c
    | None, Some c -> Fmt.pf ppf "@,power failure after round %d:" c
    | _, None -> Fmt.pf ppf "@,power failure mid-migration:");
    List.iter
      (fun (rr : restore) ->
        Fmt.pf ppf
          "@,\
          \  shard %2d: %6d dirty bytes, save %a of %a window (%s), restore \
           %a, lost acked %d"
          rr.shard rr.dirty_bytes Time.pp rr.save_total Time.pp rr.window
          (if rr.save_fits then "fits" else "DOES NOT FIT")
          Time.pp rr.restore_cost rr.lost_acked)
      r.restores;
    Fmt.pf ppf "@,total acked updates lost: %d" r.lost_acked
  end;
  if p.crash_shard <> None || r.availability < 1.0 then
    Fmt.pf ppf
      "@,availability %.6f (%d request(s) crash-shed while a shard was dark)"
      r.availability r.crash_shed;
  let lint_e =
    List.fold_left (fun n (s : shard_stats) -> n + s.lint_errors) 0 r.per_shard
  in
  let lint_a =
    List.fold_left
      (fun n (s : shard_stats) -> n + s.lint_advisories)
      0 r.per_shard
  in
  if p.lint then
    Fmt.pf ppf "@,lint: %d error(s), %d advisory(ies) across %d shard buses"
      lint_e lint_a
      (List.length r.per_shard);
  match r.race with
  | None -> ()
  | Some res ->
      let errs, advs = race_errors r in
      let convicted =
        List.filter_map
          (fun (d : Rules.diagnostic) ->
            if cross_domain d && d.Rules.severity = Rules.Error then
              Some (Rules.rule_name d.Rules.rule)
            else None)
          res.Rules.diagnostics
        |> List.sort_uniq Stdlib.compare
      in
      Fmt.pf ppf
        "@,race lint: %d error(s), %d advisory(ies) over %d interleaved events%a"
        errs advs res.Rules.stats.Rules.events
        (fun ppf -> function
          | [] -> ()
          | rs -> Fmt.pf ppf " (%s)" (String.concat ", " rs))
        convicted

let pp_sweep ppf s =
  let bad = sweep_violations s in
  Fmt.pf ppf
    "@[<v>mid-migration crash sweep: %d of %d migration memory events \
     injected, %d violation(s)@]"
    (List.length s.points) s.total_events (List.length bad);
  List.iter
    (fun pt ->
      Fmt.pf ppf
        "@,\
        \  VIOLATION at event %d: lost %d, misplaced %d, dups %d, state_ok %b"
        pt.event pt.lost pt.misplaced pt.dups pt.state_ok)
    bad;
  if bad = [] then
    Fmt.pf ppf
      "@,every injected failure recovered lossless with unique ownership"
