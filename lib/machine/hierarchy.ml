open Wsp_sim
module C = Wsp_obs.Metrics.Counter

type config = {
  levels : Cache.config list;
  memory_latency : Time.t;
  memory_bandwidth : Units.Bandwidth.t;
  memory_write_bandwidth : Units.Bandwidth.t;
  nt_store_latency : Time.t;
  fence_latency : Time.t;
  clflush_issue : Time.t;
  wbinvd_line_walk : Time.t;
}

(* Metric handles resolved once at [create], so the access path only
   mutates counter records. *)
type metrics = {
  m_hits : Wsp_obs.Metrics.Counter.t;
  m_misses : Wsp_obs.Metrics.Counter.t;
  m_evictions : Wsp_obs.Metrics.Counter.t;
  m_writeback_bytes : Wsp_obs.Metrics.Counter.t;
  m_clflush : Wsp_obs.Metrics.Counter.t;
  m_clflush_bytes : Wsp_obs.Metrics.Counter.t;
  m_flush_range : Wsp_obs.Metrics.Counter.t;
  m_flush_range_bytes : Wsp_obs.Metrics.Counter.t;
  m_wbinvd : Wsp_obs.Metrics.Counter.t;
  m_wbinvd_bytes : Wsp_obs.Metrics.Counter.t;
  m_nt_stores : Wsp_obs.Metrics.Counter.t;
  m_nt_flush_bytes : Wsp_obs.Metrics.Counter.t;
  m_fences : Wsp_obs.Metrics.Counter.t;
}

type t = {
  cfg : config;
  levels : Cache.t array;  (* levels.(0) is L1; last is the LLC. *)
  cum_hit_latency : Time.t array;
      (* cum_hit_latency.(k) = sum of hit latencies of levels 0..k: the
         cost of a hit at level k, precomputed so the access path adds
         nothing per probe. *)
  miss_latency : Time.t;  (* Full probe chain plus memory latency. *)
  line_size : int;
  line_shift : int;  (* [line_size = 1 lsl line_shift] *)
  seen : (int, unit) Hashtbl.t;
      (* Scratch table reused by the dirty-line union walks; reset per
         call so dirty polls allocate no fresh table. *)
  on_writeback : line:int -> explicit:bool -> unit;
      (* Backing-store data path, fixed at creation: where dirty bytes
         go when a line leaves the hierarchy. *)
  m : metrics;
}

let config_line_size (cfg : config) =
  match cfg.levels with
  | [] -> invalid_arg "Hierarchy.create: no levels"
  | first :: _ -> first.Cache.line_size

let config_line_shift cfg =
  let line_size = config_line_size cfg in
  if line_size <= 0 || line_size land (line_size - 1) <> 0 then
    invalid_arg "Hierarchy: line size not a power of two";
  let rec go k = if 1 lsl k = line_size then k else go (k + 1) in
  go 0

let create ?(on_writeback = fun ~line:_ ~explicit:_ -> ()) ?metrics
    (cfg : config) =
  (match cfg.levels with
  | [] -> invalid_arg "Hierarchy.create: no levels"
  | first :: rest ->
      List.iter
        (fun (l : Cache.config) ->
          if l.line_size <> first.line_size then
            invalid_arg "Hierarchy.create: mismatched line sizes")
        rest);
  let line_shift = config_line_shift cfg in
  let levels = Array.of_list (List.map Cache.create cfg.levels) in
  let cum_hit_latency = Array.make (Array.length levels) Time.zero in
  let acc = ref Time.zero in
  Array.iteri
    (fun i level ->
      acc := Time.add !acc (Cache.config level).Cache.hit_latency;
      cum_hit_latency.(i) <- !acc)
    levels;
  let miss_latency = Time.add !acc cfg.memory_latency in
  let reg =
    match metrics with Some reg -> reg | None -> Wsp_obs.Metrics.ambient ()
  in
  let c = Wsp_obs.Metrics.counter reg in
  {
    cfg;
    levels;
    cum_hit_latency;
    miss_latency;
    line_size = 1 lsl line_shift;
    line_shift;
    seen = Hashtbl.create 256;
    on_writeback;
    m =
      {
        m_hits = c "machine.cache.hits";
        m_misses = c "machine.cache.misses";
        m_evictions = c "machine.cache.evictions";
        m_writeback_bytes = c "machine.cache.writeback_bytes";
        m_clflush = c "machine.flush.clflush";
        m_clflush_bytes = c "machine.flush.clflush_bytes";
        m_flush_range = c "machine.flush.flush_range";
        m_flush_range_bytes = c "machine.flush.flush_range_bytes";
        m_wbinvd = c "machine.flush.wbinvd";
        m_wbinvd_bytes = c "machine.flush.wbinvd_bytes";
        m_nt_stores = c "machine.flush.nt_stores";
        m_nt_flush_bytes = c "machine.flush.nt_flush_bytes";
        m_fences = c "machine.flush.fences";
      };
  }

let config t = t.cfg
let line_size t = t.line_size
let llc t = t.levels.(Array.length t.levels - 1)

let line_of t addr =
  assert (addr >= 0);
  addr lsr t.line_shift

(* Evicting [victim] from level [i] drops it from all upper levels too
   (back-invalidation), accumulating their dirtiness. Every eviction
   does this and every fill goes lowest level first, so inclusion is
   strict: a line resident in level [j] is resident in every level
   below it. If level [i] is the LLC the line leaves the hierarchy and
   a dirty victim is written back; otherwise level [i+1] already holds
   it and only inherits the dirty bit. [invalidate_line] and
   [resident_lines] rely on inclusion too. *)
let evict_from t i victim =
  C.incr t.m.m_evictions;
  let line = Cache.victim_line victim in
  let dirty = ref (Cache.victim_dirty victim) in
  for j = 0 to i - 1 do
    if Cache.invalidate t.levels.(j) ~line then dirty := true
  done;
  if i = Array.length t.levels - 1 then begin
    if !dirty then begin
      C.add t.m.m_writeback_bytes t.line_size;
      t.on_writeback ~line ~explicit:false
    end
  end
  else if !dirty then Cache.set_dirty t.levels.(i + 1) ~line

(* Fills [line] into levels [0..upto], lowest level first. The probe
   has just missed it at each of them, and an eviction only ever
   removes lines from upper levels, so each insert skips the presence
   lookup. *)
let fill t ~line ~upto =
  for i = upto downto 0 do
    let victim = Cache.insert_absent t.levels.(i) ~line ~dirty:false in
    if victim <> Cache.no_victim then evict_from t i victim
  done

(* Probes levels in order; the hit level's index, or -1 on a full miss.
   Top-level and index-based so the per-access path allocates nothing:
   the former probe_chain returned an (int option * Time.t) pair, paying
   a tuple and an option per load/store. *)
let rec probe_from levels line i n =
  if i >= n then -1
  else if Cache.probe (Array.unsafe_get levels i) ~line then i
  else probe_from levels line (i + 1) n

let access t ~addr ~write =
  let line = line_of t addr in
  let n = Array.length t.levels in
  let k = probe_from t.levels line 0 n in
  let latency =
    if k < 0 then begin
      C.incr t.m.m_misses;
      fill t ~line ~upto:(n - 1);
      t.miss_latency
    end
    else begin
      C.incr t.m.m_hits;
      if k > 0 then fill t ~line ~upto:(k - 1);
      Array.unsafe_get t.cum_hit_latency k
    end
  in
  if write then Cache.set_dirty t.levels.(0) ~line;
  latency

let load t ~addr = access t ~addr ~write:false
let store t ~addr = access t ~addr ~write:true

(* By inclusion a line the LLC lacks is in no level, so one LLC
   directory lookup settles the common case: a non-temporal store to an
   uncached log line. *)
let invalidate_line t line =
  if not (Cache.contains (llc t) ~line) then false
  else begin
    let dirty = ref false in
    for i = 0 to Array.length t.levels - 1 do
      if Cache.invalidate t.levels.(i) ~line then dirty := true
    done;
    !dirty
  end

type instr = Nt_store | Fence | Clflush | Flush_range | Wbinvd

let count t instr =
  C.incr
    (match instr with
    | Nt_store -> t.m.m_nt_stores
    | Fence -> t.m.m_fences
    | Clflush -> t.m.m_clflush
    | Flush_range -> t.m.m_flush_range
    | Wbinvd -> t.m.m_wbinvd)

let writeback_byte_counters =
  [
    "machine.cache.writeback_bytes";
    "machine.flush.clflush_bytes";
    "machine.flush.flush_range_bytes";
    "machine.flush.wbinvd_bytes";
    "machine.flush.nt_flush_bytes";
  ]

let store_nt t ~addr =
  let line = line_of t addr in
  (* Any cached copy is flushed first so the line's pre-existing dirty
     bytes are not lost when the caller writes directly to backing. *)
  if invalidate_line t line then begin
    C.add t.m.m_nt_flush_bytes t.line_size;
    t.on_writeback ~line ~explicit:true
  end;
  t.cfg.nt_store_latency

let fence t = t.cfg.fence_latency

let clflush t ~addr =
  let line = line_of t addr in
  let dirty = invalidate_line t line in
  if dirty then begin
    C.add t.m.m_clflush_bytes t.line_size;
    t.on_writeback ~line ~explicit:true
  end;
  let latency = t.cfg.clflush_issue in
  if dirty then
    Time.add latency
      (Units.Bandwidth.transfer_time t.cfg.memory_write_bandwidth t.line_size)
  else latency

let flush_lines t ~addr ~len =
  if len <= 0 then Time.zero
  else begin
    (* Batched bookkeeping: invalidate the whole range first, then
       charge one issue per line and a single write-back transfer for
       the dirty total, instead of a clflush round-trip per line. *)
    let first = line_of t addr and last = line_of t (addr + len - 1) in
    let dirty = ref 0 in
    for line = first to last do
      if invalidate_line t line then begin
        incr dirty;
        t.on_writeback ~line ~explicit:true
      end
    done;
    C.add t.m.m_flush_range_bytes (!dirty * t.line_size);
    let issue = Time.mul t.cfg.clflush_issue (last - first + 1) in
    if !dirty = 0 then issue
    else
      Time.add issue
        (Units.Bandwidth.transfer_time t.cfg.memory_write_bandwidth
           (!dirty * t.line_size))
  end

(* The union across levels is walked via each level's intrusive dirty
   index, O(total dirty entries); the scratch table de-duplicates lines
   dirty at several levels at once (a store dirties only L1, so L1 and
   L2 copies of one line can both be dirty). Single-level hierarchies
   skip the table entirely. *)
let iter_dirty t f =
  if Array.length t.levels = 1 then Cache.iter_dirty t.levels.(0) f
  else begin
    let seen = t.seen in
    Hashtbl.reset seen;
    Array.iter
      (fun level ->
        Cache.iter_dirty level (fun line ->
            if not (Hashtbl.mem seen line) then begin
              Hashtbl.add seen line ();
              f line
            end))
      t.levels
  end

let dirty_lines t =
  let acc = ref [] in
  iter_dirty t (fun line -> acc := line :: !acc);
  !acc

let dirty_line_count t =
  if Array.length t.levels = 1 then Cache.dirty_count t.levels.(0)
  else begin
    let n = ref 0 in
    iter_dirty t (fun _ -> incr n);
    !n
  end

let dirty_bytes t = dirty_line_count t * t.line_size

let resident_lines t =
  (* Distinct lines present anywhere; by inclusion this is the LLC count. *)
  Cache.resident_count (llc t)

let resident_at t ~level ~line = Cache.contains t.levels.(level) ~line

let total_line_slots t =
  Array.fold_left (fun acc level -> acc + Cache.line_count level) 0 t.levels

let flush_all t =
  let dirty = ref 0 in
  iter_dirty t (fun line ->
      incr dirty;
      t.on_writeback ~line ~explicit:true);
  C.add t.m.m_wbinvd_bytes (!dirty * t.line_size);
  Array.iter Cache.clear t.levels;
  let walk = Time.mul t.cfg.wbinvd_line_walk (total_line_slots t) in
  let transfer =
    Units.Bandwidth.transfer_time t.cfg.memory_write_bandwidth
      (!dirty * t.line_size)
  in
  Time.add walk transfer

let drop_volatile t = Array.iter Cache.clear t.levels
