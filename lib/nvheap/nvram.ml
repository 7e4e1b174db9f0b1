open Wsp_sim
module Hierarchy = Wsp_machine.Hierarchy
module Bus = Wsp_events.Bus

type fault = No_fault | Broken_fence

type tally = {
  stores : int;
  flushes : int;
  fences : int;
  writebacks : int;
  tx_commits : int;
  log_appends : int;
  allocs : int;
  frees : int;
}

(* The live counts behind {!tally}, bumped by each emitter immediately
   before its publish whether or not anyone subscribes. *)
type counts = {
  mutable stores : int;
  mutable flushes : int;
  mutable fences : int;
  mutable writebacks : int;
  mutable tx_commits : int;
  mutable log_appends : int;
  mutable allocs : int;
  mutable frees : int;
}

exception Budget_exhausted

(* The replay tap: a synchronous observer of every *data* mutation, in
   exact chronological order. The event bus cannot serve this purpose —
   events are published before the primitive mutates anything and carry
   no payload ([Store {addr; len}] has no bytes; at publish time the
   data is not in the NVRAM yet). Each callback fires at the moment its
   mutation happens, so appending the calls to a log and replaying them
   over a copy of the starting state reproduces backing, dirty-overlay
   and write-combining contents exactly. *)
type tap = {
  on_slice : addr:int -> data:Bytes.t -> unit;
      (* [data] was just written to the dirty overlay at [addr]; spans a
         single line by construction. The recorder owns [data]. *)
  on_nt : addr:int -> v:int64 -> unit;
      (* An 8-byte non-temporal store was queued. *)
  on_wb : line:int -> data:Bytes.t -> unit;
      (* [line]'s overlay buffer [data] is being written back to
         backing and dropped from the overlay. Ownership of [data]
         transfers to the tap: the overlay never reuses a removed
         buffer. *)
  on_drain : unit -> unit;
      (* The write-combining queue was flushed to backing. *)
}

(* The dirty overlay's table, keyed by line number: the line is its own
   hash, so a lookup calls neither the polymorphic hash nor the
   polymorphic compare. Iteration order is never observable — the
   overlay's lines are disjoint. *)
module Lines = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash line = line
end)

(* The write-combining FIFO of undrained non-temporal stores, oldest
   first, kept as an address column and a packed value column so that
   queuing a word allocates nothing. *)
type wc = {
  mutable wc_addrs : int array;
  mutable wc_vals : Bytes.t;  (* 8 bytes per entry, little-endian *)
  mutable wc_n : int;
}

let wc_create () = { wc_addrs = Array.make 16 0; wc_vals = Bytes.create 128; wc_n = 0 }
let wc_addr wc i = Array.unsafe_get wc.wc_addrs i
let wc_val wc i = Bytes.get_int64_le wc.wc_vals (8 * i)

let[@inline] wc_add wc addr v =
  let n = wc.wc_n in
  if n = Array.length wc.wc_addrs then begin
    let addrs = Array.make (2 * n) 0 and vals = Bytes.create (16 * n) in
    Array.blit wc.wc_addrs 0 addrs 0 n;
    Bytes.blit wc.wc_vals 0 vals 0 (8 * n);
    wc.wc_addrs <- addrs;
    wc.wc_vals <- vals
  end;
  Array.unsafe_set wc.wc_addrs n addr;
  Bytes.set_int64_le wc.wc_vals (8 * n) v;
  wc.wc_n <- n + 1

(* Writes every queued word into [dst] at its address, oldest first. *)
let wc_apply wc dst =
  for i = 0 to wc.wc_n - 1 do
    Bytes.set_int64_le dst (wc_addr wc i) (wc_val wc i)
  done

(* [wc_apply] for the window [addr, addr + len) of memory held in [dst]
   from [dst_off]: the part of each queued word inside the window. *)
let wc_patch wc ~addr ~len dst ~dst_off =
  for i = 0 to wc.wc_n - 1 do
    let a = wc_addr wc i in
    let lo = max a addr and hi = min (a + 8) (addr + len) in
    if lo < hi then
      Bytes.blit wc.wc_vals ((8 * i) + lo - a) dst (dst_off + lo - addr) (hi - lo)
  done

(* Keeps only the entries whose address satisfies [keep], in order. *)
let wc_filter wc keep =
  let j = ref 0 in
  for i = 0 to wc.wc_n - 1 do
    let a = wc_addr wc i in
    if keep a then begin
      Array.unsafe_set wc.wc_addrs !j a;
      Bytes.blit wc.wc_vals (8 * i) wc.wc_vals (8 * !j) 8;
      incr j
    end
  done;
  wc.wc_n <- !j

type t = {
  backing : Bytes.t;  (* Persistent contents: survives crash. *)
  dirty : Bytes.t Lines.t;  (* line number -> volatile line copy *)
  wc_pending : wc;
  hierarchy : Hierarchy.t;
  line_size : int;
  mutable clock : Time.t;
  bus : Event.t Bus.t;
  sync_bus : Event.sync Bus.t;
  counts : counts;
  metrics : Wsp_obs.Metrics.t;
  mutable fault : fault;
  mutable steps_left : int;
      (* Remaining budgeted accesses; -1 = unlimited (the default). *)
  tap : tap option ref;
      (* A ref, not a mutable field: the hierarchy's write-back closure
         is built before this record exists and shares the cell. *)
}

let default_hierarchy () =
  Wsp_machine.Platform.core_hierarchy Wsp_machine.Platform.intel_c5528

let create ?hierarchy ?backing ?metrics ~size () =
  let cfg = match hierarchy with Some h -> h | None -> default_hierarchy () in
  let line_size = Hierarchy.config_line_size cfg in
  let backing =
    match backing with
    | None -> Bytes.make (Units.Size.to_bytes size) '\x00'
    | Some b ->
        if Bytes.length b < Units.Size.to_bytes size then
          invalid_arg "Nvram.create: backing smaller than size";
        b
  in
  let dirty = Lines.create 1024 in
  let bus = Bus.create () in
  let counts : counts =
    {
      stores = 0;
      flushes = 0;
      fences = 0;
      writebacks = 0;
      tx_commits = 0;
      log_appends = 0;
      allocs = 0;
      frees = 0;
    }
  in
  let metrics =
    match metrics with Some reg -> reg | None -> Wsp_obs.Metrics.ambient ()
  in
  let tap = ref None in
  (* The hierarchy's write-back wiring both moves the dirty bytes to
     backing and surfaces the machine-level fact on the unified bus:
     silent capacity evictions and explicit flushes arrive as the same
     [Wb] event, distinguished only by [explicit]. *)
  let on_writeback ~line ~explicit =
    counts.writebacks <- counts.writebacks + 1;
    if Bus.active bus then Bus.publish bus (Event.Wb { line; explicit });
    match Lines.find_opt dirty line with
    | None -> ()
    | Some data ->
        (match !tap with Some tp -> tp.on_wb ~line ~data | None -> ());
        Bytes.blit data 0 backing (line * line_size) line_size;
        Lines.remove dirty line
  in
  let h = Hierarchy.create ~on_writeback ~metrics cfg in
  if Event_obs.enabled () then ignore (Event_obs.attach ~metrics bus);
  {
    backing;
    dirty;
    wc_pending = wc_create ();
    hierarchy = h;
    line_size;
    clock = Time.zero;
    bus;
    sync_bus = Bus.create ();
    counts;
    metrics;
    fault = No_fault;
    steps_left = -1;
    tap;
  }

let bus t = t.bus
let sync_bus t = t.sync_bus
let tally t : tally =
  let c = t.counts in
  {
    stores = c.stores;
    flushes = c.flushes;
    fences = c.fences;
    writebacks = c.writebacks;
    tx_commits = c.tx_commits;
    log_appends = c.log_appends;
    allocs = c.allocs;
    frees = c.frees;
  }

let count_tx_commit t = t.counts.tx_commits <- t.counts.tx_commits + 1
let count_log_append t = t.counts.log_appends <- t.counts.log_appends + 1
let count_alloc t = t.counts.allocs <- t.counts.allocs + 1
let count_free t = t.counts.frees <- t.counts.frees + 1
let metrics t = t.metrics
let set_fault t fault = t.fault <- fault
let fault t = t.fault

let set_step_budget t = function
  | None -> t.steps_left <- -1
  | Some n ->
      if n < 0 then invalid_arg "Nvram.set_step_budget: negative budget";
      t.steps_left <- n

(* One branch on the unlimited path; a walk over a cyclic corrupt
   structure performs unbounded reads, so metering accesses bounds every
   recovery/oracle traversal without the structures cooperating. *)
let spend_step t =
  if t.steps_left >= 0 then begin
    if t.steps_left = 0 then raise Budget_exhausted;
    t.steps_left <- t.steps_left - 1
  end

let set_tap t tp =
  (match (tp, !(t.tap)) with
  | Some _, Some _ -> invalid_arg "Nvram.set_tap: a tap is already attached"
  | _ -> ());
  t.tap := tp

(* Published before the primitive mutates anything, so a subscriber that
   raises models a power failure between the preceding store and this
   one. Callers test [Bus.active] first, so an unobserved primitive
   builds no event. *)
let emit t (ev : Event.mem) = Bus.publish t.bus (Event.Mem ev)

let count_store t = t.counts.stores <- t.counts.stores + 1
let count_flush t = t.counts.flushes <- t.counts.flushes + 1

let size t = Bytes.length t.backing
let line_size t = t.line_size
let hierarchy t = t.hierarchy
let clock t = t.clock
let reset_clock t = t.clock <- Time.zero
let charge t span = t.clock <- Time.add t.clock span

let check_range t addr len =
  if addr < 0 || len < 0 || addr + len > Bytes.length t.backing then
    invalid_arg (Fmt.str "Nvram: address range [%d,%d) out of bounds" addr (addr + len))

(* The volatile copy of [line], creating it from backing on first write. *)
let dirty_line t line =
  match Lines.find_opt t.dirty line with
  | Some data -> data
  | None ->
      let data = Bytes.create t.line_size in
      Bytes.blit t.backing (line * t.line_size) data 0 t.line_size;
      Lines.add t.dirty line data;
      data

(* Copies the volatile view of [addr, addr + len) into [dst] at
   [dst_off] with one overlay lookup per line, from the line's overlay
   copy or, for a line with none, from backing. [len] must be positive.
   Pending non-temporal words are not applied. *)
let blit_volatile t ~addr ~len dst ~dst_off =
  let first = addr / t.line_size and last = (addr + len - 1) / t.line_size in
  for line = first to last do
    let line_start = max addr (line * t.line_size) in
    let line_end = min (addr + len) ((line + 1) * t.line_size) in
    let n = line_end - line_start and dst_off = dst_off + line_start - addr in
    match Lines.find_opt t.dirty line with
    | Some data -> Bytes.blit data (line_start mod t.line_size) dst dst_off n
    | None -> Bytes.blit t.backing line_start dst dst_off n
  done

(* Charges one hierarchy access per line the range touches. *)
let charge_access t ~addr ~len ~write =
  spend_step t;
  let first = addr / t.line_size and last = (addr + len - 1) / t.line_size in
  for line = first to last do
    let latency =
      if write then Hierarchy.store t.hierarchy ~addr:(line * t.line_size)
      else Hierarchy.load t.hierarchy ~addr:(line * t.line_size)
    in
    charge t latency
  done

(* Writes a byte range, interleaving the hierarchy access and the data
   write per line: charging first for the whole range could evict a
   just-dirtied line of the same range before its buffer exists, losing
   the write and desynchronising the dirty table from the hierarchy. *)
let write_range t ~addr src ~src_off ~len =
  spend_step t;
  count_store t;
  if Bus.active t.bus then emit t (Store { addr; len });
  let first = addr / t.line_size and last = (addr + len - 1) / t.line_size in
  for line = first to last do
    charge t (Hierarchy.store t.hierarchy ~addr:(line * t.line_size));
    let line_start = max addr (line * t.line_size) in
    let line_end = min (addr + len) ((line + 1) * t.line_size) in
    let n = line_end - line_start and src_pos = src_off + line_start - addr in
    Bytes.blit src src_pos (dirty_line t line) (line_start mod t.line_size) n;
    (* Fired per line, after that line's bytes land: a later line's
       hierarchy charge can evict an earlier line of this same store,
       and the tap must see the slice before its write-back. *)
    match !(t.tap) with
    | Some tp -> tp.on_slice ~addr:line_start ~data:(Bytes.sub src src_pos n)
    | None -> ()
  done

let word_bytes v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  b

(* A word inside one line — every aligned word — costs one overlay
   lookup and one 8-byte load; a word straddling two lines takes the
   per-line path. Inlined into both readers, so [read_int] never boxes
   the word. *)
let[@inline] read_word t ~addr =
  check_range t addr 8;
  charge_access t ~addr ~len:8 ~write:false;
  let off = addr mod t.line_size in
  if off + 8 <= t.line_size then
    match Lines.find_opt t.dirty (addr / t.line_size) with
    | Some data -> Bytes.get_int64_le data off
    | None -> Bytes.get_int64_le t.backing addr
  else begin
    let b = Bytes.create 8 in
    blit_volatile t ~addr ~len:8 b ~dst_off:0;
    Bytes.get_int64_le b 0
  end

let read_u64 t ~addr = read_word t ~addr
let read_int t ~addr = Int64.to_int (read_word t ~addr)

(* The one-line case of [write_range], storing the word in place. *)
let write_u64 t ~addr v =
  check_range t addr 8;
  let off = addr mod t.line_size in
  if off + 8 > t.line_size then write_range t ~addr (word_bytes v) ~src_off:0 ~len:8
  else begin
    spend_step t;
    count_store t;
    if Bus.active t.bus then emit t (Store { addr; len = 8 });
    let line = addr / t.line_size in
    charge t (Hierarchy.store t.hierarchy ~addr:(line * t.line_size));
    Bytes.set_int64_le (dirty_line t line) off v;
    match !(t.tap) with
    | Some tp -> tp.on_slice ~addr ~data:(word_bytes v)
    | None -> ()
  end

let read_bytes t ~addr ~len =
  check_range t addr len;
  let b = Bytes.create len in
  if len > 0 then begin
    charge_access t ~addr ~len ~write:false;
    blit_volatile t ~addr ~len b ~dst_off:0
  end;
  b

let write_bytes t ~addr src =
  let len = Bytes.length src in
  check_range t addr len;
  if len > 0 then write_range t ~addr src ~src_off:0 ~len

(* Announces and charges a non-temporal store; the caller queues it. *)
let nt_store t ~addr =
  check_range t addr 8;
  count_store t;
  if Bus.active t.bus then emit t (Store_nt { addr });
  charge t (Hierarchy.store_nt t.hierarchy ~addr)

let write_u64_nt t ~addr v =
  nt_store t ~addr;
  wc_add t.wc_pending addr v;
  match !(t.tap) with Some tp -> tp.on_nt ~addr ~v | None -> ()

let write_int_nt t ~addr w =
  nt_store t ~addr;
  wc_add t.wc_pending addr (Int64.of_int w);
  match !(t.tap) with Some tp -> tp.on_nt ~addr ~v:(Int64.of_int w) | None -> ()

(* Moves each pending non-temporal word straight into backing. *)
let drain_wc t =
  wc_apply t.wc_pending t.backing;
  t.wc_pending.wc_n <- 0;
  match !(t.tap) with Some tp -> tp.on_drain () | None -> ()

let fence t =
  t.counts.fences <- t.counts.fences + 1;
  if Bus.active t.bus then emit t Fence;
  charge t (Hierarchy.fence t.hierarchy);
  (* A broken fence charges its latency but never drains the
     write-combining buffers — the deliberate-sabotage mode the
     crash-consistency checker must detect. *)
  if t.fault <> Broken_fence then drain_wc t

let pending_nt_bytes t = 8 * t.wc_pending.wc_n

let clflush t ~addr =
  check_range t addr 1;
  count_flush t;
  if Bus.active t.bus then emit t (Clflush { addr });
  charge t (Hierarchy.clflush t.hierarchy ~addr)

let flush_range t ~addr ~len =
  check_range t addr len;
  count_flush t;
  if Bus.active t.bus then emit t (Flush_range { addr; len });
  charge t (Hierarchy.flush_lines t.hierarchy ~addr ~len)

let wbinvd t =
  count_flush t;
  if Bus.active t.bus then emit t Wbinvd;
  charge t (Hierarchy.flush_all t.hierarchy);
  (* Flushing also drains write-combining buffers. *)
  drain_wc t;
  assert (Lines.length t.dirty = 0)

let crash t =
  Hierarchy.drop_volatile t.hierarchy;
  Lines.reset t.dirty;
  t.wc_pending.wc_n <- 0;
  t.clock <- Time.zero

let dirty_bytes t = Hierarchy.dirty_bytes t.hierarchy
let persistent_image t = Bytes.copy t.backing

let volatile_image t =
  let img = Bytes.copy t.backing in
  Lines.iter
    (fun line data -> Bytes.blit data 0 img (line * t.line_size) t.line_size)
    t.dirty;
  (* Write-combining data is newer than any cached line of the same
     address (a non-temporal store flushes the line first). *)
  wc_apply t.wc_pending img;
  img

let peek_u64 t ~addr = Bytes.get_int64_le t.backing addr

(* Raw-state accessors for the waypoint snapshots of the incremental
   checker: they read the three state components the tap's op log
   replays over, without charging time or publishing events. *)

let overlay_lines t =
  Lines.fold (fun line data acc -> (line, Bytes.copy data) :: acc) t.dirty []

let pending_nt t =
  let wc = t.wc_pending in
  List.init wc.wc_n (fun i -> (wc_addr wc i, wc_val wc i))

let blit_backing t ~addr ~len dst ~dst_off =
  check_range t addr len;
  Bytes.blit t.backing addr dst dst_off len

let peek_volatile t ~addr ~len dst ~dst_off =
  check_range t addr len;
  if len > 0 then begin
    blit_volatile t ~addr ~len dst ~dst_off;
    wc_patch t.wc_pending ~addr ~len dst ~dst_off
  end

(* Drops, without writing back, the cached state a DMA-style load into
   [addr, addr + len) makes stale: the overlay lines the range touches
   and the pending non-temporal words inside it. The overlay is probed
   line by line or walked whole, whichever is shorter, so a large range
   over a sparse overlay costs the overlay's size, not the range's. *)
let invalidate_range t ~addr ~len =
  let first = addr / t.line_size and last = (addr + len - 1) / t.line_size in
  let cached = Lines.length t.dirty in
  if last - first < cached then
    for line = first to last do
      Lines.remove t.dirty line
    done
  else if cached > 0 then
    Lines.filter_map_inplace
      (fun line data -> if line < first || line > last then Some data else None)
      t.dirty;
  wc_filter t.wc_pending (fun a -> a < addr || a >= addr + len)

let load_backing t ~addr src =
  let len = Bytes.length src in
  check_range t addr len;
  if len > 0 then begin
    Bytes.blit src 0 t.backing addr len;
    invalidate_range t ~addr ~len
  end

let clear_backing t ~addr ~len =
  check_range t addr len;
  if len > 0 then begin
    Bytes.fill t.backing addr len '\x00';
    invalidate_range t ~addr ~len
  end
