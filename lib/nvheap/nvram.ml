open Wsp_sim
module Hierarchy = Wsp_machine.Hierarchy
module Bus = Wsp_events.Bus

type fault = No_fault | Broken_fence

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
  on_slice : addr:int -> src:Bytes.t -> off:int -> len:int -> unit;
      (* [len] bytes were just written to the dirty overlay at [addr];
         they span a single line by construction and sit in [src] from
         [off]. [src] is the line's live overlay buffer: the tap copies
         what it keeps before it returns. *)
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

(* The dirty overlay maps a line number to its volatile copy through a
   paged direct index: page [line lsr page_shift], slot [line land
   page_mask]. A lookup is two array loads and a physical compare with
   [none] — no hash, no division, no option. Pages are allocated at
   their first write; until then a page is [fresh], one array shared by
   every untouched page of every NVRAM and never written. *)
let page_shift = 9
let page_mask = (1 lsl page_shift) - 1

(* The empty slot. Compared physically: no line buffer is this one. *)
let none = Bytes.create 0
let fresh : Bytes.t array = Array.make (1 lsl page_shift) none

(* The write-combining FIFO of undrained non-temporal stores, oldest
   first, kept as an address column and a packed value column so that
   queuing a word allocates nothing. [wc_lo, wc_hi) bounds the bytes
   the queued words cover, so a cached access outside the log rules
   the queue out with two compares even when a broken fence has let it
   grow without bound. *)
type wc = {
  mutable wc_addrs : int array;
  mutable wc_vals : Bytes.t;  (* 8 bytes per entry, little-endian *)
  mutable wc_n : int;
  mutable wc_lo : int;
  mutable wc_hi : int;
}

let wc_create () =
  { wc_addrs = Array.make 16 0; wc_vals = Bytes.create 128; wc_n = 0; wc_lo = 0; wc_hi = 0 }
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
  if n = 0 then begin
    wc.wc_lo <- addr;
    wc.wc_hi <- addr + 8
  end
  else begin
    if addr < wc.wc_lo then wc.wc_lo <- addr;
    if addr + 8 > wc.wc_hi then wc.wc_hi <- addr + 8
  end;
  wc.wc_n <- n + 1

(* Whether a queued word from entry [i] on has a byte in [lo, hi).
   Top-level so it allocates no closure. *)
let rec wc_hits wc lo hi i =
  i < wc.wc_n
  && (let a = wc_addr wc i in
      (a < hi && a + 8 > lo) || wc_hits wc lo hi (i + 1))

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
  pages : Bytes.t array array;  (* the dirty overlay; [fresh] until written *)
  overlay_n : int ref;
      (* Lines in the overlay. A ref for the reason [tap] is one. *)
  wc_pending : wc;
  hierarchy : Hierarchy.t;
  line_size : int;
  line_shift : int;  (* [line_size = 1 lsl line_shift] *)
  mutable clock : Time.t;
  bus : Event.t Bus.t;
  sync_bus : Event.sync Bus.t;
  metrics : Wsp_obs.Metrics.t;
  m_stores : Wsp_obs.Metrics.Counter.t;  (* cached stores *)
  mutable fault : fault;
  mutable steps_left : int;
      (* Remaining budgeted accesses; -1 = unlimited (the default). *)
  tap : tap option ref;
      (* A ref, not a mutable field: the hierarchy's write-back closure
         is built before this record exists and shares the cell. *)
}

let default_hierarchy () =
  Wsp_machine.Platform.core_hierarchy Wsp_machine.Platform.intel_c5528

(* The overlay's buffer for [line], or [none]. [line] is in range. *)
let[@inline] overlay_find pages line =
  Array.unsafe_get (Array.unsafe_get pages (line lsr page_shift)) (line land page_mask)

let create ?hierarchy ?backing ?metrics ~size () =
  let cfg = match hierarchy with Some h -> h | None -> default_hierarchy () in
  let line_shift = Hierarchy.config_line_shift cfg in
  let line_size = 1 lsl line_shift in
  let backing =
    match backing with
    | None -> Bytes.make (Units.Size.to_bytes size) '\x00'
    | Some b ->
        if Bytes.length b < Units.Size.to_bytes size then
          invalid_arg "Nvram.create: backing smaller than size";
        b
  in
  let n_lines = (Bytes.length backing + line_size - 1) lsr line_shift in
  let pages = Array.make ((n_lines + page_mask) lsr page_shift) fresh in
  let bus = Bus.create () in
  let metrics =
    match metrics with Some reg -> reg | None -> Wsp_obs.Metrics.ambient ()
  in
  let tap = ref None in
  let overlay_n = ref 0 in
  (* The hierarchy's write-back wiring both moves the dirty bytes to
     backing and surfaces the machine-level fact on the unified bus:
     silent capacity evictions and explicit flushes arrive as the same
     [Wb] event, distinguished only by [explicit]. *)
  let on_writeback ~line ~explicit =
    if Bus.active bus then Bus.publish bus (Event.Wb { line; explicit });
    if line < n_lines then begin
      let data = overlay_find pages line in
      if data != none then begin
        (match !tap with Some tp -> tp.on_wb ~line ~data | None -> ());
        Bytes.blit data 0 backing (line lsl line_shift) line_size;
        Array.unsafe_set pages.(line lsr page_shift) (line land page_mask) none;
        decr overlay_n
      end
    end
  in
  let h = Hierarchy.create ~on_writeback ~metrics cfg in
  {
    backing;
    pages;
    overlay_n;
    wc_pending = wc_create ();
    hierarchy = h;
    line_size;
    line_shift;
    clock = Time.zero;
    bus;
    sync_bus = Bus.create ();
    metrics;
    m_stores = Wsp_obs.Metrics.counter metrics "nvheap.stores";
    fault = No_fault;
    steps_left = -1;
    tap;
  }

let bus t = t.bus
let sync_bus t = t.sync_bus
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

let size t = Bytes.length t.backing
let line_size t = t.line_size
let hierarchy t = t.hierarchy
let clock t = t.clock
let reset_clock t = t.clock <- Time.zero
let charge t span = t.clock <- Time.add t.clock span

let check_range t addr len =
  if addr < 0 || len < 0 || addr + len > Bytes.length t.backing then
    invalid_arg (Fmt.str "Nvram: address range [%d,%d) out of bounds" addr (addr + len))

(* Moves each pending non-temporal word straight into backing. *)
let drain_wc t =
  wc_apply t.wc_pending t.backing;
  t.wc_pending.wc_n <- 0;
  match !(t.tap) with Some tp -> tp.on_drain () | None -> ()

(* A cached load or store is about to read lines [first, last] from
   backing. If a queued non-temporal word lies in them, the queue
   drains first, as a write-combining buffer does when a cached access
   hits its line: otherwise the access would miss the word, and a store
   would bury it under an older copy of the line. An empty queue costs
   one compare. *)
let[@inline] drain_lines t ~first ~last =
  let wc = t.wc_pending in
  if wc.wc_n > 0 then begin
    let lo = first lsl t.line_shift and hi = (last + 1) lsl t.line_shift in
    if lo < wc.wc_hi && hi > wc.wc_lo && wc_hits wc lo hi 0 then drain_wc t
  end

(* The volatile copy of [line], creating it from backing on first write. *)
let dirty_line t line =
  let data = overlay_find t.pages line in
  if data != none then data
  else begin
    drain_lines t ~first:line ~last:line;
    let data = Bytes.create t.line_size in
    Bytes.blit t.backing (line lsl t.line_shift) data 0 t.line_size;
    let p = line lsr page_shift in
    let pg = Array.unsafe_get t.pages p in
    let pg =
      if pg != fresh then pg
      else begin
        let pg = Array.make (1 lsl page_shift) none in
        Array.unsafe_set t.pages p pg;
        pg
      end
    in
    Array.unsafe_set pg (line land page_mask) data;
    incr t.overlay_n;
    data
  end

(* Copies the volatile view of [addr, addr + len) into [dst] at
   [dst_off] with one overlay lookup per line, from the line's overlay
   copy or, for a line with none, from backing. [len] must be positive.
   Pending non-temporal words are not applied: a cached read drains
   those of its lines first ([read_range]), and [peek_volatile] lays
   them over the copy. *)
let blit_volatile t ~addr ~len dst ~dst_off =
  let first = addr lsr t.line_shift and last = (addr + len - 1) lsr t.line_shift in
  for line = first to last do
    let line_start = max addr (line lsl t.line_shift) in
    let line_end = min (addr + len) ((line + 1) lsl t.line_shift) in
    let n = line_end - line_start and dst_off = dst_off + line_start - addr in
    let data = overlay_find t.pages line in
    if data != none then
      Bytes.blit data (line_start land (t.line_size - 1)) dst dst_off n
    else Bytes.blit t.backing line_start dst dst_off n
  done

(* A cached load of [addr, addr + len) into [dst] at [dst_off]: one
   hierarchy access per line the range touches, then the copy. [len]
   must be positive. *)
let read_range t ~addr ~len dst ~dst_off =
  spend_step t;
  let first = addr lsr t.line_shift and last = (addr + len - 1) lsr t.line_shift in
  for line = first to last do
    charge t (Hierarchy.load t.hierarchy ~addr:(line lsl t.line_shift))
  done;
  drain_lines t ~first ~last;
  blit_volatile t ~addr ~len dst ~dst_off

(* Writes a byte range, interleaving the hierarchy access and the data
   write per line: charging first for the whole range could evict a
   just-dirtied line of the same range before its buffer exists, losing
   the write and desynchronising the overlay from the hierarchy. *)
let write_range t ~addr src ~src_off ~len =
  spend_step t;
  Wsp_obs.Metrics.Counter.incr t.m_stores;
  if Bus.active t.bus then emit t (Store { addr; len });
  let first = addr lsr t.line_shift and last = (addr + len - 1) lsr t.line_shift in
  for line = first to last do
    charge t (Hierarchy.store t.hierarchy ~addr:(line lsl t.line_shift));
    let line_start = max addr (line lsl t.line_shift) in
    let line_end = min (addr + len) ((line + 1) lsl t.line_shift) in
    let n = line_end - line_start and off = line_start land (t.line_size - 1) in
    let data = dirty_line t line in
    Bytes.blit src (src_off + line_start - addr) data off n;
    (* Fired per line, after that line's bytes land: a later line's
       hierarchy charge can evict an earlier line of this same store,
       and the tap must see the slice before its write-back. *)
    match !(t.tap) with
    | Some tp -> tp.on_slice ~addr:line_start ~src:data ~off ~len:n
    | None -> ()
  done

let word_bytes v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  b

(* A word inside one line — every aligned word — costs one hierarchy
   access, one overlay lookup and one 8-byte load; a word straddling two
   lines takes the per-line path. Inlined into both readers, so
   [read_int] never boxes the word. *)
let[@inline] read_word t ~addr =
  check_range t addr 8;
  let off = addr land (t.line_size - 1) in
  if off + 8 <= t.line_size then begin
    spend_step t;
    charge t (Hierarchy.load t.hierarchy ~addr);
    let line = addr lsr t.line_shift in
    let data = overlay_find t.pages line in
    if data != none then Bytes.get_int64_le data off
    else begin
      drain_lines t ~first:line ~last:line;
      Bytes.get_int64_le t.backing addr
    end
  end
  else begin
    let b = Bytes.create 8 in
    read_range t ~addr ~len:8 b ~dst_off:0;
    Bytes.get_int64_le b 0
  end

let read_u64 t ~addr = read_word t ~addr
let read_int t ~addr = Int64.to_int (read_word t ~addr)

(* The one-line case of [write_range], storing the word in place. *)
let write_u64 t ~addr v =
  check_range t addr 8;
  let off = addr land (t.line_size - 1) in
  if off + 8 > t.line_size then write_range t ~addr (word_bytes v) ~src_off:0 ~len:8
  else begin
    spend_step t;
    Wsp_obs.Metrics.Counter.incr t.m_stores;
    if Bus.active t.bus then emit t (Store { addr; len = 8 });
    charge t (Hierarchy.store t.hierarchy ~addr);
    let data = dirty_line t (addr lsr t.line_shift) in
    Bytes.set_int64_le data off v;
    match !(t.tap) with
    | Some tp -> tp.on_slice ~addr ~src:data ~off ~len:8
    | None -> ()
  end

let read_bytes t ~addr ~len =
  check_range t addr len;
  let b = Bytes.create len in
  if len > 0 then read_range t ~addr ~len b ~dst_off:0;
  b

let write_bytes t ~addr src =
  let len = Bytes.length src in
  check_range t addr len;
  if len > 0 then write_range t ~addr src ~src_off:0 ~len

(* Announces and charges a non-temporal store; the caller queues it. *)
let nt_store t ~addr =
  check_range t addr 8;
  Hierarchy.count t.hierarchy Nt_store;
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

let fence t =
  Hierarchy.count t.hierarchy Fence;
  if Bus.active t.bus then emit t Fence;
  charge t (Hierarchy.fence t.hierarchy);
  (* A broken fence charges its latency but never drains the
     write-combining buffers — the deliberate-sabotage mode the
     crash-consistency checker must detect. *)
  if t.fault <> Broken_fence then drain_wc t

let pending_nt_bytes t = 8 * t.wc_pending.wc_n

let clflush t ~addr =
  check_range t addr 1;
  Hierarchy.count t.hierarchy Clflush;
  if Bus.active t.bus then emit t (Clflush { addr });
  charge t (Hierarchy.clflush t.hierarchy ~addr)

let flush_range t ~addr ~len =
  check_range t addr len;
  Hierarchy.count t.hierarchy Flush_range;
  if Bus.active t.bus then emit t (Flush_range { addr; len });
  charge t (Hierarchy.flush_lines t.hierarchy ~addr ~len)

let wbinvd t =
  Hierarchy.count t.hierarchy Wbinvd;
  if Bus.active t.bus then emit t Wbinvd;
  charge t (Hierarchy.flush_all t.hierarchy);
  (* Flushing also drains write-combining buffers. *)
  drain_wc t;
  assert (!(t.overlay_n) = 0)

let crash t =
  Hierarchy.drop_volatile t.hierarchy;
  Array.fill t.pages 0 (Array.length t.pages) fresh;
  t.overlay_n := 0;
  t.wc_pending.wc_n <- 0;
  t.clock <- Time.zero

(* [f line data] over every overlay line, in ascending line order. *)
let iter_overlay t f =
  Array.iteri
    (fun p pg ->
      if pg != fresh then
        Array.iteri
          (fun i data ->
            if data != none then f ((p lsl page_shift) lor i) data)
          pg)
    t.pages

let dirty_bytes t = Hierarchy.dirty_bytes t.hierarchy
let persistent_image t = Bytes.copy t.backing

let volatile_image t =
  let img = Bytes.copy t.backing in
  iter_overlay t (fun line data ->
      Bytes.blit data 0 img (line lsl t.line_shift) t.line_size);
  (* Write-combining data is newer than any cached line of the same
     address (a non-temporal store flushes the line first). *)
  wc_apply t.wc_pending img;
  img

let peek_u64 t ~addr = Bytes.get_int64_le t.backing addr

(* Raw-state accessors for the waypoint snapshots of the incremental
   checker: they read the three state components the tap's op log
   replays over, without charging time or publishing events. *)

let overlay_lines t =
  let acc = ref [] in
  iter_overlay t (fun line data -> acc := (line, Bytes.copy data) :: !acc);
  !acc

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
   and the pending non-temporal words inside it. Pages no write has
   touched are skipped whole, so a large range over a sparse overlay
   costs its pages, not its lines. *)
let invalidate_range t ~addr ~len =
  let first = addr lsr t.line_shift and last = (addr + len - 1) lsr t.line_shift in
  if !(t.overlay_n) > 0 then
    for p = first lsr page_shift to last lsr page_shift do
      let pg = t.pages.(p) in
      if pg != fresh then
        for line = max first (p lsl page_shift) to min last (((p + 1) lsl page_shift) - 1) do
          let i = line land page_mask in
          if pg.(i) != none then begin
            pg.(i) <- none;
            decr t.overlay_n
          end
        done
    done;
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
