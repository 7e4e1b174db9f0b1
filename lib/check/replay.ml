(* Golden-run recording and incremental crash-state reconstruction.

   The checker's old loop re-executed the workload from scratch for
   every crash point — O(points × trace). This module records ONE
   complete execution through the {!Wsp_nvheap.Nvram.tap} (every data
   mutation, in chronological order) and rebuilds the machine state at
   any crash point by replaying only mutation ops, never the workload:
   stores, hierarchy charges, oracles and model bookkeeping all happen
   once.

   State model. The NVRAM's observable data state is exactly three
   components: the persistent backing bytes, the volatile dirty-line
   overlay, and the write-combining queue. Every primitive's effect on
   them arrives on the tap as one of four ops (Slice / Nt / Wb / Drain),
   so replaying the op prefix recorded before memory event [p]
   reproduces the state a power failure at point [p] would see —
   events are published before their primitive mutates anything.

   Flat buffers. The recording is columns, not a list of boxed ops: an
   int code per op (tag in the low two bits, address or line above),
   the offset of its payload, and one byte arena holding every payload
   (a Slice's bytes, an Nt word, a Wb line). Columns grow by doubling,
   so recording allocates per op only when a column fills, and the GC
   never scans a payload.

   Waypoints. A cursor replays forward in O(delta). To land a cursor
   mid-trace (parallel chunks each judge a contiguous point range)
   without replaying from zero, the recorder snapshots the state every
   [stride] crash points, copy-on-write style: only the backing lines
   written back since the previous waypoint are saved, and the overlay
   whole. The WC queue is not copied: it is the Nt ops since the last
   Drain, so a waypoint stores that Drain's op index. Restoring = base
   image + touched-line deltas up to the chosen waypoint + the waypoint's
   overlay and queue + forward replay of at most [stride] points' worth
   of ops. *)

module Nvram = Wsp_nvheap.Nvram
module Event = Wsp_nvheap.Event

(* Op tags, in the low two bits of an op's code. The rest of the code
   is the address (Slice, Nt), the line (Wb) or zero (Drain). *)
let tag_slice = 0 (* overlay write, within one line *)
let tag_nt = 1 (* WC-queue append of one 8-byte word *)
let tag_wb = 2 (* overlay line -> backing *)
let tag_drain = 3 (* WC queue -> backing, FIFO *)

(* A growable int column. *)
module Ints = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    Array.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let contents t = Array.sub t.a 0 t.n
end

(* A set of line numbers that empties in O(1): [lines] lists them, and
   [at] holds the epoch each line was last added in, so a line is
   listed once per epoch. *)
module Line_set = struct
  type t = { at : int array; mutable epoch : int; lines : Ints.t }

  let create n_lines = { at = Array.make n_lines (-1); epoch = 0; lines = Ints.create () }

  (* Whether [line] was absent. *)
  let add t line =
    Array.unsafe_get t.at line <> t.epoch
    && begin
         t.at.(line) <- t.epoch;
         Ints.push t.lines line;
         true
       end

  let clear t =
    t.epoch <- t.epoch + 1;
    t.lines.n <- 0
end

(* A growable byte arena. *)
module Arena = struct
  type t = { mutable b : Bytes.t; mutable n : int }

  let create () = { b = Bytes.create 4096; n = 0 }

  (* Room for [len] more bytes; returns their offset. *)
  let reserve t len =
    let need = t.n + len in
    if need > Bytes.length t.b then begin
      let b = Bytes.create (max need (2 * Bytes.length t.b)) in
      Bytes.blit t.b 0 b 0 t.n;
      t.b <- b
    end;
    let off = t.n in
    t.n <- need;
    off

  let add t src off len = Bytes.blit src off t.b (reserve t len) len
  let add_int64 t v = Bytes.set_int64_le t.b (reserve t 8) v
  let contents t = Bytes.sub t.b 0 t.n
end

type waypoint = {
  wp_op : int;  (* ops applied when this waypoint was taken *)
  wp_lines : int array;
      (* Backing lines written since the previous waypoint, ascending. *)
  wp_data : Bytes.t;  (* their contents at waypoint time, in that order *)
  wp_overlay : int array;  (* dirty-overlay lines, ascending *)
  wp_overlay_data : Bytes.t;  (* their contents, in that order *)
  wp_drain : int;
      (* The last Drain op before [wp_op], or -1: the WC queue is the
         recording's base queue, if no Drain came yet, then the Nt ops
         after this one. *)
}

type 'a t = {
  code : int array;  (* per op: (address or line) lsl 2 lor tag *)
  off : int array;  (* op [i]'s payload is arena [off.(i), off.(i+1)) *)
  arena : Bytes.t;
  op_at_mark : int array;  (* ops recorded strictly before mark [i] *)
  info : 'a array;  (* caller's annotation captured at mark [i] *)
  base_backing : Bytes.t;
  base : waypoint;  (* the state at op 0, without [wp_lines] *)
  base_wc : (int * int64) list;
  waypoints : waypoint array;  (* wp_op ascending *)
  size : int;
  line_size : int;
}

let marks t = Array.length t.op_at_mark
let info t ~mark = t.info.(mark)
let tag t i = Array.unsafe_get t.code i land 3
let arg t i = Array.unsafe_get t.code i asr 2

(* The value of Nt op [i]. *)
let nt_value t i = Bytes.get_int64_le t.arena t.off.(i)

(* --- recording ------------------------------------------------------- *)

(* The dirty overlay as two flat columns, ascending. *)
let snapshot_overlay nvram =
  let lines = Ints.create () and data = Arena.create () in
  Nvram.iter_overlay nvram (fun line buf ->
      Ints.push lines line;
      Arena.add data buf 0 (Bytes.length buf));
  (Ints.contents lines, Arena.contents data)

let record ~nvram ?(stride = 256) ~info:info_of run =
  let ls = Nvram.line_size nvram in
  let size = Nvram.size nvram in
  let code = Ints.create () and offs = Ints.create () and arena = Arena.create () in
  let push c =
    Ints.push code c;
    Ints.push offs arena.n
  in
  (* Backing lines written since the last waypoint. *)
  let touched = Line_set.create ((size + ls - 1) / ls) in
  let touch line = ignore (Line_set.add touched line) in
  let touch_word addr =
    touch (addr / ls);
    touch ((addr + 7) / ls)
  in
  let base_wc = Nvram.pending_nt nvram in
  let last_drain = ref (-1) in
  let tap =
    Nvram.
      {
        on_slice =
          (fun ~addr ~src ~off ~len ->
            push ((addr lsl 2) lor tag_slice);
            Arena.add arena src off len);
        on_nt =
          (fun ~addr ~v ->
            push ((addr lsl 2) lor tag_nt);
            Arena.add_int64 arena v);
        on_wb =
          (fun ~line ~data ->
            touch line;
            push ((line lsl 2) lor tag_wb);
            Arena.add arena data 0 ls);
        on_drain =
          (fun () ->
            (* The queue being drained is the Nt ops since the last
               Drain (and the base queue, before the first). *)
            if !last_drain < 0 then List.iter (fun (addr, _) -> touch_word addr) base_wc;
            for i = !last_drain + 1 to code.n - 1 do
              let c = Array.unsafe_get code.a i in
              if c land 3 = tag_nt then touch_word (c asr 2)
            done;
            last_drain := code.n;
            push tag_drain);
      }
  in
  let base_backing = Nvram.persistent_image nvram in
  let base =
    let wp_overlay, wp_overlay_data = snapshot_overlay nvram in
    { wp_op = 0; wp_lines = [||]; wp_data = Bytes.empty; wp_overlay; wp_overlay_data; wp_drain = -1 }
  in
  let marks = Ints.create () in
  let infos = ref [||] in
  let waypoints = ref [] in
  let take_waypoint () =
    let lines = Ints.contents touched.lines in
    Array.sort Int.compare lines;
    Line_set.clear touched;
    let data = Bytes.create (Array.length lines * ls) in
    Array.iteri
      (fun i line ->
        Nvram.blit_backing nvram ~addr:(line * ls) ~len:ls data ~dst_off:(i * ls))
      lines;
    let wp_overlay, wp_overlay_data = snapshot_overlay nvram in
    waypoints :=
      { wp_op = code.n; wp_lines = lines; wp_data = data; wp_overlay; wp_overlay_data; wp_drain = !last_drain }
      :: !waypoints
  in
  let sub =
    Wsp_events.Bus.subscribe (Nvram.bus nvram) (function
      | Event.Mem _ ->
          let i = marks.n in
          let x = info_of () in
          if i = Array.length !infos then begin
            let a = Array.make (max 256 (2 * i)) x in
            Array.blit !infos 0 a 0 i;
            infos := a
          end;
          Array.unsafe_set !infos i x;
          Ints.push marks code.n;
          if stride > 0 && marks.n mod stride = 0 then take_waypoint ()
      | Event.Log _ | Event.Tx _ | Event.Wb _ | Event.Heap _ -> ())
  in
  Nvram.set_tap nvram (Some tap);
  Fun.protect
    ~finally:(fun () ->
      Nvram.set_tap nvram None;
      Wsp_events.Bus.unsubscribe sub)
    run;
  Ints.push offs arena.n (* where the last op's payload ends *);
  {
    code = Ints.contents code;
    off = Ints.contents offs;
    arena = Arena.contents arena;
    op_at_mark = Ints.contents marks;
    info = Array.sub !infos 0 marks.n;
    base_backing;
    base;
    base_wc;
    waypoints = Array.of_list (List.rev !waypoints);
    size;
    line_size = ls;
  }

(* --- crash states ---------------------------------------------------- *)

(* A machine over a state's own backing, for judging in place, with
   the backing lines it has changed in its current use and their bytes
   from before it, in the same order. *)
type judge = {
  j_nvram : Nvram.t;
  j_hierarchy : Wsp_machine.Hierarchy.config option;  (* as given *)
  j_tap : Nvram.tap;
  j_saved : Line_set.t;
  j_saved_data : Arena.t;
}

type state = {
  backing : Bytes.t;
  overlay : (int, Bytes.t) Hashtbl.t;
  wc : (int * int64) Queue.t;
  line_size : int;
  mutable judge : judge option;
}

let capture nvram =
  {
    backing = Nvram.persistent_image nvram;
    overlay = Hashtbl.of_seq (List.to_seq (Nvram.overlay_lines nvram));
    wc = Queue.of_seq (List.to_seq (Nvram.pending_nt nvram));
    line_size = Nvram.line_size nvram;
    judge = None;
  }

(* --- cursors --------------------------------------------------------- *)

type 'a cursor = {
  rc : 'a t;
  st : state;
  mutable pos : int;  (* ops applied so far *)
}

let state c = c.st

(* Greatest waypoint with wp_op <= target, or -1 for the base state. *)
let find_waypoint t ~target =
  let rec bsearch lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      if t.waypoints.(mid).wp_op <= target then bsearch (mid + 1) hi mid
      else bsearch lo (mid - 1) best
  in
  bsearch 0 (Array.length t.waypoints - 1) (-1)

let restore_to c ~target =
  let t = c.rc and st = c.st in
  let ls = t.line_size in
  let k = find_waypoint t ~target in
  Bytes.blit t.base_backing 0 st.backing 0 t.size;
  for j = 0 to k do
    let wp = t.waypoints.(j) in
    Array.iteri
      (fun i line -> Bytes.blit wp.wp_data (i * ls) st.backing (line * ls) ls)
      wp.wp_lines
  done;
  let wp = if k < 0 then t.base else t.waypoints.(k) in
  Hashtbl.reset st.overlay;
  Array.iteri
    (fun i line -> Hashtbl.add st.overlay line (Bytes.sub wp.wp_overlay_data (i * ls) ls))
    wp.wp_overlay;
  Queue.clear st.wc;
  if wp.wp_drain < 0 then List.iter (fun e -> Queue.add e st.wc) t.base_wc;
  for i = wp.wp_drain + 1 to wp.wp_op - 1 do
    if tag t i = tag_nt then Queue.add (arg t i, nt_value t i) st.wc
  done;
  c.pos <- wp.wp_op

let apply c i =
  let t = c.rc and st = c.st in
  let ls = st.line_size in
  let tg = tag t i and a = arg t i in
  if tg = tag_slice then begin
    let line = a / ls in
    let buf =
      match Hashtbl.find_opt st.overlay line with
      | Some b -> b
      | None ->
          let b = Bytes.sub st.backing (line * ls) ls in
          Hashtbl.add st.overlay line b;
          b
    in
    let o = t.off.(i) in
    Bytes.blit t.arena o buf (a mod ls) (t.off.(i + 1) - o)
  end
  else if tg = tag_nt then Queue.add (a, nt_value t i) st.wc
  else if tg = tag_wb then begin
    Bytes.blit t.arena t.off.(i) st.backing (a * ls) ls;
    Hashtbl.remove st.overlay a
  end
  else begin
    Queue.iter (fun (addr, v) -> Bytes.set_int64_le st.backing addr v) st.wc;
    Queue.clear st.wc
  end

let cursor t =
  let st =
    {
      backing = Bytes.create t.size;
      overlay = Hashtbl.create 256;
      wc = Queue.create ();
      line_size = t.line_size;
      judge = None;
    }
  in
  let c = { rc = t; st; pos = 0 } in
  restore_to c ~target:0;
  c

let seek c ~mark =
  let target = c.rc.op_at_mark.(mark) in
  if target < c.pos then restore_to c ~target;
  while c.pos < target do
    apply c c.pos;
    c.pos <- c.pos + 1
  done

(* --- judging in place ------------------------------------------------ *)

(* Copy-on-write over the state's own backing: the judge's tap saves
   each line's original bytes the first time the NVRAM is about to
   change it, and every saved line is put back however [f] exits.
   [on_wb] fires before the write-back's blit; [on_nt] fires when a
   word is queued, before any drain can land it, and saves both lines
   the word may straddle. [Nvram.load_backing] and [Nvram.clear_backing]
   are the only other writers of backing, and only [Image] calls them,
   so code judged here cannot write past the tap. Keep it that way. *)
let make_judge ?hierarchy st =
  let ls = st.line_size in
  let nvram =
    Nvram.create ?hierarchy ~backing:st.backing
      ~size:(Wsp_sim.Units.Size.bytes (Bytes.length st.backing))
      ()
  in
  let saved = Line_set.create ((Bytes.length st.backing + ls - 1) / ls) in
  let saved_data = Arena.create () in
  let save line =
    if Line_set.add saved line then Arena.add saved_data st.backing (line * ls) ls
  in
  let tap =
    {
      Nvram.on_slice = (fun ~addr:_ ~src:_ ~off:_ ~len:_ -> ());
      on_nt =
        (fun ~addr ~v:_ ->
          save (addr / ls);
          save ((addr + 7) / ls));
      on_wb = (fun ~line ~data:_ -> save line);
      on_drain = ignore;
    }
  in
  Nvram.set_tap nvram (Some tap);
  { j_nvram = nvram; j_hierarchy = hierarchy; j_tap = tap; j_saved = saved; j_saved_data = saved_data }

(* Puts back every saved line, then powers the machine off and back
   on: a crash empties its caches, overlay and WC queue and zeroes its
   clock, and fault, step budget and tap go back to how [make_judge]
   set them. The machine then acts as a fresh one would, line for line:
   a cleared cache level keeps stale ages on its invalid ways, but
   invalid ways are still chosen first, and LRU among valid ways reads
   only ages set since the reset, in the same order. *)
let reset j st =
  let ls = st.line_size and saved = j.j_saved.lines in
  for i = 0 to saved.n - 1 do
    Bytes.blit j.j_saved_data.b (i * ls) st.backing (saved.a.(i) * ls) ls
  done;
  Line_set.clear j.j_saved;
  j.j_saved_data.n <- 0;
  let nv = j.j_nvram in
  Nvram.crash nv;
  Nvram.set_fault nv Nvram.No_fault;
  Nvram.set_step_budget nv None;
  Nvram.set_tap nv None;
  Nvram.set_tap nv (Some j.j_tap)

(* A state keeps its judge while the hierarchy is the same value and
   the calling domain's registry the one it counts into. *)
let judge_for ?hierarchy st =
  let fits j =
    (match (j.j_hierarchy, hierarchy) with
    | Some a, Some b -> a == b
    | None, None -> true
    | _ -> false)
    && Nvram.metrics j.j_nvram == Wsp_obs.Metrics.ambient ()
  in
  match st.judge with
  | Some j when fits j -> j
  | _ ->
      let j = make_judge ?hierarchy st in
      st.judge <- Some j;
      j

let with_nvram ?hierarchy st f =
  let j = judge_for ?hierarchy st in
  Fun.protect ~finally:(fun () -> reset j st) (fun () -> f j.j_nvram)
