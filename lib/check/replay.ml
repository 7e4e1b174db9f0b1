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

   Waypoints. A cursor replays forward in O(delta). To land a cursor
   mid-trace (parallel chunks each judge a contiguous point range)
   without replaying from zero, the recorder snapshots the full state
   every [stride] crash points, copy-on-write style: only the backing
   lines written back since the previous waypoint are saved (the
   overlay and WC queue are small and saved whole). Restoring = base
   image + touched-line deltas up to the chosen waypoint + forward
   replay of at most [stride] points' worth of ops. *)

module Nvram = Wsp_nvheap.Nvram
module Event = Wsp_nvheap.Event

type rop =
  | Slice of { addr : int; data : Bytes.t }  (* overlay write, one line *)
  | Nt of { addr : int; v : int64 }  (* WC-queue append *)
  | Wb of { line : int; data : Bytes.t }  (* overlay line -> backing *)
  | Drain  (* WC queue -> backing, FIFO *)

type waypoint = {
  wp_op : int;  (* ops applied when this waypoint was taken *)
  wp_delta : (int * Bytes.t) array;
      (* Backing lines touched since the previous waypoint, ascending,
         with their contents at waypoint time. *)
  wp_overlay : (int * Bytes.t) list;
  wp_wc : (int * int64) list;  (* oldest first *)
}

type 'a t = {
  ops : rop array;
  op_at_mark : int array;  (* ops recorded strictly before mark [i] *)
  info : 'a array;  (* caller's annotation captured at mark [i] *)
  base_backing : Bytes.t;
  base_overlay : (int * Bytes.t) list;
  base_wc : (int * int64) list;
  waypoints : waypoint array;  (* wp_op ascending *)
  size : int;
  line_size : int;
}

let marks t = Array.length t.op_at_mark
let info t ~mark = t.info.(mark)

(* --- recording ------------------------------------------------------- *)

let record ~nvram ?(stride = 256) ~info:info_of run =
  let ls = Nvram.line_size nvram in
  let size = Nvram.size nvram in
  let ops = ref [] and op_n = ref 0 in
  let push op =
    ops := op :: !ops;
    incr op_n
  in
  (* Shadow of the WC queue, so a Drain knows which backing lines it
     touches without asking the NVRAM (whose queue is already clear by
     the time the tap fires). *)
  let shadow_wc = Queue.create () in
  let touched : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let touch_line line = Hashtbl.replace touched line () in
  let tap =
    Nvram.
      {
        on_slice = (fun ~addr ~data -> push (Slice { addr; data }));
        on_nt =
          (fun ~addr ~v ->
            Queue.add (addr, v) shadow_wc;
            push (Nt { addr; v }));
        on_wb =
          (fun ~line ~data ->
            touch_line line;
            push (Wb { line; data }));
        on_drain =
          (fun () ->
            Queue.iter
              (fun (addr, _) ->
                touch_line (addr / ls);
                touch_line ((addr + 7) / ls))
              shadow_wc;
            Queue.clear shadow_wc;
            push Drain);
      }
  in
  let base_backing = Nvram.persistent_image nvram in
  let base_overlay = Nvram.overlay_lines nvram in
  let base_wc = Nvram.pending_nt nvram in
  let marks_rev = ref [] and infos_rev = ref [] and mark_n = ref 0 in
  let waypoints_rev = ref [] in
  let take_waypoint () =
    let lines =
      Hashtbl.fold (fun line () acc -> line :: acc) touched []
      |> List.sort compare
    in
    Hashtbl.reset touched;
    let delta =
      Array.of_list
        (List.map
           (fun line ->
             let data = Bytes.create ls in
             Nvram.blit_backing nvram ~addr:(line * ls) ~len:ls data
               ~dst_off:0;
             (line, data))
           lines)
    in
    waypoints_rev :=
      {
        wp_op = !op_n;
        wp_delta = delta;
        wp_overlay = Nvram.overlay_lines nvram;
        wp_wc = Nvram.pending_nt nvram;
      }
      :: !waypoints_rev
  in
  let sub =
    Wsp_events.Bus.subscribe (Nvram.bus nvram) (function
      | Event.Mem _ ->
          marks_rev := !op_n :: !marks_rev;
          infos_rev := info_of () :: !infos_rev;
          incr mark_n;
          if stride > 0 && !mark_n mod stride = 0 then take_waypoint ()
      | Event.Log _ | Event.Tx _ | Event.Wb _ | Event.Heap _ -> ())
  in
  Nvram.set_tap nvram (Some tap);
  Fun.protect
    ~finally:(fun () ->
      Nvram.set_tap nvram None;
      Wsp_events.Bus.unsubscribe sub)
    run;
  {
    ops = Array.of_list (List.rev !ops);
    op_at_mark = Array.of_list (List.rev !marks_rev);
    info = Array.of_list (List.rev !infos_rev);
    base_backing;
    base_overlay;
    base_wc;
    waypoints = Array.of_list (List.rev !waypoints_rev);
    size;
    line_size = ls;
  }

(* --- cursors --------------------------------------------------------- *)

type state = {
  backing : Bytes.t;
  overlay : (int, Bytes.t) Hashtbl.t;
  wc : (int * int64) Queue.t;
  line_size : int;
}

let capture nvram =
  {
    backing = Nvram.persistent_image nvram;
    overlay = Hashtbl.of_seq (List.to_seq (Nvram.overlay_lines nvram));
    wc = Queue.of_seq (List.to_seq (Nvram.pending_nt nvram));
    line_size = Nvram.line_size nvram;
  }

type 'a cursor = {
  rc : 'a t;
  st : state;
  mutable pos : int;  (* ops applied so far *)
}

let state c = c.st

let load_state c ~backing_init ~overlay ~wc ~pos =
  let st = c.st in
  backing_init st.backing;
  Hashtbl.reset st.overlay;
  List.iter (fun (line, data) -> Hashtbl.add st.overlay line (Bytes.copy data)) overlay;
  Queue.clear st.wc;
  List.iter (fun e -> Queue.add e st.wc) wc;
  c.pos <- pos

(* Greatest waypoint with wp_op <= target, or -1 for the base state. *)
let find_waypoint t ~target =
  let n = Array.length t.waypoints in
  let rec bsearch lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      if t.waypoints.(mid).wp_op <= target then bsearch (mid + 1) hi mid
      else bsearch lo (hi - 1) best
  in
  bsearch 0 (n - 1) (-1)

let restore_to c ~target =
  let t = c.rc in
  let k = find_waypoint t ~target in
  if k < 0 then
    load_state c
      ~backing_init:(fun b -> Bytes.blit t.base_backing 0 b 0 t.size)
      ~overlay:t.base_overlay ~wc:t.base_wc ~pos:0
  else begin
    let wp = t.waypoints.(k) in
    load_state c
      ~backing_init:(fun b ->
        Bytes.blit t.base_backing 0 b 0 t.size;
        for j = 0 to k do
          Array.iter
            (fun (line, data) ->
              Bytes.blit data 0 b (line * t.line_size) t.line_size)
            t.waypoints.(j).wp_delta
        done)
      ~overlay:wp.wp_overlay ~wc:wp.wp_wc ~pos:wp.wp_op
  end

let apply c op =
  let st = c.st in
  let ls = st.line_size in
  match op with
  | Slice { addr; data } ->
      let line = addr / ls in
      let buf =
        match Hashtbl.find_opt st.overlay line with
        | Some b -> b
        | None ->
            let b = Bytes.create ls in
            Bytes.blit st.backing (line * ls) b 0 ls;
            Hashtbl.add st.overlay line b;
            b
      in
      Bytes.blit data 0 buf (addr mod ls) (Bytes.length data)
  | Nt { addr; v } -> Queue.add (addr, v) st.wc
  | Wb { line; data } ->
      Bytes.blit data 0 st.backing (line * ls) ls;
      Hashtbl.remove st.overlay line
  | Drain ->
      Queue.iter (fun (addr, v) -> Bytes.set_int64_le st.backing addr v) st.wc;
      Queue.clear st.wc

let cursor t =
  let st =
    {
      backing = Bytes.create t.size;
      overlay = Hashtbl.create 256;
      wc = Queue.create ();
      line_size = t.line_size;
    }
  in
  let c = { rc = t; st; pos = 0 } in
  restore_to c ~target:0;
  c

let seek c ~mark =
  let target = c.rc.op_at_mark.(mark) in
  if target < c.pos then restore_to c ~target;
  while c.pos < target do
    apply c c.rc.ops.(c.pos);
    c.pos <- c.pos + 1
  done

(* --- judging in place ------------------------------------------------ *)

(* Copy-on-write over the state's own backing: a tap saves each line's
   original bytes the first time the NVRAM is about to change it, and
   every saved line is put back however [f] exits. [on_wb] fires before
   the write-back's blit; [on_nt] fires when a word is queued, before
   any drain can land it, and saves both lines the word may straddle.
   [Nvram.load_backing] and [Nvram.clear_backing] are the only other
   writers of backing, and only [Image] calls them, so code judged here
   cannot write past the tap. Keep it that way. *)
let with_nvram ?hierarchy st f =
  let ls = st.line_size in
  let nvram =
    Nvram.create ?hierarchy ~backing:st.backing
      ~size:(Wsp_sim.Units.Size.bytes (Bytes.length st.backing))
      ()
  in
  let saved = Hashtbl.create 16 in
  let save line =
    if not (Hashtbl.mem saved line) then
      Hashtbl.add saved line (Bytes.sub st.backing (line * ls) ls)
  in
  Nvram.set_tap nvram
    (Some
       {
         Nvram.on_slice = (fun ~addr:_ ~data:_ -> ());
         on_nt =
           (fun ~addr ~v:_ ->
             save (addr / ls);
             save ((addr + 7) / ls));
         on_wb = (fun ~line ~data:_ -> save line);
         on_drain = ignore;
       });
  Fun.protect
    ~finally:(fun () ->
      Hashtbl.iter
        (fun line data -> Bytes.blit data 0 st.backing (line * ls) ls)
        saved)
    (fun () -> f nvram)
