open Wsp_sim

type config = {
  name : string;
  size : Units.Size.t;
  line_size : int;
  associativity : int;
  hit_latency : Time.t;
}

(* Tag state lives in flat per-slot arrays, slot = set * associativity +
   way, so a set scan reads [associativity] consecutive ints instead of
   chasing one record per way. A slot's tag is its line number while
   valid and [lnot line] (negative) once invalid: lines are non-negative,
   so a scan needs no separate valid check, and an invalid slot keeps
   its stale line and age exactly as a cleared way record did.

   Slots double as nodes of an intrusive, circular, doubly-linked list
   of dirty lines threaded through [prev]/[next], whose sentinel is the
   extra slot [n_slots]. Only the sentinel's and dirty slots' links are
   ever read: a clean slot's are stale, so a fresh or cleared cache
   relinks the sentinel alone. The list makes
   [dirty_lines]/[iter_dirty] O(dirty) and, together with the
   [dirty_n]/[resident_n] counters, turns the dirty polls that protocol
   loops issue per simulated step from O(total slots) into O(dirty). *)
type t = {
  cfg : config;
  n_sets : int;
  assoc : int;
  tags : int array;
  ages : int array;  (* Larger is more recent. *)
  dirty : bool array;
  prev : int array;  (* n_slots + 1 entries: the last is the sentinel. *)
  next : int array;
  mutable dirty_n : int;
  mutable resident_n : int;
  mutable tick : int;
}

let line_count t = Array.length t.tags
let sentinel t = Array.length t.tags

(* Empties the dirty list. *)
let self_link_sentinel t =
  let head = sentinel t in
  t.prev.(head) <- head;
  t.next.(head) <- head

let create cfg =
  let total_lines = Units.Size.to_bytes cfg.size / cfg.line_size in
  assert (total_lines > 0 && cfg.associativity > 0);
  assert (total_lines mod cfg.associativity = 0);
  let t =
    {
      cfg;
      n_sets = total_lines / cfg.associativity;
      assoc = cfg.associativity;
      tags = Array.make total_lines (lnot 0);
      ages = Array.make total_lines 0;
      dirty = Array.make total_lines false;
      prev = Array.make (total_lines + 1) 0;
      next = Array.make (total_lines + 1) 0;
      dirty_n = 0;
      resident_n = 0;
      tick = 0;
    }
  in
  self_link_sentinel t;
  t

let config t = t.cfg

let set_of_line t line = line mod t.n_sets

(* Appending at the tail keeps [dirty_lines] in dirtying order, which is
   deterministic regardless of cache geometry. *)
let link_dirty t s =
  let head = sentinel t in
  let last = t.prev.(head) in
  t.prev.(s) <- last;
  t.next.(s) <- head;
  t.next.(last) <- s;
  t.prev.(head) <- s;
  t.dirty_n <- t.dirty_n + 1

let unlink_dirty t s =
  let p = t.prev.(s) and n = t.next.(s) in
  t.next.(p) <- n;
  t.prev.(n) <- p;
  t.dirty_n <- t.dirty_n - 1

let mark_dirty t s =
  if not (Array.unsafe_get t.dirty s) then begin
    Array.unsafe_set t.dirty s true;
    link_dirty t s
  end

let mark_clean t s =
  if Array.unsafe_get t.dirty s then begin
    Array.unsafe_set t.dirty s false;
    unlink_dirty t s
  end

type victim = { line : int; dirty : bool }

(* Top-level so probing allocates no closure; annotated so the tag
   comparison is an integer compare, not the polymorphic one. *)
let rec scan_set (tags : int array) (line : int) i stop =
  if i >= stop then -1
  else if Array.unsafe_get tags i = line then i
  else scan_set tags line (i + 1) stop

(* The slot holding [line], or -1. *)
let find t line =
  assert (line >= 0);
  let base = set_of_line t line * t.assoc in
  scan_set t.tags line base (base + t.assoc)

let touch t s =
  t.tick <- t.tick + 1;
  Array.unsafe_set t.ages s t.tick

let probe t ~line =
  let s = find t line in
  if s < 0 then false
  else begin
    touch t s;
    true
  end

let contains t ~line = find t line >= 0

(* Victim selection: prefer an invalid slot; otherwise the least
   recently used. Ties go to the lower slot. *)
let rec pick_slot t i stop best =
  if i >= stop then best
  else
    let valid = Array.unsafe_get t.tags i >= 0
    and b_valid = Array.unsafe_get t.tags best >= 0
    and older = Array.unsafe_get t.ages i < Array.unsafe_get t.ages best in
    let best =
      if not valid then if b_valid || older then i else best
      else if b_valid && older then i
      else best
    in
    pick_slot t (i + 1) stop best

(* Allocates [line], which the caller knows is absent: the set is
   scanned once, for the victim, and never for the line itself. *)
let insert_absent t ~line ~dirty =
  let base = set_of_line t line * t.assoc in
  let s = pick_slot t (base + 1) (base + t.assoc) base in
  let old = Array.unsafe_get t.tags s in
  let victim =
    if old >= 0 then Some { line = old; dirty = Array.unsafe_get t.dirty s }
    else begin
      t.resident_n <- t.resident_n + 1;
      None
    end
  in
  mark_clean t s;
  Array.unsafe_set t.tags s line;
  if dirty then mark_dirty t s;
  touch t s;
  victim

let insert t ~line ~dirty =
  let s = find t line in
  if s < 0 then insert_absent t ~line ~dirty
  else begin
    if dirty then mark_dirty t s;
    touch t s;
    None
  end

let set_dirty t ~line =
  let s = find t line in
  if s >= 0 then mark_dirty t s

let is_dirty t ~line =
  let s = find t line in
  s >= 0 && t.dirty.(s)

let invalidate t ~line =
  let s = find t line in
  if s < 0 then false
  else begin
    let was_dirty = t.dirty.(s) in
    mark_clean t s;
    t.tags.(s) <- lnot line;
    t.resident_n <- t.resident_n - 1;
    was_dirty
  end

let iter_dirty t f =
  let head = sentinel t in
  let s = ref t.next.(head) in
  while !s <> head do
    f t.tags.(!s);
    s := t.next.(!s)
  done

let dirty_lines t =
  let acc = ref [] in
  iter_dirty t (fun line -> acc := line :: !acc);
  !acc

let dirty_count t = t.dirty_n
let resident_count t = t.resident_n

(* Brute-force references for the incremental bookkeeping, kept for the
   invariant tests and the before/after microbenchmarks: folds over
   every valid slot, in slot order. *)
let fold_valid f acc t =
  let acc = ref acc in
  Array.iteri (fun s tag -> if tag >= 0 then acc := f !acc s) t.tags;
  !acc

let dirty_lines_slow (t : t) =
  fold_valid (fun acc s -> if t.dirty.(s) then t.tags.(s) :: acc else acc) [] t

let dirty_count_slow (t : t) =
  fold_valid (fun acc s -> if t.dirty.(s) then acc + 1 else acc) 0 t

let resident_count_slow t = fold_valid (fun acc _ -> acc + 1) 0 t

(* Snapshots copy every array of tag state whole — including the dirty
   list's links, since [iter_dirty]'s oldest-first order is visible
   through write-back event order. *)
type snapshot = {
  snap_tags : int array;
  snap_ages : int array;
  snap_dirty : bool array;
  snap_prev : int array;
  snap_next : int array;
  snap_dirty_n : int;
  snap_resident : int;
  snap_tick : int;
}

let snapshot t =
  {
    snap_tags = Array.copy t.tags;
    snap_ages = Array.copy t.ages;
    snap_dirty = Array.copy t.dirty;
    snap_prev = Array.copy t.prev;
    snap_next = Array.copy t.next;
    snap_dirty_n = t.dirty_n;
    snap_resident = t.resident_n;
    snap_tick = t.tick;
  }

let restore t s =
  if Array.length s.snap_tags <> Array.length t.tags then
    invalid_arg "Cache.restore: snapshot from a different geometry";
  let blit src dst = Array.blit src 0 dst 0 (Array.length src) in
  blit s.snap_tags t.tags;
  blit s.snap_ages t.ages;
  blit s.snap_dirty t.dirty;
  blit s.snap_prev t.prev;
  blit s.snap_next t.next;
  t.dirty_n <- s.snap_dirty_n;
  t.resident_n <- s.snap_resident;
  t.tick <- s.snap_tick

let clear t =
  Array.iteri (fun s tag -> if tag >= 0 then t.tags.(s) <- lnot tag) t.tags;
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  self_link_sentinel t;
  t.dirty_n <- 0;
  t.resident_n <- 0
