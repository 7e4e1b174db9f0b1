open Wsp_sim

type config = {
  name : string;
  size : Units.Size.t;
  line_size : int;
  associativity : int;
  hit_latency : Time.t;
}

(* Tag state is allocated lazily, a page of sets at a time, so a level
   costs what it has touched rather than its configured capacity (an
   8 MiB LLC is 131,072 slots, of which a small heap touches a few
   thousand). A page is the smallest power-of-two run of consecutive
   sets whose state exceeds [max_young_words], so it is allocated
   directly in the major heap: a page is never copied, by a minor
   collection or otherwise. Until its first insert a page is [fresh]:
   one array shared by every untouched page and never written, which
   reads as all ways invalid.

   Within a page, set [k] starts at [k * stride], [stride = 4a] for
   associativity [a]. Way [w] of a set starting at [b] keeps its tag at
   [s = b+w], its LRU age and dirty flag at [s+a] (the tick shifted left
   by one, dirty in bit 0: ticks are distinct, so the bit never changes
   which way is older), and its dirty-list links at [s+2a] (prev) and
   [s+3a] (next), so the victim scan reads [a] consecutive ints. A
   way's tag is its line number while valid and [lnot line] (negative)
   once invalid: lines are non-negative, so the sign is the valid bit,
   and an invalid way keeps its stale line and age, which victim
   selection still reads.

   Ways double as nodes of an intrusive, circular, doubly-linked list
   of dirty lines. A node's id is [page lsl node_shift lor s], decoded
   with a shift and a mask. The sentinel is id [-1], whose two links
   are the [first]/[last] fields. Only the sentinel's and dirty ways'
   links are ever read: a clean way's are stale. The list makes
   [dirty_lines]/[iter_dirty] O(dirty) and, together with the
   [dirty_n]/[resident_n] counters, turns the dirty polls that protocol
   loops issue per simulated step from O(total slots) into O(dirty).

   One directory per level: [dir] maps a line number to the node of
   its way, or -1, so a lookup is two loads and never scans a set. It
   is paged like [Nvram]'s overlay: page [line lsr dir_shift], slot
   [line land dir_mask]. A page holds 512 node ids as 32-bit ints in a
   2 KiB [Bytes.t]: half the memory of an int array, nothing for the
   GC to scan, and still more than [max_young_words], so it is
   allocated straight in the major heap at the first insert of a line
   it covers. Until then a page is [dir_fresh], one module-level page
   of -1 shared by every level and never written. The top-level array
   grows on demand. An entry is set when a line is inserted and
   cleared when it is evicted, invalidated or cleared, so it is exact:
   a present line always has its node, an absent one -1. *)
type t = {
  cfg : config;
  n_sets : int;
  set_mask : int;  (* [n_sets - 1] when a power of two, else -1. *)
  assoc : int;
  n_slots : int;  (* Configured capacity. *)
  stride : int;  (* Words per set: [4 * assoc]. *)
  page_shift : int;  (* A page holds [1 lsl page_shift] sets. *)
  node_shift : int;  (* Node id = [page lsl node_shift lor s]. *)
  pages : int array array;  (* [fresh] until the page's first insert. *)
  fresh : int array;
  mutable first : int;  (* Sentinel's next: the oldest dirty node. *)
  mutable last : int;  (* Sentinel's prev: the newest dirty node. *)
  mutable dirty_n : int;
  mutable resident_n : int;
  mutable tick : int;
  mutable dir : Bytes.t array;  (* Pages of [dir_fresh] until owned. *)
}

let line_count t = t.n_slots
let sentinel = -1

(* [Max_young_wosize]: a larger block bypasses the minor heap. *)
let max_young_words = 256

let log2_ceil n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let dir_shift = 9
let dir_mask = (1 lsl dir_shift) - 1
let dir_fresh = Bytes.make (4 lsl dir_shift) '\xff'

(* Unchecked native-endian 32-bit access: every index is a slot of a
   whole page, and entries are only read back by this module. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

(* Never-touched state: every way invalid, age 0, clean. *)
let fresh_page ~sets ~stride ~assoc =
  let pg = Array.make (sets * stride) 0 in
  for set = 0 to sets - 1 do
    Array.fill pg (set * stride) assoc (lnot 0)
  done;
  pg

let create cfg =
  let total_lines = Units.Size.to_bytes cfg.size / cfg.line_size in
  assert (total_lines > 0 && cfg.associativity > 0);
  assert (total_lines mod cfg.associativity = 0);
  let assoc = cfg.associativity in
  let n_sets = total_lines / assoc and stride = 4 * assoc in
  let page_shift =
    min (log2_ceil n_sets) (log2_ceil ((max_young_words / stride) + 1))
  in
  let sets_per_page = 1 lsl page_shift in
  let fresh = fresh_page ~sets:sets_per_page ~stride ~assoc in
  let node_shift = log2_ceil (sets_per_page * stride) in
  let n_pages = (n_sets + sets_per_page - 1) / sets_per_page in
  (* The directory stores node ids in 32 bits. *)
  assert (log2_ceil n_pages + node_shift < 31);
  {
    cfg;
    n_sets;
    set_mask = (if n_sets land (n_sets - 1) = 0 then n_sets - 1 else -1);
    assoc;
    n_slots = total_lines;
    stride;
    page_shift;
    node_shift;
    pages = Array.make n_pages fresh;
    fresh;
    first = sentinel;
    last = sentinel;
    dirty_n = 0;
    resident_n = 0;
    tick = 0;
    dir = [||];
  }

let config t = t.cfg

(* The helpers on the per-access path are marked for inlining: the
   closure compiler does not inline them otherwise, and a call costs
   more than their bodies. With a power-of-two set count (every C5528
   level) the set is a mask, not a division. *)
let[@inline] set_of_line t line =
  assert (line >= 0);
  if t.set_mask >= 0 then line land t.set_mask else line mod t.n_sets

let[@inline] page_of_set t set = set lsr t.page_shift

(* Index of [set]'s way 0 within its page. *)
let[@inline] base t set = (set land ((1 lsl t.page_shift) - 1)) * t.stride

(* Page [p] for writing: allocated on first use. *)
let own_page t p =
  let pg = Array.unsafe_get t.pages p in
  if pg != t.fresh then pg
  else begin
    let pg =
      fresh_page ~sets:(1 lsl t.page_shift) ~stride:t.stride ~assoc:t.assoc
    in
    Array.unsafe_set t.pages p pg;
    pg
  end

let[@inline] node_page t node = Array.unsafe_get t.pages (node lsr t.node_shift)
let[@inline] node_index t node = node land ((1 lsl t.node_shift) - 1)

(* Link [v] into node [node]'s next (resp. prev) field. *)
let[@inline] set_next t node v =
  if node = sentinel then t.first <- v
  else
    Array.unsafe_set (node_page t node) (node_index t node + (3 * t.assoc)) v

let[@inline] set_prev t node v =
  if node = sentinel then t.last <- v
  else
    Array.unsafe_set (node_page t node) (node_index t node + (2 * t.assoc)) v

(* Appending at the tail keeps [dirty_lines] in dirtying order, which is
   deterministic regardless of cache geometry. *)
let link_dirty t pg p s =
  let a = t.assoc in
  let node = (p lsl t.node_shift) lor s and last = t.last in
  Array.unsafe_set pg (s + (2 * a)) last;
  Array.unsafe_set pg (s + (3 * a)) sentinel;
  set_next t last node;
  t.last <- node;
  t.dirty_n <- t.dirty_n + 1

let unlink_dirty t pg s =
  let a = t.assoc in
  let p = Array.unsafe_get pg (s + (2 * a))
  and n = Array.unsafe_get pg (s + (3 * a)) in
  set_next t p n;
  set_prev t n p;
  t.dirty_n <- t.dirty_n - 1

let[@inline] dirty_at t pg s = Array.unsafe_get pg (s + t.assoc) land 1 <> 0

let mark_dirty t pg p s =
  if not (dirty_at t pg s) then begin
    let i = s + t.assoc in
    Array.unsafe_set pg i (Array.unsafe_get pg i lor 1);
    link_dirty t pg p s
  end

let mark_clean t pg s =
  if dirty_at t pg s then begin
    let i = s + t.assoc in
    Array.unsafe_set pg i (Array.unsafe_get pg i land lnot 1);
    unlink_dirty t pg s
  end

(* The node of [line]'s way, or -1. *)
let[@inline] lookup t line =
  assert (line >= 0);
  let p = line lsr dir_shift and dir = t.dir in
  if p >= Array.length dir then -1
  else
    Int32.to_int (get32 (Array.unsafe_get dir p) ((line land dir_mask) lsl 2))

(* Points [line]'s entry at [node], owning (and first growing to) its
   page. *)
let dir_set t line node =
  let p = line lsr dir_shift in
  let n = Array.length t.dir in
  if p >= n then begin
    let dir = Array.make (max (p + 1) (2 * n)) dir_fresh in
    Array.blit t.dir 0 dir 0 n;
    t.dir <- dir
  end;
  let pg = Array.unsafe_get t.dir p in
  let pg =
    if pg != dir_fresh then pg
    else begin
      let pg = Bytes.make (4 lsl dir_shift) '\xff' in
      Array.unsafe_set t.dir p pg;
      pg
    end
  in
  set32 pg ((line land dir_mask) lsl 2) (Int32.of_int node)

(* Clears the entry of a present line, whose page is owned. *)
let[@inline] dir_clear t line =
  set32
    (Array.unsafe_get t.dir (line lsr dir_shift))
    ((line land dir_mask) lsl 2) (-1l)

let[@inline] touch t pg s =
  t.tick <- t.tick + 1;
  let i = s + t.assoc in
  Array.unsafe_set pg i ((t.tick lsl 1) lor (Array.unsafe_get pg i land 1))

let probe t ~line =
  let node = lookup t line in
  if node < 0 then false
  else begin
    touch t (node_page t node) (node_index t node);
    true
  end

let contains t ~line = lookup t line >= 0

(* Victim selection: prefer an invalid way; otherwise the least
   recently used. Ties go to the lower way. *)
let rec pick_way (pg : int array) a i stop best =
  if i >= stop then best
  else
    let valid = Array.unsafe_get pg i >= 0
    and b_valid = Array.unsafe_get pg best >= 0
    and older = Array.unsafe_get pg (a + i) < Array.unsafe_get pg (a + best) in
    let best =
      if not valid then if b_valid || older then i else best
      else if b_valid && older then i
      else best
    in
    pick_way pg a (i + 1) stop best

let no_victim = -1
let victim_line code = code asr 1
let victim_dirty code = code land 1 = 1

(* Allocates [line], which the caller knows is absent: the set is
   scanned once, for the victim. *)
let insert_absent t ~line ~dirty =
  let set = set_of_line t line in
  let p = page_of_set t set in
  let pg = own_page t p and b = base t set in
  let s = pick_way pg t.assoc (b + 1) (b + t.assoc) b in
  let old = Array.unsafe_get pg s in
  let victim =
    if old >= 0 then begin
      dir_clear t old;
      (old lsl 1) lor Bool.to_int (dirty_at t pg s)
    end
    else begin
      t.resident_n <- t.resident_n + 1;
      no_victim
    end
  in
  mark_clean t pg s;
  Array.unsafe_set pg s line;
  if dirty then mark_dirty t pg p s;
  touch t pg s;
  dir_set t line ((p lsl t.node_shift) lor s);
  victim

let insert t ~line ~dirty =
  let node = lookup t line in
  if node < 0 then insert_absent t ~line ~dirty
  else begin
    let pg = node_page t node and s = node_index t node in
    if dirty then mark_dirty t pg (node lsr t.node_shift) s;
    touch t pg s;
    no_victim
  end

let set_dirty t ~line =
  let node = lookup t line in
  if node >= 0 then
    mark_dirty t (node_page t node) (node lsr t.node_shift) (node_index t node)

let is_dirty t ~line =
  let node = lookup t line in
  node >= 0 && dirty_at t (node_page t node) (node_index t node)

let invalidate t ~line =
  let node = lookup t line in
  if node < 0 then false
  else begin
    let pg = node_page t node and s = node_index t node in
    let was_dirty = dirty_at t pg s in
    mark_clean t pg s;
    Array.unsafe_set pg s (lnot line);
    dir_clear t line;
    t.resident_n <- t.resident_n - 1;
    was_dirty
  end

let iter_dirty t f =
  let s = ref t.first in
  while !s <> sentinel do
    let pg = node_page t !s and i = node_index t !s in
    f pg.(i);
    s := pg.(i + (3 * t.assoc))
  done

let dirty_lines t =
  let acc = ref [] in
  iter_dirty t (fun line -> acc := line :: !acc);
  !acc

let dirty_count t = t.dirty_n
let resident_count t = t.resident_n

(* Only allocated pages can hold a valid or dirty way. Invalidated ways
   keep their stale line and age, as after [invalidate]. *)
let clear t =
  let a = t.assoc in
  Array.iter
    (fun pg ->
      if pg != t.fresh then
        for k = 0 to (1 lsl t.page_shift) - 1 do
          for s = k * t.stride to (k * t.stride) + a - 1 do
            let tag = pg.(s) in
            if tag >= 0 then begin
              pg.(s) <- lnot tag;
              dir_clear t tag
            end;
            pg.(s + a) <- pg.(s + a) land lnot 1
          done
        done)
    t.pages;
  t.first <- sentinel;
  t.last <- sentinel;
  t.dirty_n <- 0;
  t.resident_n <- 0
