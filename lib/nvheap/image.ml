open Wsp_sim

exception Corrupt of string

let magic_prefix = "WSPIMG"
let magic = "WSPIMG02"
let current_version = 2
let header_bytes = 64

(* Wire layout (all integers little-endian u64):
   [0,8)   magic
   [8,16)  version
   [16,24) source base address
   [24,32) region length
   [32,40) log bytes
   [40,48) root word (tagged base-relative, duplicated from the extents)
   [48,56) extent count
   [56,64) checksum of every other word of the wire
   [64,..) one record per extent, in ascending region order: region
           offset, length, then [length] bytes.
   Every offset and length is a multiple of 8, so the wire is a whole
   number of words. Region bytes no extent covers restore as zero. *)

(* A validated image is its wire form; {!save} builds one directly and
   {!of_bytes} adopts a copy. *)
type t = Bytes.t

let u64 t off = Bytes.get_int64_le t off
let int t off = Int64.to_int (u64 t off)
let version _ = current_version
let src_base t = int t 16
let region_len t = int t 24
let log_bytes t = int t 32
let root_word t = u64 t 40
let extent_count t = int t 48
let checksum t = u64 t 56
let size_bytes = Bytes.length

(* FNV-1a over 64-bit words: xor a word in, multiply by the prime.
   Multiplying by an odd constant is a bijection mod 2^64, so changing
   any one word — any one byte — always changes the sum. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a_words h b ~off ~len =
  let h = ref h in
  for i = 0 to (len / 8) - 1 do
    h := Int64.mul (Int64.logxor !h (Bytes.get_int64_le b (off + (8 * i)))) fnv_prime
  done;
  !h

(* Every word but the checksum's own. *)
let wire_checksum t =
  let h = fnv1a_words fnv_offset t ~off:0 ~len:56 in
  fnv1a_words h t ~off:header_bytes ~len:(Bytes.length t - header_bytes)

(* Calls [f ~off ~len ~pos] per extent record: its region offset and
   length, and where its bytes start in the wire. *)
let iter_extents t f =
  let pos = ref header_bytes in
  for _ = 1 to extent_count t do
    let off = int t !pos and len = int t (!pos + 8) in
    f ~off ~len ~pos:(!pos + 16);
    pos := !pos + 16 + len
  done

(* The root slot lives at this offset inside the region (Pheap layout). *)
let root_slot_offset = 8

(* The region extents a restore needs, as ascending (offset, length)
   pairs: the root area, the log's generation word — after [quiesce]
   every later log word is stale — and the allocator's live extents. *)
let live_extents heap =
  let base = Pheap.base heap in
  let log_off = Pheap.heap_base heap - base - Pheap.log_bytes heap in
  (0, log_off + 8)
  :: List.map
       (fun (addr, len) -> (addr - base, len))
       (Alloc.live_extents (Pheap.allocator heap))

let save heap =
  Pheap.quiesce heap;
  let base = Pheap.base heap in
  let extents = live_extents heap in
  let total =
    List.fold_left (fun n (_, len) -> n + 16 + len) header_bytes extents
  in
  let t = Bytes.create total in
  Bytes.blit_string magic 0 t 0 8;
  let set off n = Bytes.set_int64_le t off (Int64.of_int n) in
  set 8 current_version;
  set 16 base;
  set 24 (Pheap.region_len heap);
  set 32 (Pheap.log_bytes heap);
  set 48 (List.length extents);
  ignore
    (List.fold_left
       (fun pos (off, len) ->
         set pos off;
         set (pos + 8) len;
         Nvram.peek_volatile (Pheap.nvram heap) ~addr:(base + off) ~len t
           ~dst_off:(pos + 16);
         pos + 16 + len)
       header_bytes extents);
  (* The first extent starts with the root area. *)
  Bytes.set_int64_le t 40 (u64 t (header_bytes + 16 + root_slot_offset));
  Bytes.set_int64_le t 56 (wire_checksum t);
  t

let to_bytes = Bytes.copy

let fail fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

(* Checks the extent table: sorted, disjoint, word-aligned records that
   lie inside the region and tile the wire exactly, the first covering
   the root slot. *)
let check_extents b =
  let total = Bytes.length b and region_len = region_len b in
  let count = extent_count b in
  if count < 1 then fail "image has %d extents" count;
  let rec go i pos prev_end =
    if i = count then begin
      if pos <> total then
        fail "image length %d does not match its extents (%d)" total pos
    end
    else begin
      if pos + 16 > total then fail "image truncated in extent %d" i;
      let off = int b pos and len = int b (pos + 8) in
      if len <= 0 || len land 7 <> 0 || off land 7 <> 0 then
        fail "extent %d is not a whole number of words" i;
      if off < prev_end || off > region_len - len then
        fail "extent %d at %d is out of order or outside the region" i off;
      if i = 0 && (off <> 0 || len < root_slot_offset + 8) then
        fail "first extent does not cover the root slot";
      if len > total - pos - 16 then fail "image truncated in extent %d" i;
      go (i + 1) (pos + 16 + len) (off + len)
    end
  in
  go 0 header_bytes 0

let of_bytes b =
  let len = Bytes.length b in
  if len < 16 then fail "image truncated before header";
  if not (String.equal (Bytes.sub_string b 0 6) magic_prefix) then
    fail "bad image magic";
  let version = int b 8 in
  if version <> current_version then fail "unsupported image version %d" version;
  if not (String.equal (Bytes.sub_string b 0 8) magic) then fail "bad image magic";
  if len < header_bytes then fail "image truncated before header";
  let region_len = region_len b and log_bytes = log_bytes b in
  if region_len < 0 then fail "negative region length %d" region_len;
  if log_bytes < 0 || log_bytes > region_len then
    fail "log size %d exceeds region %d" log_bytes region_len;
  check_extents b;
  if not (Int64.equal (wire_checksum b) (checksum b)) then
    fail "image checksum mismatch";
  if not (Int64.equal (root_word b) (u64 b (header_bytes + 16 + root_slot_offset)))
  then fail "root word disagrees with payload";
  Bytes.copy b

let restore_at ?config t ~nvram ~base () =
  let len = region_len t in
  if base < 0 || base + len > Nvram.size nvram then
    invalid_arg "Image.restore_at: region does not fit target NVRAM";
  (* Every region byte is defined: a stale log record left by another
     heap must not survive past the shipped generation word. *)
  Nvram.clear_backing nvram ~addr:base ~len;
  iter_extents t (fun ~off ~len ~pos ->
      Nvram.load_backing nvram ~addr:(base + off) (Bytes.sub t pos len));
  Pheap.attach_in ?config
    ~log_size:(Units.Size.bytes (log_bytes t))
    ~nvram ~base ~len ()
