(* Block layout: [header:8][payload:size]… back to back across the whole
   region. header = (payload_size << 1) | used. A block's payload address
   is header address + 8. *)

type t = {
  nvram : Nvram.t;
  base : int;
  limit : int;  (* one past the last byte *)
  mutable free_list : int list;  (* header addresses, unordered *)
  m_allocs : Wsp_obs.Metrics.Counter.t;
  m_frees : Wsp_obs.Metrics.Counter.t;
}

module Bus = Wsp_events.Bus

(* Callers test [observed] first, so an unobserved allocator builds no
   event. *)
let observed t = Bus.active (Nvram.bus t.nvram)
let emit t (ev : Event.heap) = Bus.publish (Nvram.bus t.nvram) (Event.Heap ev)

(* Counted whether or not anyone is subscribed, before the publish. *)
let emit_alloc t ~addr ~size =
  Wsp_obs.Metrics.Counter.incr t.m_allocs;
  if observed t then emit t (Alloc { addr; size })

(* An unrecovered handle on [base, base + len), its counters resolved
   from the NVRAM's registry. *)
let make nvram ~base ~len =
  let c = Wsp_obs.Metrics.counter (Nvram.metrics nvram) in
  {
    nvram;
    base;
    limit = base + len;
    free_list = [];
    m_allocs = c "nvheap.alloc.allocs";
    m_frees = c "nvheap.alloc.frees";
  }

let header_size = 8
let align n = (n + 7) land lnot 7
let min_payload = 8

let[@inline] decode_header w =
  let used = Int64.to_int (Int64.logand w 1L) = 1 in
  let size = Int64.to_int (Int64.shift_right_logical w 1) in
  (size, used)

let read_header t addr = decode_header (Nvram.read_u64 t.nvram ~addr)

let write_header t ?on_header_write addr ~size ~used =
  (match on_header_write with Some f -> f ~addr | None -> ());
  if observed t then emit t (Header_write { addr });
  let w = Int64.logor (Int64.shift_left (Int64.of_int size) 1) (if used then 1L else 0L) in
  Nvram.write_u64 t.nvram ~addr w

let create nvram ~base ~len =
  if base < 0 || len < header_size + min_payload then
    invalid_arg "Alloc.create: region too small";
  if base mod 8 <> 0 then invalid_arg "Alloc.create: unaligned base";
  let len = len land lnot 7 in
  let t = make nvram ~base ~len in
  write_header t base ~size:(len - header_size) ~used:false;
  t.free_list <- [ base ];
  t

let base t = t.base
let limit t = t.limit

let next_block _t addr size = addr + header_size + size

let recover t =
  let free = ref [] in
  let addr = ref t.base in
  while !addr < t.limit do
    let size, used = read_header t !addr in
    if size <= 0 || next_block t !addr size > t.limit then begin
      (* A torn heap should have been repaired by transaction recovery
         before the allocator reattaches; treat the remainder as lost. *)
      addr := t.limit
    end
    else begin
      if not used then free := !addr :: !free;
      addr := next_block t !addr size
    end
  done;
  (* Address-ordered first fit: low addresses are preferred, so freed
     blocks are reused before the large tail block is split. *)
  t.free_list <- List.rev !free

let attach nvram ~base ~len =
  let t = make nvram ~base ~len:(len land lnot 7) in
  recover t;
  t

let alloc t ?on_header_write n =
  if n <= 0 then invalid_arg "Alloc.alloc: non-positive size";
  let n = max min_payload (align n) in
  (* First fit over the volatile index. *)
  let rec find acc = function
    | [] -> None
    | hdr :: rest ->
        let size, used = read_header t hdr in
        assert (not used);
        if size >= n then Some (hdr, size, List.rev_append acc rest)
        else find (hdr :: acc) rest
  in
  match find [] t.free_list with
  | None -> raise Out_of_memory
  | Some (hdr, size, rest) ->
      let remainder = size - n in
      if remainder >= header_size + min_payload then begin
        emit_alloc t ~addr:(hdr + header_size) ~size:n;
        (* Split: the tail becomes a new free block. *)
        let tail_hdr = hdr + header_size + n in
        write_header t ?on_header_write tail_hdr
          ~size:(remainder - header_size) ~used:false;
        write_header t ?on_header_write hdr ~size:n ~used:true;
        t.free_list <- tail_hdr :: rest
      end
      else begin
        emit_alloc t ~addr:(hdr + header_size) ~size;
        write_header t ?on_header_write hdr ~size ~used:true;
        t.free_list <- rest
      end;
      hdr + header_size

let header_of_payload addr = addr - header_size

let free t ?on_header_write payload =
  let hdr = header_of_payload payload in
  if hdr < t.base || hdr >= t.limit then invalid_arg "Alloc.free: bad address";
  let size, used = read_header t hdr in
  if not used then invalid_arg "Alloc.free: double free";
  Wsp_obs.Metrics.Counter.incr t.m_frees;
  if observed t then emit t (Free { addr = payload; size });
  (* Coalesce with a free right neighbour so long churn does not
     fragment the region unboundedly. *)
  let next = next_block t hdr size in
  if next < t.limit then begin
    let next_size, next_used = read_header t next in
    if not next_used then begin
      write_header t ?on_header_write hdr
        ~size:(size + header_size + next_size)
        ~used:false;
      t.free_list <- hdr :: List.filter (fun h -> h <> next) t.free_list
    end
    else begin
      write_header t ?on_header_write hdr ~size ~used:false;
      t.free_list <- hdr :: t.free_list
    end
  end
  else begin
    write_header t ?on_header_write hdr ~size ~used:false;
    t.free_list <- hdr :: t.free_list
  end

let payload_size t payload =
  let size, used = read_header t (header_of_payload payload) in
  if not used then invalid_arg "Alloc.payload_size: not allocated";
  size

let is_allocated t payload =
  let hdr = header_of_payload payload in
  if hdr < t.base || hdr >= t.limit then false
  else
    (* Walk headers to confirm [hdr] is a real block boundary. *)
    let rec walk addr =
      if addr > hdr || addr >= t.limit then false
      else if addr = hdr then snd (read_header t addr)
      else
        let size, _ = read_header t addr in
        if size <= 0 then false else walk (next_block t addr size)
    in
    walk t.base

(* One walk under [is_allocated]'s stopping rule, so a payload of
   positive size is in the table exactly when [is_allocated] holds. *)
let live_payload_sizes t =
  let sizes = Hashtbl.create 64 in
  let rec walk addr =
    if addr < t.limit then begin
      let size, used = read_header t addr in
      if size > 0 then begin
        if used then Hashtbl.replace sizes (addr + header_size) size;
        walk (next_block t addr size)
      end
    end
  in
  walk t.base;
  sizes

let fold_blocks t f acc =
  let rec go addr acc =
    if addr >= t.limit then acc
    else
      let size, used = read_header t addr in
      if size <= 0 || next_block t addr size > t.limit then acc
      else go (next_block t addr size) (f acc ~addr ~size ~used)
  in
  go t.base acc

let allocated_bytes t =
  fold_blocks t (fun acc ~addr:_ ~size ~used -> if used then acc + size else acc) 0

let check_invariants t =
  let rec go addr =
    if addr = t.limit then Ok ()
    else if addr > t.limit then Error (Fmt.str "block overruns region at %d" addr)
    else
      let size, _ = read_header t addr in
      if size <= 0 then Error (Fmt.str "non-positive block size at %d" addr)
      else if size mod 8 <> 0 then Error (Fmt.str "unaligned block size at %d" addr)
      else go (next_block t addr size)
  in
  match go t.base with
  | Error _ as e -> e
  | Ok () ->
      (* Every free-list entry must be a free block boundary. *)
      let ok =
        List.for_all
          (fun hdr ->
            fold_blocks t
              (fun acc ~addr ~size:_ ~used -> acc || (addr = hdr && not used))
              false)
          t.free_list
      in
      if ok then Ok () else Error "free list references a non-free block"

let iter_allocated t f =
  fold_blocks t (fun () ~addr ~size ~used -> if used then f ~addr:(addr + header_size) ~size) ()

let live_extents t =
  let word = Bytes.create 8 in
  let acc = ref [] and start = ref t.base and stop = ref t.base in
  let add lo hi =
    if lo <> !stop then begin
      acc := (!start, !stop - !start) :: !acc;
      start := lo
    end;
    stop := hi
  in
  (* Stops where [recover] does. *)
  let rec walk addr =
    if addr < t.limit then begin
      Nvram.peek_volatile t.nvram ~addr ~len:8 word ~dst_off:0;
      let size, used = decode_header (Bytes.get_int64_le word 0) in
      let payload = addr + header_size in
      add addr payload;
      if size > 0 && next_block t addr size <= t.limit then begin
        if used then add payload (payload + size);
        walk (payload + size)
      end
    end
  in
  walk t.base;
  List.rev ((!start, !stop - !start) :: !acc)
