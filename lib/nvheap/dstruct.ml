(* A race annotation on the heap's {!Nvram.sync_bus}, in program order
   with the heap's persistency events. *)
let annotate ph (s : Event.sync) =
  Wsp_events.Bus.publish (Nvram.sync_bus (Pheap.nvram ph)) s

let persist ph ~addr =
  let nv = Pheap.nvram ph in
  Nvram.clflush nv ~addr;
  Nvram.fence nv

module Dqueue = struct
  (* Layout at [base]: [cap; tail; head; slot 0 .. slot cap-1], one
     64-bit word each. [tail]/[head] are monotonic sequence counts;
     slot index = seq mod cap. *)
  type t = {
    ph : Pheap.t;
    base : int;
    qcap : int;
    racy : bool;
    mutable deferred : int option;  (** racy: slot flush owed from the
                                        previous enqueue *)
  }

  let cap_addr t = t.base
  let tail_addr t = t.base + 8
  let head_addr t = t.base + 16
  let slot_addr t seq = t.base + 24 + (seq mod t.qcap * 8)
  let expected ~seq = Int64.of_int (((seq + 1) * 2654435761) lor 1)

  let create ?(racy = false) ph ~cap =
    if cap <= 0 then invalid_arg "Dqueue.create: cap must be positive";
    let base = Pheap.alloc ph ((3 + cap) * 8) in
    let t = { ph; base; qcap = cap; racy; deferred = None } in
    Pheap.write_u64 ph ~addr:(cap_addr t) (Int64.of_int cap);
    Pheap.write_u64 ph ~addr:(tail_addr t) 0L;
    Pheap.write_u64 ph ~addr:(head_addr t) 0L;
    persist ph ~addr:(cap_addr t);
    persist ph ~addr:(tail_addr t);
    persist ph ~addr:(head_addr t);
    Pheap.set_root ph base;
    (* The root slot is a plain cached store — persist the publication
       or a flush-on-commit crash forgets where the ring lives. *)
    persist ph ~addr:(Pheap.base ph);
    t

  let attach ph =
    let base = Pheap.root ph in
    if base = 0 then invalid_arg "Dqueue.attach: heap has no root";
    let cap = Int64.to_int (Pheap.read_u64 ph ~addr:base) in
    if cap <= 0 then invalid_arg "Dqueue.attach: corrupt capacity";
    { ph; base; qcap = cap; racy = false; deferred = None }

  let tail t = Int64.to_int (Pheap.read_u64 t.ph ~addr:(tail_addr t))
  let head t = Int64.to_int (Pheap.read_u64 t.ph ~addr:(head_addr t))
  let cap t = t.qcap
  let slot_value t ~seq = Pheap.read_u64 t.ph ~addr:(slot_addr t seq)

  let enqueue t v =
    let seq = tail t in
    if seq - head t >= t.qcap then invalid_arg "Dqueue.enqueue: full";
    let obj = Int64.of_int seq in
    let slot = slot_addr t seq in
    if t.racy then begin
      (* Owed slot persist from the previous racy enqueue — this is
         where the sabotaged protocol finally flushes, one op late. *)
      (match t.deferred with
      | Some a ->
          persist t.ph ~addr:a;
          t.deferred <- None
      | None -> ());
      (* The bug: publish the advanced tail, then store the slot. *)
      Pheap.write_u64 t.ph ~addr:(tail_addr t) (Int64.of_int (seq + 1));
      persist t.ph ~addr:(tail_addr t);
      annotate t.ph (Publish { chan = 0 });
      Pheap.write_u64 t.ph ~addr:slot v;
      annotate t.ph (Write { obj; addr = slot });
      t.deferred <- Some slot;
      annotate t.ph (Ack { obj })
    end
    else begin
      Pheap.write_u64 t.ph ~addr:slot v;
      annotate t.ph (Write { obj; addr = slot });
      persist t.ph ~addr:slot;
      Pheap.write_u64 t.ph ~addr:(tail_addr t) (Int64.of_int (seq + 1));
      persist t.ph ~addr:(tail_addr t);
      annotate t.ph (Publish { chan = 0 });
      annotate t.ph (Ack { obj })
    end;
    seq

  let enqueue_expected t = enqueue t (expected ~seq:(tail t))

  let drain t =
    annotate t.ph (Acquire { chan = 0 });
    let tl = tail t and hd = head t in
    let out = ref [] in
    for seq = tl - 1 downto hd do
      annotate t.ph (Read { obj = Int64.of_int seq });
      out := slot_value t ~seq :: !out
    done;
    if tl > hd then begin
      Pheap.write_u64 t.ph ~addr:(head_addr t) (Int64.of_int tl);
      persist t.ph ~addr:(head_addr t)
    end;
    !out
end

module Dcounter = struct
  type t = { ph : Pheap.t; base : int; racy : bool }

  let obj = 1L
  let chan = 0

  let create ?(racy = false) ph =
    let base = Pheap.alloc ph 8 in
    let t = { ph; base; racy } in
    Pheap.write_u64 ph ~addr:base 0L;
    persist ph ~addr:base;
    Pheap.set_root ph base;
    persist ph ~addr:(Pheap.base ph);
    t

  let attach ph =
    let base = Pheap.root ph in
    if base = 0 then invalid_arg "Dcounter.attach: heap has no root";
    { ph; base; racy = false }

  let value t = Pheap.read_u64 t.ph ~addr:t.base

  let incr t =
    annotate t.ph (Acquire { chan });
    let v = value t in
    annotate t.ph (Read { obj });
    Pheap.write_u64 t.ph ~addr:t.base (Int64.add v 1L);
    annotate t.ph (Write { obj; addr = t.base });
    (* The racy bug: the increment is acked and the lock released with
       the store still sitting dirty in cache — and never flushed. *)
    if not t.racy then persist t.ph ~addr:t.base;
    annotate t.ph (Ack { obj });
    annotate t.ph (Publish { chan })
end

module Handoff = struct
  type t = {
    src : Pheap.t;
    dst : Pheap.t;
    src_base : int;
    dst_base : int;
    nslots : int;
    racy : bool;
  }

  let expected ~key = Int64.of_int (((key + 1) * 7919) lor 1)
  let src_addr t key = t.src_base + (key * 8)
  let dst_addr t key = t.dst_base + (key * 8)

  let zero_cells ph base n =
    for i = 0 to n - 1 do
      Pheap.write_u64 ph ~addr:(base + (i * 8)) 0L;
      persist ph ~addr:(base + (i * 8))
    done

  let create ?(racy = false) ~src ~dst ~slots () =
    if slots <= 0 then invalid_arg "Handoff.create: slots must be positive";
    let src_base = Pheap.alloc src ((slots + 1) * 8) in
    let dst_base = Pheap.alloc dst ((slots + 1) * 8) in
    (* Cell 0 holds the slot count so [attach] can recover geometry. *)
    Pheap.write_u64 src ~addr:src_base (Int64.of_int slots);
    persist src ~addr:src_base;
    Pheap.write_u64 dst ~addr:dst_base (Int64.of_int slots);
    persist dst ~addr:dst_base;
    let t =
      {
        src;
        dst;
        src_base = src_base + 8;
        dst_base = dst_base + 8;
        nslots = slots;
        racy;
      }
    in
    zero_cells src t.src_base slots;
    zero_cells dst t.dst_base slots;
    Pheap.set_root src src_base;
    persist src ~addr:(Pheap.base src);
    Pheap.set_root dst dst_base;
    persist dst ~addr:(Pheap.base dst);
    t

  let attach ~src ~dst () =
    let src_base = Pheap.root src and dst_base = Pheap.root dst in
    if src_base = 0 || dst_base = 0 then
      invalid_arg "Handoff.attach: heap has no root";
    let n = Int64.to_int (Pheap.read_u64 src ~addr:src_base) in
    let n' = Int64.to_int (Pheap.read_u64 dst ~addr:dst_base) in
    if n <= 0 || n <> n' then invalid_arg "Handoff.attach: corrupt geometry";
    {
      src;
      dst;
      src_base = src_base + 8;
      dst_base = dst_base + 8;
      nslots = n;
      racy = false;
    }

  let slots t = t.nslots
  let src_value t ~key = Pheap.read_u64 t.src ~addr:(src_addr t key)
  let dst_value t ~key = Pheap.read_u64 t.dst ~addr:(dst_addr t key)

  let check_key t key =
    if key < 0 || key >= t.nslots then invalid_arg "Handoff: key out of range"

  let put t ~key =
    check_key t key;
    let obj = Int64.of_int key in
    let a = src_addr t key in
    Pheap.write_u64 t.src ~addr:a (expected ~key);
    annotate t.src (Write { obj; addr = a });
    persist t.src ~addr:a;
    annotate t.src (Ack { obj })

  (* Each half annotates on the heap it acts on, so a driver that gives
     each heap its own domain sees the protocol's acting side. *)
  let persist_half t ~key v =
    let obj = Int64.of_int key in
    let a = dst_addr t key in
    Pheap.write_u64 t.dst ~addr:a v;
    annotate t.dst (Write { obj; addr = a });
    persist t.dst ~addr:a;
    annotate t.dst (Handoff_persist { obj })

  let retire_half t ~key =
    let obj = Int64.of_int key in
    let a = src_addr t key in
    Pheap.write_u64 t.src ~addr:a 0L;
    persist t.src ~addr:a;
    annotate t.src (Tombstone { obj })

  let move t ~key =
    check_key t key;
    let v = src_value t ~key in
    (* The destination consumes the source's copy. *)
    annotate t.dst (Read { obj = Int64.of_int key });
    if t.racy then begin
      (* The bug: the source retires its copy before the destination
         persist exists — the value survives only in this volatile
         binding, which no WSP save can reach. *)
      retire_half t ~key;
      persist_half t ~key v
    end
    else begin
      persist_half t ~key v;
      retire_half t ~key
    end
end
