open Wsp_sim

(* Region layout: [base, base+root_area) root/metadata,
   then the log, then the allocator's heap. *)
let root_area = 64
let root_slot = 8

type t = {
  nvram : Nvram.t;
  log : Rawlog.t;
  txn : Txn.t;
  allocator : Alloc.t;
  base : int;
  heap_base : int;
  heap_size : int;
}

let layout ~base ~len ~log_bytes =
  let heap_base = base + root_area + log_bytes in
  if base + len - heap_base < 1024 then invalid_arg "Pheap: region too small";
  heap_base

let create_in ?(config = Config.fof) ?(log_size = Units.Size.mib 4)
    ~nvram ~base ~len () =
  let log_bytes = Units.Size.to_bytes log_size in
  let heap_base = layout ~base ~len ~log_bytes in
  let log = Rawlog.create nvram ~base:(base + root_area) ~len:log_bytes in
  let txn = Txn.create ~nvram ~config ~log () in
  let allocator = Alloc.create nvram ~base:heap_base ~len:(base + len - heap_base) in
  { nvram; log; txn; allocator; base; heap_base; heap_size = base + len - heap_base }

let attach_in ?(config = Config.fof) ?(log_size = Units.Size.mib 4)
    ~nvram ~base ~len () =
  let log_bytes = Units.Size.to_bytes log_size in
  let heap_base = layout ~base ~len ~log_bytes in
  let log = Rawlog.attach nvram ~base:(base + root_area) ~len:log_bytes in
  let txn = Txn.attach ~nvram ~config ~log () in
  let allocator = Alloc.attach nvram ~base:heap_base ~len:(base + len - heap_base) in
  { nvram; log; txn; allocator; base; heap_base; heap_size = base + len - heap_base }

let create ?hierarchy ?config ?log_size ~size () =
  let nvram = Nvram.create ?hierarchy ~size () in
  create_in ?config ?log_size ~nvram ~base:0
    ~len:(Units.Size.to_bytes size) ()

let nvram t = t.nvram
let bus t = Nvram.bus t.nvram
let dirty_bytes t = Nvram.dirty_bytes t.nvram
let txn t = t.txn
let log t = Txn.log t.txn
let allocator t = t.allocator
let config t = Txn.config t.txn
let clock t = Nvram.clock t.nvram
let reset_clock t = Nvram.reset_clock t.nvram

let alloc t n =
  Alloc.alloc t.allocator
    ~on_header_write:(fun ~addr -> Txn.log_header_write t.txn ~addr)
    n

let free t addr =
  if Txn.buffers_writes t.txn then
    Txn.note_free t.txn ~addr ~size:(Alloc.payload_size t.allocator addr);
  Alloc.free t.allocator
    ~on_header_write:(fun ~addr -> Txn.log_header_write t.txn ~addr)
    addr

let read_u64 t ~addr = Txn.read_u64 t.txn ~addr
let read_int t ~addr = Txn.read_int t.txn ~addr
let write_u64 t ~addr v = Txn.write_u64 t.txn ~addr v
let begin_tx t = Txn.begin_tx t.txn
let commit t = Txn.commit t.txn

(* Abort rolls allocator header writes back in NVRAM (undo and msync
   backends), but the allocator's volatile free-list index still
   reflects the allocations the transaction made — it would hand out
   rolled-back split blocks whose headers now read as garbage. Rebuild
   the index from the (post-rollback) headers, as recovery does. *)
let abort t =
  Txn.abort t.txn;
  Alloc.recover t.allocator

let with_tx t f =
  match Txn.with_tx t.txn f with
  | result -> result
  | exception exn ->
      (* Txn.with_tx already aborted; re-sync the allocator index. *)
      Alloc.recover t.allocator;
      raise exn

let durably t f =
  match Config.protocol (config t) with
  | Config.Plain -> f ()
  | Config.Undo_log | Config.Redo_stm | Config.Page_commit -> with_tx t f

(* The root slot stores a tagged base-relative word: [(offset << 1) | 1]
   for a published root, 0 for none. Base-relative makes the published
   root invariant under image relocation; the tag keeps "no root"
   distinguishable from a genuine offset-0 root (the old absolute
   encoding conflated both as 0). *)
let set_root t addr =
  let word =
    if addr = 0 then 0L
    else begin
      if addr < t.base || addr >= t.heap_base + t.heap_size then
        invalid_arg "Pheap.set_root: address outside region";
      Int64.of_int (((addr - t.base) lsl 1) lor 1)
    end
  in
  write_u64 t ~addr:(t.base + root_slot) word

let root_opt t =
  let word = read_u64 t ~addr:(t.base + root_slot) in
  if Int64.equal word 0L then None
  else if Int64.equal (Int64.logand word 1L) 1L then
    Some (t.base + Int64.to_int (Int64.shift_right_logical word 1))
  else
    invalid_arg "Pheap.root: untagged (corrupt or pre-relocatable) root slot"

let root t = match root_opt t with Some addr -> addr | None -> 0
let crash t =
  Nvram.crash t.nvram;
  Txn.on_crash t.txn
let wsp_flush t = Nvram.wbinvd t.nvram

let recover t =
  Txn.recover t.txn;
  Alloc.recover t.allocator

let quiesce t = Txn.quiesce t.txn
let heap_base t = t.heap_base
let heap_size t = t.heap_size
let base t = t.base
let region_len t = t.heap_base + t.heap_size - t.base
let log_bytes t = t.heap_base - t.base - root_area
