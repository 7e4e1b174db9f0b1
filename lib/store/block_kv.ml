open Wsp_nvheap

exception Journal_full

(* Journal record: 24 bytes = op (8) | key (8) | value (8); op 0 ends
   the scan, 1 = insert/overwrite, 2 = delete. *)
let record_bytes = 24

type t = {
  table : Hash_table.t;
  device : Blockstore.t;
  block : Bytes.t;  (* the in-flight journal block image *)
  mutable block_idx : int;
  mutable offset : int;  (* next free byte within [block] *)
  mutable records : int;
}

let records_per_block = Blockstore.block_size / record_bytes

let create ?(buckets = 4096) ~heap ~device () =
  {
    table = Hash_table.create ~buckets heap;
    device;
    block = Bytes.make Blockstore.block_size '\x00';
    block_idx = 0;
    offset = 0;
    records = 0;
  }

let append t ~op ~key ~value =
  if t.block_idx >= Blockstore.block_count t.device then raise Journal_full;
  Bytes.set_int64_le t.block t.offset (Int64.of_int op);
  Bytes.set_int64_le t.block (t.offset + 8) key;
  Bytes.set_int64_le t.block (t.offset + 16) value;
  t.offset <- t.offset + record_bytes;
  t.records <- t.records + 1;
  (* Durability is per update: the whole containing block is rewritten
     through the device on every record — the block-transfer tax. *)
  Blockstore.write_block t.device ~idx:t.block_idx t.block;
  if t.offset + record_bytes > records_per_block * record_bytes then begin
    t.block_idx <- t.block_idx + 1;
    t.offset <- 0;
    Bytes.fill t.block 0 (Bytes.length t.block) '\x00'
  end

let insert t ~key ~value =
  Hash_table.insert t.table ~key ~value;
  append t ~op:1 ~key ~value

let delete t key =
  let removed = Hash_table.delete t.table key in
  if removed then append t ~op:2 ~key ~value:0L;
  removed

let find t key = Hash_table.find t.table key
let count t = Hash_table.count t.table
let to_list t = Hash_table.to_list t.table
let check t = Hash_table.check t.table
let journal_records t = t.records

let memory_bytes t =
  (* Bucket array plus one 24-byte node per entry. *)
  (8 * Hash_table.bucket_count t.table) + (24 * Hash_table.count t.table)

let block_bytes t = ((t.block_idx * records_per_block) + (t.offset / record_bytes)) * record_bytes

let recover ?buckets ~heap ~device () =
  let t = create ?buckets ~heap ~device () in
  (* Replay: scan journal blocks until the first unused record. *)
  (try
     for idx = 0 to Blockstore.block_count device - 1 do
       let block = Blockstore.read_block device ~idx in
       for r = 0 to records_per_block - 1 do
         let off = r * record_bytes in
         let op = Int64.to_int (Bytes.get_int64_le block off) in
         let key = Bytes.get_int64_le block (off + 8) in
         let value = Bytes.get_int64_le block (off + 16) in
         match op with
         | 1 ->
             Hash_table.insert t.table ~key ~value;
             t.records <- t.records + 1
         | 2 ->
             ignore (Hash_table.delete t.table key);
             t.records <- t.records + 1
         | _ -> raise Exit
       done
     done
   with Exit -> ());
  (* Continue appending after the last replayed record. *)
  t.block_idx <- t.records / records_per_block;
  t.offset <- t.records mod records_per_block * record_bytes;
  if t.offset > 0 then begin
    let block = Blockstore.read_block device ~idx:t.block_idx in
    Bytes.blit block 0 t.block 0 (Bytes.length block)
  end;
  t
