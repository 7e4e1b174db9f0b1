open Wsp_sim

let block_size = 4096
let syscall_latency = Time.ns 300.0

type t = {
  nvram : Nvram.t;
  base : int;
  blocks : int;
  mutable blocks_written : int;
}

let create nvram ~base ~len () =
  if base mod 8 <> 0 || len < block_size then invalid_arg "Blockstore: bad region";
  { nvram; base; blocks = len / block_size; blocks_written = 0 }

let attach = create

let block_count t = t.blocks

let addr_of t idx =
  if idx < 0 || idx >= t.blocks then invalid_arg "Blockstore: block out of range";
  t.base + (idx * block_size)

let write_block t ~idx buf =
  if Bytes.length buf <> block_size then
    invalid_arg "Blockstore.write_block: buffer is not one block";
  let addr = addr_of t idx in
  Nvram.charge t.nvram syscall_latency;
  (* The kernel copies the block into NVRAM pages with non-temporal
     stores and fences once — the cheapest durable block write. *)
  for w = 0 to (block_size / 8) - 1 do
    Nvram.write_u64_nt t.nvram ~addr:(addr + (8 * w)) (Bytes.get_int64_le buf (8 * w))
  done;
  Nvram.fence t.nvram;
  t.blocks_written <- t.blocks_written + 1

let read_block t ~idx =
  let addr = addr_of t idx in
  Nvram.charge t.nvram syscall_latency;
  Nvram.read_bytes t.nvram ~addr ~len:block_size

let blocks_written t = t.blocks_written
let bytes_written t = t.blocks_written * block_size
