open Wsp_sim

exception Corrupt of string

let magic = "WSPIMG01"
let current_version = 1
let header_bytes = 56

(* Serialized layout (all integers little-endian u64):
   [0,8)   magic
   [8,16)  version
   [16,24) source base address
   [24,32) region length (= payload length)
   [32,40) log bytes
   [40,48) root word (tagged base-relative, duplicated from the payload)
   [48,56) FNV-1a checksum of header bytes [0,48) ++ payload
   [56,..) payload *)

type t = {
  version : int;
  src_base : int;
  region_len : int;
  log_bytes : int;
  root_word : int64;
  payload : Bytes.t;
}

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a_bytes h b ~off ~len =
  let h = ref h in
  for i = off to off + len - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)));
    h := Int64.mul !h fnv_prime
  done;
  !h

let header_of t =
  let b = Bytes.make header_bytes '\x00' in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int t.version);
  Bytes.set_int64_le b 16 (Int64.of_int t.src_base);
  Bytes.set_int64_le b 24 (Int64.of_int t.region_len);
  Bytes.set_int64_le b 32 (Int64.of_int t.log_bytes);
  Bytes.set_int64_le b 40 t.root_word;
  b

let checksum t =
  let h = fnv1a_bytes fnv_offset (header_of t) ~off:0 ~len:48 in
  fnv1a_bytes h t.payload ~off:0 ~len:(Bytes.length t.payload)

let version t = t.version
let src_base t = t.src_base
let region_len t = t.region_len
let log_bytes t = t.log_bytes
let size_bytes t = header_bytes + Bytes.length t.payload

(* The root slot lives at this offset inside the region (Pheap layout). *)
let root_slot_offset = 8

let save heap =
  Pheap.quiesce heap;
  let base = Pheap.base heap and len = Pheap.region_len heap in
  let whole = Nvram.volatile_image (Pheap.nvram heap) in
  let payload = Bytes.sub whole base len in
  {
    version = current_version;
    src_base = base;
    region_len = len;
    log_bytes = Pheap.log_bytes heap;
    root_word = Bytes.get_int64_le payload root_slot_offset;
    payload;
  }

let to_bytes t =
  let b = Bytes.create (size_bytes t) in
  Bytes.blit (header_of t) 0 b 0 header_bytes;
  Bytes.set_int64_le b 48 (checksum t);
  Bytes.blit t.payload 0 b header_bytes (Bytes.length t.payload);
  b

let fail fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let of_bytes b =
  if Bytes.length b < header_bytes then fail "image truncated before header";
  if not (String.equal (Bytes.sub_string b 0 8) magic) then
    fail "bad image magic";
  let u64 off = Bytes.get_int64_le b off in
  let int off = Int64.to_int (u64 off) in
  let version = int 8 in
  if version <> current_version then fail "unsupported image version %d" version;
  let src_base = int 16 and region_len = int 24 and log_bytes = int 32 in
  if region_len < 0 || Bytes.length b <> header_bytes + region_len then
    fail "image length %d does not match region length %d" (Bytes.length b)
      region_len;
  if log_bytes < 0 || log_bytes > region_len then
    fail "log size %d exceeds region %d" log_bytes region_len;
  let t =
    {
      version;
      src_base;
      region_len;
      log_bytes;
      root_word = u64 40;
      payload = Bytes.sub b header_bytes region_len;
    }
  in
  if not (Int64.equal (checksum t) (u64 48)) then fail "image checksum mismatch";
  if not (Int64.equal t.root_word (Bytes.get_int64_le t.payload root_slot_offset))
  then fail "root word disagrees with payload";
  t

let restore_at ?config ?costs t ~nvram ~base () =
  if base < 0 || base + t.region_len > Nvram.size nvram then
    invalid_arg "Image.restore_at: region does not fit target NVRAM";
  Nvram.load_backing nvram ~addr:base t.payload;
  Pheap.attach_in ?config ?costs
    ~log_size:(Units.Size.bytes t.log_bytes)
    ~nvram ~base ~len:t.region_len ()
