open Wsp_sim
open Wsp_nvheap

let descriptor_magic = 0x4449524543544F52L (* "DIRECTOR" *)
let request_overhead = Time.us 180.0
let default_entry_bytes = 4096

type t = {
  heap : Pheap.t;
  descriptor : int;
  id2entry : Hash_table.t;
  dn2id : Avl.t;
  attr_indexes : Avl.t array;
  entry_bytes : int;
  mutable next_id : int64;
}

let create ?(config = Config.fof) ?(entry_bytes = default_entry_bytes)
    ?(indexes = 8) ?(heap_size = Units.Size.gib 1) () =
  if entry_bytes <= 0 || entry_bytes mod 8 <> 0 then
    invalid_arg "Directory.create: entry_bytes must be a positive multiple of 8";
  let heap =
    Pheap.create ~config ~log_size:(Units.Size.mib 16) ~size:heap_size ()
  in
  (* The directory owns the heap root through its id2entry table; the
     index trees are reachable from entry ids deterministically in this
     model, so they keep private root cells. *)
  let id2entry = Hash_table.create heap in
  let id2entry_root = Pheap.root heap in
  let dn2id = Avl.create heap in
  let dn2id_root = Pheap.root heap in
  let attr_indexes, index_roots =
    let pairs =
      Array.init indexes (fun _ ->
          let ix = Avl.create heap in
          (ix, Pheap.root heap))
    in
    (Array.map fst pairs, Array.map snd pairs)
  in
  (* Each structure published itself as heap root on creation; bind them
     all into one descriptor block and publish that, so the whole
     directory is re-discoverable after recovery:
     [magic][entry_bytes][next_id][indexes][id2entry][dn2id][index roots...] *)
  let descriptor = Pheap.alloc heap (8 * (6 + indexes)) in
  let w i v = Pheap.write_u64 heap ~addr:(descriptor + (8 * i)) v in
  w 0 descriptor_magic;
  w 1 (Int64.of_int entry_bytes);
  w 2 1L (* next_id *);
  w 3 (Int64.of_int indexes);
  w 4 (Int64.of_int id2entry_root);
  w 5 (Int64.of_int dn2id_root);
  Array.iteri (fun i root -> w (6 + i) (Int64.of_int root)) index_roots;
  Pheap.set_root heap descriptor;
  {
    heap;
    descriptor;
    id2entry;
    dn2id;
    attr_indexes;
    entry_bytes;
    next_id = 1L;
  }

let heap t = t.heap
let entry_count t = Hash_table.count t.id2entry

(* An attribute index stores (value, id) pairs; packing the id into the
   key's low bits keeps duplicate attribute values distinct. *)
let index_key ~value ~id =
  Int64.logor (Int64.shift_left value 20) (Int64.logand id 0xFFFFFL)

let add_entry t rng =
  Nvram.charge (Pheap.nvram t.heap) request_overhead;
  let id = t.next_id in
  t.next_id <- Int64.add id 1L;
  (* The id counter is part of the durable state. *)
  Pheap.write_u64 t.heap ~addr:(t.descriptor + 16) t.next_id;
  let dn_key = Rng.bits64 rng in
  let attr_values =
    Array.map (fun _ -> Int64.shift_right_logical (Rng.bits64 rng) 24)
      (Array.make (Array.length t.attr_indexes) ())
  in
  Pheap.durably t.heap (fun () ->
      (* Serialise the entry: a blob written word by word, as the BER
         encoder does. *)
      let blob = Pheap.alloc t.heap t.entry_bytes in
      let words = t.entry_bytes / 8 in
      for w = 0 to words - 1 do
        Pheap.write_u64 t.heap ~addr:(blob + (8 * w)) (Rng.bits64 rng)
      done;
      Hash_table.insert t.id2entry ~key:id ~value:(Int64.of_int blob);
      Avl.insert t.dn2id ~key:dn_key ~value:id;
      Array.iteri
        (fun i value ->
          Avl.insert t.attr_indexes.(i) ~key:(index_key ~value ~id) ~value:id)
        attr_values)

let attach heap () =
  (* create_in formatted the heap; here the caller hands us a recovered
     one whose root is the descriptor block. *)
  let descriptor = Pheap.root heap in
  if descriptor = 0 then invalid_arg "Directory.attach: heap has no root";
  let r i = Pheap.read_u64 heap ~addr:(descriptor + (8 * i)) in
  if not (Int64.equal (r 0) descriptor_magic) then
    invalid_arg "Directory.attach: root is not a directory descriptor";
  let entry_bytes = Int64.to_int (r 1) in
  let next_id = r 2 in
  let indexes = Int64.to_int (r 3) in
  {
    heap;
    descriptor;
    id2entry = Hash_table.attach_at heap ~addr:(Int64.to_int (r 4));
    dn2id = Avl.attach_at heap ~addr:(Int64.to_int (r 5));
    attr_indexes =
      Array.init indexes (fun i ->
          Avl.attach_at heap ~addr:(Int64.to_int (r (6 + i))));
    entry_bytes;
    next_id;
  }

let lookup_by_dn t dn_key = Avl.find t.dn2id dn_key

let verify t =
  let entries = entry_count t in
  let dn_bindings = Avl.size t.dn2id in
  if dn_bindings <> entries then
    Error (Fmt.str "dn2id has %d bindings for %d entries" dn_bindings entries)
  else
    let bad_index =
      Array.exists (fun ix -> Avl.size ix <> entries) t.attr_indexes
    in
    if bad_index then Error "attribute index out of sync with entry table"
    else
      match Avl.check t.dn2id with
      | Error _ as e -> e
      | Ok () -> Hash_table.check t.id2entry

type result = {
  config : Config.t;
  entries : int;
  elapsed : Time.t;
  updates_per_s : float;
  per_op : Time.t;
}

let run_benchmark ?(entries = 100_000) ?(config = Config.fof) ?entry_bytes
    ?indexes ~seed () =
  let rng = Rng.create ~seed in
  (* Size the heap to the workload: blob + index nodes + slack. *)
  let per_entry = Option.value entry_bytes ~default:default_entry_bytes + 1024 in
  let heap_size =
    Units.Size.mib (Stdlib.max 64 (per_entry * entries / 1024 / 1024 * 2))
  in
  let t = create ~config ?entry_bytes ?indexes ~heap_size () in
  Pheap.reset_clock t.heap;
  for _ = 1 to entries do
    add_entry t rng
  done;
  let elapsed = Pheap.clock t.heap in
  {
    config;
    entries;
    elapsed;
    updates_per_s = float_of_int entries /. Time.to_s elapsed;
    per_op = Time.div elapsed entries;
  }
