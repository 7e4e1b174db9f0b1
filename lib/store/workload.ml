open Wsp_sim
open Wsp_nvheap

type op = Lookup | Insert | Delete

let pick_op rng ~update_prob =
  if Rng.float rng 1.0 < update_prob then
    if Rng.bool rng then Insert else Delete
  else Lookup

module Key_pool = struct
  type t = {
    mutable keys : int64 array;
    mutable size : int;
    index : (int64, int) Hashtbl.t;
    mutable next_fresh : int64;
  }

  let create ?(capacity = 1024) () =
    {
      keys = Array.make (max 1 capacity) 0L;
      size = 0;
      index = Hashtbl.create (max 16 capacity);
      next_fresh = 1L;
    }

  let size t = t.size

  let fresh t =
    let k = t.next_fresh in
    t.next_fresh <- Int64.add k 1L;
    (* Spread keys over the hash space deterministically. *)
    Int64.mul k 0x5851F42D4C957F2DL

  let add t key =
    if not (Hashtbl.mem t.index key) then begin
      if t.size = Array.length t.keys then begin
        let keys' = Array.make (2 * t.size) 0L in
        Array.blit t.keys 0 keys' 0 t.size;
        t.keys <- keys'
      end;
      t.keys.(t.size) <- key;
      Hashtbl.add t.index key t.size;
      t.size <- t.size + 1
    end

  (* The key at slot [i mod size]: rank-based access for skewed
     distributions. *)
  let nth_present t i =
    if t.size = 0 then None else Some t.keys.(i mod t.size)

  let remove_at t i =
    if t.size = 0 then None
    else begin
      let i = i mod t.size in
      let key = t.keys.(i) in
      let last = t.keys.(t.size - 1) in
      t.keys.(i) <- last;
      Hashtbl.replace t.index last i;
      Hashtbl.remove t.index key;
      t.size <- t.size - 1;
      Some key
    end
end

type result = {
  config : Config.t;
  ops : int;
  update_prob : float;
  elapsed : Time.t;
  per_op : Time.t;
  lookups : int;
  inserts : int;
  deletes : int;
  final_count : int;
  footprint : footprint option;
}

and footprint = { table_bytes : int; journal_bytes : int }

type structure = Hash | Avl_tree | Skip_list | B_tree | Block

let structure_name = function
  | Hash -> "hash table"
  | Avl_tree -> "AVL tree"
  | Skip_list -> "skip list"
  | B_tree -> "B-tree"
  | Block -> "block-journalled hash table"

let structures = [ Hash; Avl_tree; Skip_list; B_tree ]

let op_overhead = Time.ns 60.0

let run_structure_benchmark ?(entries = 100_000) ?(ops = 1_000_000)
    ?(heap_size = Units.Size.mib 64) ?hierarchy
    ?(distribution = `Uniform) ~structure ~config ~update_prob ~seed () =
  if update_prob < 0.0 || update_prob > 1.0 then
    invalid_arg "run_structure_benchmark: update_prob out of range";
  let rng = Rng.create ~seed in
  (* Setup is unmeasured and untransactional, as in the paper's harness. *)
  let on_heap view =
    let heap = Pheap.create ?hierarchy ~config ~size:heap_size () in
    (heap, view heap, fun () -> None)
  in
  let heap, kv, footprint =
    match structure with
    | Hash -> on_heap (fun h -> Kv_view.hash_table (Hash_table.create h))
    | Avl_tree -> on_heap (fun h -> Kv_view.avl (Avl.create h))
    | Skip_list -> on_heap (fun h -> Kv_view.skiplist (Skiplist.create h))
    | B_tree -> on_heap (fun h -> Kv_view.btree (Btree.create h))
    | Block ->
        (* One NVRAM: the low half holds the in-memory representation,
           the high half is the block device holding the journal. *)
        let total = Units.Size.to_bytes heap_size in
        let nvram = Nvram.create ?hierarchy ~size:heap_size () in
        let heap = Pheap.create_in ~config ~nvram ~base:0 ~len:(total / 2) () in
        let device = Blockstore.create nvram ~base:(total / 2) ~len:(total / 2) () in
        let t = Block_kv.create ~heap ~device () in
        let footprint () =
          Some
            { table_bytes = Block_kv.memory_bytes t; journal_bytes = Block_kv.block_bytes t }
        in
        (heap, Kv_view.block_kv t, footprint)
  in
  let pool = Key_pool.create ~capacity:(2 * entries) () in
  (* Zipfian popularity ranks the pool's slots; uniform draws any. *)
  let slot =
    match distribution with
    | `Uniform ->
        fun () ->
          let n = Key_pool.size pool in
          if n = 0 then 0 else Rng.int rng n
    | `Zipfian theta ->
        let gen = Rng.Zipf.create ~theta ~n:entries () in
        fun () -> Rng.Zipf.draw gen rng
  in
  (* Populate phase — not measured. *)
  for _ = 1 to entries do
    let key = Key_pool.fresh pool in
    Key_pool.add pool key;
    Pheap.durably heap (fun () -> kv.insert ~key ~value:(Int64.neg key))
  done;
  Pheap.reset_clock heap;
  let lookups = ref 0 and inserts = ref 0 and deletes = ref 0 in
  for _ = 1 to ops do
    Nvram.charge (Pheap.nvram heap) op_overhead;
    match pick_op rng ~update_prob with
    | Lookup -> (
        incr lookups;
        match Key_pool.nth_present pool (slot ()) with
        | None -> ()
        | Some key -> ignore (Pheap.durably heap (fun () -> kv.find key)))
    | Insert ->
        incr inserts;
        let key = Key_pool.fresh pool in
        Key_pool.add pool key;
        Pheap.durably heap (fun () -> kv.insert ~key ~value:(Int64.neg key))
    | Delete -> (
        incr deletes;
        match Key_pool.remove_at pool (slot ()) with
        | None -> ()
        | Some key -> ignore (Pheap.durably heap (fun () -> kv.delete key)))
  done;
  let elapsed = Pheap.clock heap in
  {
    config;
    ops;
    update_prob;
    elapsed;
    per_op = Time.div elapsed ops;
    lookups = !lookups;
    inserts = !inserts;
    deletes = !deletes;
    final_count = kv.size ();
    footprint = footprint ();
  }
