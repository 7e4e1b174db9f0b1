(* Tests for wsp_store: AVL tree, hash table (model-based against the
   stdlib), the shared key-value view, workloads and the directory
   server. *)

open Wsp_sim
open Wsp_nvheap
open Wsp_store

let mk_heap ?(config = Config.fof) ?(size = Units.Size.mib 8) () =
  Pheap.create ~config ~log_size:(Units.Size.mib 1) ~size ()

(* --- Avl ---------------------------------------------------------------- *)

let avl_tests =
  [
    Alcotest.test_case "insert and find" `Quick (fun () ->
        let tree = Avl.create (mk_heap ()) in
        Avl.insert tree ~key:5L ~value:50L;
        Avl.insert tree ~key:3L ~value:30L;
        Avl.insert tree ~key:8L ~value:80L;
        Alcotest.(check (option int64)) "5" (Some 50L) (Avl.find tree 5L);
        Alcotest.(check (option int64)) "3" (Some 30L) (Avl.find tree 3L);
        Alcotest.(check (option int64)) "missing" None (Avl.find tree 9L));
    Alcotest.test_case "insert overwrites" `Quick (fun () ->
        let tree = Avl.create (mk_heap ()) in
        Avl.insert tree ~key:1L ~value:10L;
        Avl.insert tree ~key:1L ~value:11L;
        Alcotest.(check (option int64)) "updated" (Some 11L) (Avl.find tree 1L);
        Alcotest.(check int) "size 1" 1 (Avl.size tree));
    Alcotest.test_case "sequential inserts stay balanced" `Quick (fun () ->
        let tree = Avl.create (mk_heap ()) in
        for i = 1 to 1024 do
          Avl.insert tree ~key:(Int64.of_int i) ~value:0L
        done;
        Alcotest.(check bool) "invariants" true (Avl.check tree = Ok ());
        (* A balanced tree of 1024 nodes has height <= 1.44 log2(1025). *)
        Alcotest.(check bool) "logarithmic height" true (Avl.height tree <= 15));
    Alcotest.test_case "to_list is key-ordered" `Quick (fun () ->
        let tree = Avl.create (mk_heap ()) in
        List.iter
          (fun k -> Avl.insert tree ~key:(Int64.of_int k) ~value:0L)
          [ 5; 1; 9; 3; 7 ];
        Alcotest.(check (list int64)) "sorted" [ 1L; 3L; 5L; 7L; 9L ]
          (List.map fst (Avl.to_list tree)));
    Alcotest.test_case "delete leaf, one-child and two-child nodes" `Quick
      (fun () ->
        let tree = Avl.create (mk_heap ()) in
        List.iter
          (fun k -> Avl.insert tree ~key:(Int64.of_int k) ~value:(Int64.of_int k))
          [ 50; 30; 70; 20; 40; 60; 80; 65 ];
        Alcotest.(check bool) "leaf" true (Avl.delete tree 20L);
        Alcotest.(check bool) "one child" true (Avl.delete tree 60L);
        Alcotest.(check bool) "two children" true (Avl.delete tree 50L);
        Alcotest.(check bool) "absent" false (Avl.delete tree 99L);
        Alcotest.(check bool) "invariants" true (Avl.check tree = Ok ());
        Alcotest.(check (list int64)) "contents" [ 30L; 40L; 65L; 70L; 80L ]
          (List.map fst (Avl.to_list tree)));
    Alcotest.test_case "min and max keys" `Quick (fun () ->
        let tree = Avl.create (mk_heap ()) in
        Alcotest.(check (option int64)) "empty min" None (Avl.min_key tree);
        List.iter
          (fun k -> Avl.insert tree ~key:(Int64.of_int k) ~value:0L)
          [ 4; 2; 9 ];
        Alcotest.(check (option int64)) "min" (Some 2L) (Avl.min_key tree);
        Alcotest.(check (option int64)) "max" (Some 9L) (Avl.max_key tree));
    Alcotest.test_case "attach finds the tree again after flush+crash" `Quick
      (fun () ->
        let heap = mk_heap () in
        let tree = Avl.create heap in
        Avl.insert tree ~key:1L ~value:2L;
        Pheap.wsp_flush heap;
        Pheap.crash heap;
        Pheap.recover heap;
        let tree' = Avl.attach heap in
        Alcotest.(check (option int64)) "survives" (Some 2L) (Avl.find tree' 1L));
    Alcotest.test_case "delete frees nodes back to the allocator" `Quick
      (fun () ->
        let heap = mk_heap () in
        let tree = Avl.create heap in
        for i = 1 to 64 do
          Avl.insert tree ~key:(Int64.of_int i) ~value:0L
        done;
        let allocated = Alloc.allocated_bytes (Pheap.allocator heap) in
        for i = 1 to 64 do
          ignore (Avl.delete tree (Int64.of_int i))
        done;
        Alcotest.(check bool) "freed" true
          (Alloc.allocated_bytes (Pheap.allocator heap) < allocated));
    Alcotest.test_case "attach rejects corrupted root publications" `Quick
      (fun () ->
        (* A recovered image can publish any integer as the root; attach
           must fail loudly before the first garbage dereference. *)
        let expect_invalid name f =
          match f () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s: expected Invalid_argument" name
        in
        let heap = mk_heap () in
        expect_invalid "no root at all" (fun () -> Avl.attach heap);
        let tree = Avl.create heap in
        Avl.insert tree ~key:1L ~value:2L;
        let good_root = Pheap.root heap in
        expect_invalid "root outside the heap region" (fun () ->
            Pheap.set_root heap (Pheap.heap_base heap + Pheap.heap_size heap);
            Avl.attach heap);
        expect_invalid "root inside the heap but unallocated" (fun () ->
            Pheap.set_root heap (Pheap.heap_base heap + Pheap.heap_size heap - 64);
            Avl.attach heap);
        expect_invalid "attach_at a freed block" (fun () ->
            let freed = Pheap.alloc heap 8 in
            Pheap.free heap freed;
            Avl.attach_at heap ~addr:freed);
        (* A genuine root still attaches after the failed probes. *)
        Pheap.set_root heap good_root;
        let tree' = Avl.attach heap in
        Alcotest.(check (option int64)) "intact" (Some 2L) (Avl.find tree' 1L));
  ]

let avl_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"AVL agrees with Map over random op sequences"
         ~count:80
         QCheck2.Gen.(
           list_size (int_range 1 200) (pair (int_range 0 2) (int_range 0 50)))
         (fun ops ->
           let module M = Map.Make (Int64) in
           let tree = Avl.create (mk_heap ()) in
           let model = ref M.empty in
           List.iteri
             (fun i (op, k) ->
               let key = Int64.of_int k in
               match op with
               | 0 ->
                   Avl.insert tree ~key ~value:(Int64.of_int i);
                   model := M.add key (Int64.of_int i) !model
               | 1 ->
                   let removed = Avl.delete tree key in
                   let expected = M.mem key !model in
                   model := M.remove key !model;
                   if removed <> expected then failwith "delete mismatch"
               | _ ->
                   if Avl.find tree key <> M.find_opt key !model then
                     failwith "find mismatch")
             ops;
           Avl.check tree = Ok ()
           && Avl.to_list tree = M.bindings !model));
  ]

(* --- Hash table ------------------------------------------------------------ *)

let hash_tests =
  [
    Alcotest.test_case "insert, find, delete" `Quick (fun () ->
        let t = Hash_table.create ~buckets:64 (mk_heap ()) in
        Hash_table.insert t ~key:1L ~value:10L;
        Hash_table.insert t ~key:2L ~value:20L;
        Alcotest.(check (option int64)) "1" (Some 10L) (Hash_table.find t 1L);
        Alcotest.(check bool) "delete" true (Hash_table.delete t 1L);
        Alcotest.(check (option int64)) "gone" None (Hash_table.find t 1L);
        Alcotest.(check int) "count" 1 (Hash_table.count t);
        Alcotest.(check bool) "delete missing" false (Hash_table.delete t 1L));
    Alcotest.test_case "overwrite does not grow the count" `Quick (fun () ->
        let t = Hash_table.create ~buckets:64 (mk_heap ()) in
        Hash_table.insert t ~key:1L ~value:10L;
        Hash_table.insert t ~key:1L ~value:11L;
        Alcotest.(check int) "count" 1 (Hash_table.count t);
        Alcotest.(check (option int64)) "new value" (Some 11L) (Hash_table.find t 1L));
    Alcotest.test_case "collisions chain correctly" `Quick (fun () ->
        (* One bucket: everything collides. *)
        let t = Hash_table.create ~buckets:1 (mk_heap ()) in
        for i = 1 to 50 do
          Hash_table.insert t ~key:(Int64.of_int i) ~value:(Int64.of_int (-i))
        done;
        for i = 1 to 50 do
          Alcotest.(check (option int64)) "chained" (Some (Int64.of_int (-i)))
            (Hash_table.find t (Int64.of_int i))
        done;
        Alcotest.(check bool) "check" true (Hash_table.check t = Ok ());
        (* Delete from the middle of the chain. *)
        Alcotest.(check bool) "delete 25" true (Hash_table.delete t 25L);
        Alcotest.(check (option int64)) "neighbours intact" (Some (-24L))
          (Hash_table.find t 24L));
    Alcotest.test_case "survives flush + crash + attach" `Quick (fun () ->
        let heap = mk_heap () in
        let t = Hash_table.create ~buckets:64 heap in
        Hash_table.insert t ~key:7L ~value:70L;
        Pheap.wsp_flush heap;
        Pheap.crash heap;
        Pheap.recover heap;
        let t' = Hash_table.attach heap in
        Alcotest.(check (option int64)) "survives" (Some 70L) (Hash_table.find t' 7L));
  ]

let hash_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"hash table agrees with Hashtbl over random op sequences"
         ~count:80
         QCheck2.Gen.(
           list_size (int_range 1 200) (pair (int_range 0 2) (int_range 0 50)))
         (fun ops ->
           let t = Hash_table.create ~buckets:16 (mk_heap ()) in
           let model = Hashtbl.create 16 in
           List.iteri
             (fun i (op, k) ->
               let key = Int64.of_int k in
               match op with
               | 0 ->
                   Hash_table.insert t ~key ~value:(Int64.of_int i);
                   Hashtbl.replace model key (Int64.of_int i)
               | 1 ->
                   let removed = Hash_table.delete t key in
                   if removed <> Hashtbl.mem model key then
                     failwith "delete mismatch";
                   Hashtbl.remove model key
               | _ ->
                   if Hash_table.find t key <> Hashtbl.find_opt model key then
                     failwith "find mismatch")
             ops;
           Hash_table.check t = Ok ()
           && Hash_table.count t = Hashtbl.length model));
  ]

(* --- Workload ---------------------------------------------------------------- *)

let workload_tests =
  [
    Alcotest.test_case "key pool add/remove bookkeeping" `Quick (fun () ->
        let pool = Workload.Key_pool.create () in
        let rng = Rng.create ~seed:1 in
        let keys = List.init 20 (fun _ -> Workload.Key_pool.fresh pool) in
        List.iter (Workload.Key_pool.add pool) keys;
        Alcotest.(check int) "size" 20 (Workload.Key_pool.size pool);
        let removed = ref [] in
        for _ = 1 to 20 do
          match Workload.Key_pool.remove pool rng with
          | Some k -> removed := k :: !removed
          | None -> Alcotest.fail "pool exhausted early"
        done;
        Alcotest.(check int) "empty" 0 (Workload.Key_pool.size pool);
        Alcotest.(check bool) "no key removed twice" true
          (List.length (List.sort_uniq compare !removed) = 20);
        Alcotest.(check bool) "empty pool removes nothing" true
          (Workload.Key_pool.remove pool rng = None));
    Alcotest.test_case "fresh keys never repeat" `Quick (fun () ->
        let pool = Workload.Key_pool.create () in
        let keys = List.init 1000 (fun _ -> Workload.Key_pool.fresh pool) in
        Alcotest.(check int) "distinct" 1000
          (List.length (List.sort_uniq compare keys)));
    Alcotest.test_case "op mix follows the update probability" `Quick (fun () ->
        let rng = Rng.create ~seed:2 in
        let updates = ref 0 in
        for _ = 1 to 10_000 do
          match Workload.pick_op rng ~update_prob:0.3 with
          | Workload.Lookup -> ()
          | Workload.Insert | Workload.Delete -> incr updates
        done;
        let ratio = float_of_int !updates /. 10_000.0 in
        Alcotest.(check bool) "near 0.3" true (abs_float (ratio -. 0.3) < 0.03));
    Alcotest.test_case "benchmark keeps the table near its initial size" `Quick
      (fun () ->
        let r =
          Workload.run_structure_benchmark ~structure:Workload.Hash
            ~entries:2000 ~ops:4000
            ~heap_size:(Units.Size.mib 16) ~config:Config.fof ~update_prob:1.0
            ~seed:3 ()
        in
        Alcotest.(check bool) "within 20%" true
          (abs (r.Workload.final_count - 2000) < 400);
        Alcotest.(check int) "op counts add up" 4000
          (r.Workload.lookups + r.Workload.inserts + r.Workload.deletes));
    Alcotest.test_case "per-op times order FoC+STM > FoF" `Quick (fun () ->
        let run config =
          (Workload.run_structure_benchmark ~structure:Workload.Hash
             ~entries:1000 ~ops:3000
             ~heap_size:(Units.Size.mib 16) ~config ~update_prob:0.5 ~seed:4 ())
            .Workload.per_op
        in
        Alcotest.(check bool) "ordering" true
          Time.(run Config.foc_stm > run Config.fof));
    Alcotest.test_case "same seed, same result" `Quick (fun () ->
        let run () =
          Workload.run_structure_benchmark ~structure:Workload.Hash
            ~entries:500 ~ops:1000
            ~heap_size:(Units.Size.mib 16) ~config:Config.foc_ul
            ~update_prob:0.5 ~seed:5 ()
        in
        let a = run () and b = run () in
        Alcotest.(check bool) "identical elapsed" true
          (Time.equal a.Workload.elapsed b.Workload.elapsed));
  ]

(* --- Directory ----------------------------------------------------------------- *)

let directory_tests =
  [
    Alcotest.test_case "adds entries and keeps indexes in sync" `Quick (fun () ->
        let d =
          Directory.create ~entry_bytes:256 ~indexes:2
            ~heap_size:(Units.Size.mib 32) ()
        in
        let rng = Rng.create ~seed:1 in
        for _ = 1 to 200 do
          Directory.add_entry d rng
        done;
        Alcotest.(check int) "count" 200 (Directory.entry_count d);
        Alcotest.(check bool) "verify" true (Directory.verify d = Ok ()));
    Alcotest.test_case "dn lookups resolve" `Quick (fun () ->
        let d =
          Directory.create ~entry_bytes:256 ~indexes:2
            ~heap_size:(Units.Size.mib 32) ()
        in
        (* Use a copied rng to know the dn key the next add will draw. *)
        let rng = Rng.create ~seed:2 in
        let probe = Rng.copy rng in
        let dn_key = Rng.bits64 probe in
        Directory.add_entry d rng;
        Alcotest.(check bool) "dn found" true
          (Directory.lookup_by_dn d dn_key <> None));
    Alcotest.test_case "directory survives a WSP cycle and keeps serving"
      `Quick (fun () ->
        let d =
          Directory.create ~entry_bytes:256 ~indexes:2
            ~heap_size:(Units.Size.mib 32) ()
        in
        let rng = Rng.create ~seed:4 in
        for _ = 1 to 100 do
          Directory.add_entry d rng
        done;
        let heap = Directory.heap d in
        Pheap.wsp_flush heap;
        Pheap.crash heap;
        Pheap.recover heap;
        let d' = Directory.attach heap () in
        Alcotest.(check int) "entries survive" 100 (Directory.entry_count d');
        Alcotest.(check bool) "indexes verify" true (Directory.verify d' = Ok ());
        (* The id counter resumed where it left off: adding more keeps
           the invariants. *)
        for _ = 1 to 20 do
          Directory.add_entry d' rng
        done;
        Alcotest.(check int) "new entries" 120 (Directory.entry_count d');
        Alcotest.(check bool) "still verifies" true (Directory.verify d' = Ok ()));
    Alcotest.test_case "attach runs updates under the heap's own config"
      `Quick (fun () ->
        let d =
          Directory.create ~config:Config.foc_ul ~entry_bytes:256 ~indexes:2
            ~heap_size:(Units.Size.mib 32) ()
        in
        let rng = Rng.create ~seed:5 in
        for _ = 1 to 10 do
          Directory.add_entry d rng
        done;
        let heap = Directory.heap d in
        Pheap.wsp_flush heap;
        Pheap.crash heap;
        Pheap.recover heap;
        let d' = Directory.attach heap () in
        let commits () = (Nvram.tally (Pheap.nvram heap)).Nvram.tx_commits in
        let before = commits () in
        Directory.add_entry d' rng;
        Alcotest.(check int) "one commit per update" (before + 1) (commits ());
        Alcotest.(check bool) "verifies" true (Directory.verify d' = Ok ()));
    Alcotest.test_case "attach rejects a non-directory heap" `Quick (fun () ->
        let heap = Pheap.create ~size:(Units.Size.mib 8) () in
        ignore (Hash_table.create ~buckets:16 heap);
        Alcotest.(check bool) "raises" true
          (try
             ignore (Directory.attach heap ());
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "mnemosyne config is slower, same final state size"
      `Quick (fun () ->
        let run config =
          Directory.run_benchmark ~entries:300 ~config ~entry_bytes:512
            ~indexes:4 ~seed:3 ()
        in
        let m = run Config.foc_stm and w = run Config.fof in
        Alcotest.(check bool) "wsp faster" true
          (w.Directory.updates_per_s > m.Directory.updates_per_s));
  ]

(* --- Kv_view ------------------------------------------------------------ *)

(* Drive each structure through its view against a stdlib model: every
   field must reach the structure the constructor closed over, so
   find/delete answers, size, contents and the invariant walk agree with
   the model after a mixed run of inserts, overwrites and deletes. *)
let kv_view_agrees_with_model (kv : Kv_view.t) =
  let model = Hashtbl.create 64 in
  let rng = Random.State.make [| 28 |] in
  for _ = 1 to 400 do
    let key = Int64.of_int (Random.State.int rng 64) in
    match Random.State.int rng 3 with
    | 0 ->
        Alcotest.(check bool) "delete answer" (Hashtbl.mem model key)
          (kv.Kv_view.delete key);
        Hashtbl.remove model key
    | _ ->
        let value = Random.State.int64 rng 1_000_000L in
        kv.Kv_view.insert ~key ~value;
        Hashtbl.replace model key value
  done;
  for k = 0 to 63 do
    let key = Int64.of_int k in
    Alcotest.(check (option int64)) "find" (Hashtbl.find_opt model key)
      (kv.Kv_view.find key)
  done;
  Alcotest.(check int) "size" (Hashtbl.length model) (kv.Kv_view.size ());
  Alcotest.(check (list (pair int64 int64)))
    "to_list"
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []))
    (List.sort compare (kv.Kv_view.to_list ()));
  Alcotest.(check bool) "check" true (kv.Kv_view.check () = Ok ())

let kv_view_tests =
  let case name mk =
    Alcotest.test_case (name ^ " view agrees with a model") `Quick (fun () ->
        kv_view_agrees_with_model (mk ()))
  in
  [
    case "hash table" (fun () ->
        Kv_view.hash_table (Hash_table.create ~buckets:16 (mk_heap ())));
    case "avl" (fun () -> Kv_view.avl (Avl.create (mk_heap ())));
    case "skiplist" (fun () -> Kv_view.skiplist (Skiplist.create (mk_heap ())));
    case "btree" (fun () -> Kv_view.btree (Btree.create (mk_heap ())));
    case "block kv" (fun () ->
        let nvram = Nvram.create ~size:(Units.Size.mib 4) () in
        let heap =
          Pheap.create_in ~nvram ~base:0 ~len:(Units.Size.mib 2)
            ~log_size:(Units.Size.kib 64) ()
        in
        let device =
          Blockstore.create nvram ~base:(Units.Size.mib 2)
            ~len:(Units.Size.mib 2) ()
        in
        Kv_view.block_kv (Block_kv.create ~buckets:64 ~heap ~device ()));
  ]

let suite =
  [
    ("store.avl", avl_tests @ avl_props);
    ("store.hash_table", hash_tests @ hash_props);
    ("store.kv_view", kv_view_tests);
    ("store.workload", workload_tests);
    ("store.directory", directory_tests);
  ]
