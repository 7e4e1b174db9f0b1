(* Tests for relocatable heap images: the tagged root sentinel, image
   round-trips at the same and at different bases, wire-form corruption
   rejection and msync-backend transaction basics. *)

open Wsp_sim
open Wsp_nvheap
module Avl = Wsp_store.Avl
module Hierarchy = Wsp_machine.Hierarchy

let kib = Units.Size.kib
let log_size = kib 16

let fresh_heap ?(config = Config.fof) () =
  Pheap.create ~config ~log_size ~size:(kib 256) ()

(* Builds a tree with inserts and deletes so the image carries a
   non-trivially shaped structure, and returns it. *)
let build_tree heap n =
  let tree = Avl.create heap in
  for i = 0 to n - 1 do
    Avl.insert tree ~key:(Int64.of_int i) ~value:(Int64.of_int (i * 7))
  done;
  for i = 0 to (n / 3) - 1 do
    ignore (Avl.delete tree (Int64.of_int (i * 3)))
  done;
  tree

let check_tree_equal name expected tree =
  (match Avl.check tree with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: structural check failed: %s" name e);
  Alcotest.(check bool)
    (name ^ ": contents equal") true
    (Avl.to_list tree = expected)

let root_sentinel_tests =
  [
    Alcotest.test_case "no root vs published root are distinguishable" `Quick
      (fun () ->
        let heap = fresh_heap () in
        Alcotest.(check bool) "fresh heap has no root" true
          (Pheap.root_opt heap = None);
        let addr = Pheap.alloc heap 64 in
        Pheap.set_root heap addr;
        Alcotest.(check bool) "published root round-trips" true
          (Pheap.root_opt heap = Some addr);
        Alcotest.(check int) "root agrees" addr (Pheap.root heap);
        (* Clearing the root restores the sentinel; the old absolute
           encoding conflated this with a root at offset 0. *)
        Pheap.set_root heap 0;
        Alcotest.(check bool) "cleared root reads as none" true
          (Pheap.root_opt heap = None));
    Alcotest.test_case "root survives a crash under WSP flush" `Quick
      (fun () ->
        let nvram = Nvram.create ~size:(kib 256) () in
        let len = Units.Size.to_bytes (kib 256) in
        let heap = Pheap.create_in ~log_size ~nvram ~base:0 ~len () in
        let addr = Pheap.alloc heap 64 in
        Pheap.set_root heap addr;
        Pheap.wsp_flush heap;
        Pheap.crash heap;
        let heap = Pheap.attach_in ~log_size ~nvram ~base:0 ~len () in
        Alcotest.(check bool) "root survives" true
          (Pheap.root_opt heap = Some addr));
    Alcotest.test_case "an untagged root slot is rejected, not misread"
      `Quick (fun () ->
        let heap = fresh_heap () in
        (* A pre-relocatable heap stored the absolute address untagged;
           any even non-zero word in the slot is that legacy (or a
           corrupt) encoding, and misreading it as a tagged offset
           would silently relocate the root. The slot lives at region
           byte 8. *)
        Nvram.write_u64 (Pheap.nvram heap) ~addr:8 4096L;
        Alcotest.check_raises "untagged word rejected"
          (Invalid_argument
             "Pheap.root: untagged (corrupt or pre-relocatable) root slot")
          (fun () -> ignore (Pheap.root_opt heap)));
    Alcotest.test_case "out-of-region root is rejected at publication"
      `Quick (fun () ->
        let heap = fresh_heap () in
        Alcotest.check_raises "outside region"
          (Invalid_argument "Pheap.set_root: address outside region")
          (fun () -> Pheap.set_root heap (Units.Size.to_bytes (kib 256) + 8)));
  ]

let roundtrip_tests =
  [
    Alcotest.test_case "image round-trips at the same base" `Quick (fun () ->
        let heap = fresh_heap () in
        let tree = build_tree heap 200 in
        let expected = Avl.to_list tree in
        let image = Image.of_bytes (Image.to_bytes (Image.save heap)) in
        Alcotest.(check int) "source base recorded" 0 (Image.src_base image);
        let nvram = Nvram.create ~size:(kib 256) () in
        let heap' = Image.restore_at image ~nvram ~base:0 () in
        let tree' = Avl.attach_relocated heap' ~delta:0 in
        check_tree_equal "same base" expected tree');
    Alcotest.test_case "image restores at three distinct bases" `Quick
      (fun () ->
        let heap = fresh_heap () in
        let tree = build_tree heap 200 in
        let expected = Avl.to_list tree in
        let image = Image.save heap in
        let len = Image.region_len image in
        List.iter
          (fun base ->
            let nvram =
              Nvram.create ~size:(Units.Size.bytes (base + len)) ()
            in
            let heap' = Image.restore_at image ~nvram ~base () in
            let tree' = Avl.attach_relocated heap' ~delta:base in
            check_tree_equal (Printf.sprintf "base %d" base) expected tree';
            (* The restored replica is live, not a read-only copy. *)
            Avl.insert tree' ~key:9999L ~value:42L;
            Alcotest.(check bool)
              (Printf.sprintf "base %d: restored tree serves writes" base)
              true
              (Avl.find tree' 9999L = Some 42L))
          [ 4096; 65536; 262144 ]);
    Alcotest.test_case "restore under a different backend config" `Quick
      (fun () ->
        (* Saved under FoF, adopted under msync: the image is config-
           agnostic bytes; the adopting node picks its own backend. *)
        let heap = fresh_heap () in
        let tree = build_tree heap 64 in
        let expected = Avl.to_list tree in
        let image = Image.save heap in
        let base = 4096 in
        let nvram =
          Nvram.create
            ~size:(Units.Size.bytes (base + Image.region_len image))
            ()
        in
        let heap' =
          Image.restore_at ~config:Config.msync image ~nvram ~base ()
        in
        let tree' = Avl.attach_relocated heap' ~delta:base in
        check_tree_equal "msync adoption" expected tree';
        Pheap.with_tx heap' (fun () -> Avl.insert tree' ~key:7777L ~value:1L);
        Alcotest.(check bool) "msync tx on adopted heap" true
          (Avl.find tree' 7777L = Some 1L));
    Alcotest.test_case "saving inside a transaction is refused" `Quick
      (fun () ->
        let heap = fresh_heap ~config:Config.foc_ul () in
        Pheap.begin_tx heap;
        Alcotest.check_raises "quiesce in tx"
          (Invalid_argument "Txn.quiesce: transaction open") (fun () ->
            ignore (Image.save heap));
        Pheap.abort heap);
    Alcotest.test_case "sparse image round-trips under every backend" `Quick
      (fun () ->
        List.iter
          (fun (config : Config.t) ->
            let name = config.Config.name in
            let heap = fresh_heap ~config () in
            let nvram = Pheap.nvram heap in
            let tree = build_tree heap 120 in
            Pheap.with_tx heap (fun () -> Avl.insert tree ~key:5000L ~value:5L);
            (* Empty the log first, so the save's own quiesce has nothing
               to truncate and the non-temporal store below stays queued. *)
            Pheap.quiesce heap;
            (* Read the tree first: a cached load of the cell's line
               (which a tree node may share) drains the queue. *)
            let expected = Avl.to_list tree in
            let cell = Pheap.alloc heap 16 in
            Nvram.write_u64_nt nvram ~addr:cell 0x1234L;
            let image = Image.save heap in
            Alcotest.(check bool)
              (name ^ ": saved over dirty lines and a queued NT store")
              true
              (Hierarchy.dirty_line_count (Nvram.hierarchy nvram) > 0
              && Nvram.pending_nt_bytes nvram > 0);
            let src_view = Nvram.volatile_image nvram in
            let image = Image.of_bytes (Image.to_bytes image) in
            let base = 4096 in
            let target =
              Nvram.create
                ~size:(Units.Size.bytes (base + Image.region_len image))
                ()
            in
            let heap' = Image.restore_at ~config image ~nvram:target ~base () in
            (* Compared before the swizzle pass rewrites node pointers. *)
            let dst_view = Nvram.volatile_image target in
            Alloc.iter_allocated (Pheap.allocator heap) (fun ~addr ~size ->
                if
                  not
                    (Bytes.equal
                       (Bytes.sub src_view addr size)
                       (Bytes.sub dst_view (base + addr) size))
                then Alcotest.failf "%s: payload at %d differs" name addr);
            Alcotest.(check bool)
              (name ^ ": allocator invariants") true
              (Alloc.check_invariants (Pheap.allocator heap') = Ok ());
            check_tree_equal name expected
              (Avl.attach_relocated heap' ~delta:base))
          Config.all_backends);
    Alcotest.test_case "restore ignores a stale heap's log at the target"
      `Quick (fun () ->
        let config = Config.fof_ul in
        let heap = fresh_heap ~config () in
        let tree = build_tree heap 64 in
        let expected = Avl.to_list tree in
        let image = Image.save heap in
        let base = 4096 and len = Image.region_len image in
        let nvram = Nvram.create ~size:(Units.Size.bytes (base + len)) () in
        (* The target region last held another heap that lost power
           inside a transaction: the flush-on-fail save left its log
           holding an unsealed undo record for the root slot, at the
           generation the image carries. Recovering that record would
           unpublish the root. *)
        let stale = Pheap.create_in ~config ~log_size ~nvram ~base ~len () in
        Pheap.begin_tx stale;
        Pheap.set_root stale (Pheap.alloc stale 64);
        Pheap.wsp_flush stale;
        Pheap.crash stale;
        Alcotest.(check int) "same log generation"
          (Rawlog.generation (Pheap.log heap))
          (Rawlog.generation (Pheap.log stale));
        Alcotest.(check bool) "stale records are durable" true
          (Rawlog.scan_persistent (Pheap.log stale) <> []);
        let heap' = Image.restore_at ~config image ~nvram ~base () in
        check_tree_equal "stale target" expected
          (Avl.attach_relocated heap' ~delta:base));
    Alcotest.test_case "a sparse image costs what is allocated" `Quick
      (fun () ->
        let empty =
          Pheap.create ~log_size ~size:(Units.Size.mib 4) ()
        in
        let wire = Image.to_bytes (Image.save empty) in
        Alcotest.(check bool)
          (Printf.sprintf "empty 4 MiB heap ships %d bytes" (Bytes.length wire))
          true
          (Bytes.length wire < 1024);
        (* Insert-only, so every block but the free tail is allocated and
           the live bytes form a single extent after the root area. *)
        let heap = fresh_heap () in
        let tree = Avl.create heap in
        for i = 0 to 299 do
          Avl.insert tree ~key:(Int64.of_int i) ~value:(Int64.of_int i)
        done;
        let alloc = Pheap.allocator heap in
        let blocks = ref 1 in
        Alloc.iter_allocated alloc (fun ~addr:_ ~size:_ -> incr blocks);
        let image = Image.save heap in
        let bound = Alloc.allocated_bytes alloc + (8 * !blocks) + 256 in
        Alcotest.(check bool)
          (Printf.sprintf "%d wire bytes <= %d" (Image.size_bytes image) bound)
          true
          (Image.size_bytes image <= bound));
  ]

let corruption_tests =
  [
    Alcotest.test_case "header corruption is rejected" `Quick (fun () ->
        let heap = fresh_heap () in
        ignore (build_tree heap 32);
        let wire = Image.to_bytes (Image.save heap) in
        let expect_corrupt name mutate =
          let b = Bytes.copy wire in
          mutate b;
          match Image.of_bytes b with
          | _ -> Alcotest.failf "%s: corrupt image accepted" name
          | exception Image.Corrupt _ -> ()
        in
        expect_corrupt "magic" (fun b -> Bytes.set b 0 'X');
        expect_corrupt "version" (fun b -> Bytes.set b 8 '\x07');
        expect_corrupt "length" (fun b -> Bytes.set b 24 '\x01');
        expect_corrupt "checksum" (fun b ->
            Bytes.set b 48 (Char.chr (Char.code (Bytes.get b 48) lxor 1)));
        match Image.of_bytes (Bytes.sub wire 0 40) with
        | _ -> Alcotest.fail "truncated image accepted"
        | exception Image.Corrupt _ -> ());
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"any single flipped wire byte is rejected"
         ~count:60
         QCheck2.Gen.(tup2 (int_range 0 999_999) (int_range 1 255))
         (fun (pos, delta) ->
           let heap = fresh_heap () in
           ignore (build_tree heap 48);
           let wire = Image.to_bytes (Image.save heap) in
           let pos = pos mod Bytes.length wire in
           Bytes.set wire pos
             (Char.chr (Char.code (Bytes.get wire pos) lxor delta));
           match Image.of_bytes wire with
           | _ -> false
           | exception Image.Corrupt _ -> true));
    Alcotest.test_case "a version 1 wire is refused by its version" `Quick
      (fun () ->
        (* The whole-region form: a 56-byte header, then the region. *)
        let region_len = 1024 in
        let b = Bytes.make (56 + region_len) '\x00' in
        Bytes.blit_string "WSPIMG01" 0 b 0 8;
        Bytes.set_int64_le b 8 1L;
        Bytes.set_int64_le b 24 (Int64.of_int region_len);
        Bytes.set_int64_le b 32 64L;
        Alcotest.check_raises "v1"
          (Image.Corrupt "unsupported image version 1") (fun () ->
            ignore (Image.of_bytes b)));
    Alcotest.test_case "every flipped byte of a sparse wire is rejected"
      `Quick (fun () ->
        let heap = fresh_heap () in
        ignore (build_tree heap 6);
        let wire = Image.to_bytes (Image.save heap) in
        for pos = 0 to Bytes.length wire - 1 do
          let b = Bytes.copy wire in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
          match Image.of_bytes b with
          | _ -> Alcotest.failf "flip at byte %d accepted" pos
          | exception Image.Corrupt _ -> ()
        done);
  ]

(* Swizzling validates every node against the relocated heap. One walk
   of the block chain serves the whole tree, so the charged accesses
   grow linearly with the tree; a per-node chain walk made them
   quadratic. *)
let swizzle_accesses n =
  let heap = fresh_heap () in
  let tree = Avl.create heap in
  for i = 0 to n - 1 do
    Avl.insert tree ~key:(Int64.of_int i) ~value:(Int64.of_int i)
  done;
  let image = Image.save heap in
  let base = 4096 in
  let metrics = Wsp_obs.Metrics.create () in
  let nvram =
    Nvram.create ~metrics
      ~size:(Units.Size.bytes (base + Image.region_len image))
      ()
  in
  let heap' = Image.restore_at image ~nvram ~base () in
  let accesses () =
    let c name = Wsp_obs.Metrics.(Counter.value (counter metrics name)) in
    c "machine.cache.hits" + c "machine.cache.misses"
  in
  let before = accesses () in
  let tree' = Avl.attach_relocated heap' ~delta:base in
  let n_accesses = accesses () - before in
  Alcotest.(check int) (Printf.sprintf "%d nodes relocated" n) n
    (List.length (Avl.to_list tree'));
  n_accesses

let swizzle_tests =
  [
    Alcotest.test_case "relocating a 2,000-node tree is linear" `Quick
      (fun () ->
        let n = 2000 in
        let accesses = swizzle_accesses n in
        (* Two chain walks (root cell, live table) and four accesses per
           node; a chain walk per node would be about n^2/2. *)
        Alcotest.(check bool)
          (Printf.sprintf "%d accesses for %d nodes" accesses n)
          true
          (accesses <= 8 * n));
    Alcotest.test_case "a child pointer into a block interior is refused"
      `Quick (fun () ->
        let heap = fresh_heap () in
        let tree = build_tree heap 40 in
        let root = Pheap.read_int heap ~addr:(Pheap.root heap) in
        (* Off by one word: inside the root's block, not a payload. *)
        Pheap.write_u64 heap ~addr:(root + 16) (Int64.of_int (root + 8));
        ignore tree;
        let image = Image.save heap in
        let base = 4096 in
        let nvram =
          Nvram.create
            ~size:(Units.Size.bytes (base + Image.region_len image))
            ()
        in
        let heap' = Image.restore_at image ~nvram ~base () in
        Alcotest.check_raises "interior pointer"
          (Invalid_argument
             (Printf.sprintf
                "Avl.attach_relocated: relocated node %d is not a live node \
                 block"
                (root + 8 + base)))
          (fun () -> ignore (Avl.attach_relocated heap' ~delta:base)));
  ]

let msync_tests =
  [
    Alcotest.test_case "msync commit is durable without a WSP save" `Quick
      (fun () ->
        let nvram = Nvram.create ~size:(kib 256) () in
        let len = Units.Size.to_bytes (kib 256) in
        let heap =
          Pheap.create_in ~config:Config.msync ~log_size ~nvram ~base:0 ~len ()
        in
        (* Under msync only transactional writes are made durable at
           commit; the tree (root cell included) is built inside one. *)
        ignore
          (Pheap.with_tx heap (fun () ->
               let tree = Avl.create heap in
               Avl.insert tree ~key:1L ~value:10L;
               Avl.insert tree ~key:2L ~value:20L;
               tree));
        (* Crash with NO flush-on-fail save: only what msync's page
           journal committed survives. *)
        Pheap.crash heap;
        let heap =
          Pheap.attach_in ~config:Config.msync ~log_size ~nvram ~base:0 ~len ()
        in
        let tree = Avl.attach heap in
        Alcotest.(check bool) "committed keys survive" true
          (Avl.find tree 1L = Some 10L && Avl.find tree 2L = Some 20L));
    Alcotest.test_case "msync abort and crash mid-tx roll back" `Quick
      (fun () ->
        let nvram = Nvram.create ~size:(kib 256) () in
        let len = Units.Size.to_bytes (kib 256) in
        let heap =
          Pheap.create_in ~config:Config.msync ~log_size ~nvram ~base:0 ~len ()
        in
        let tree =
          Pheap.with_tx heap (fun () ->
              let t = Avl.create heap in
              Avl.insert t ~key:1L ~value:10L;
              t)
        in
        Pheap.begin_tx heap;
        Avl.insert tree ~key:2L ~value:20L;
        Pheap.abort heap;
        Alcotest.(check bool) "aborted insert gone" true
          (Avl.find tree 2L = None);
        Pheap.begin_tx heap;
        Avl.insert tree ~key:3L ~value:30L;
        Pheap.crash heap;
        let heap =
          Pheap.attach_in ~config:Config.msync ~log_size ~nvram ~base:0 ~len ()
        in
        let tree = Avl.attach heap in
        Alcotest.(check bool) "in-flight tx rolled back" true
          (Avl.find tree 3L = None);
        Alcotest.(check bool) "earlier commit intact" true
          (Avl.find tree 1L = Some 10L));
  ]

let suite =
  [
    ("image.root", root_sentinel_tests);
    ("image.roundtrip", roundtrip_tests);
    ("image.corruption", corruption_tests);
    ("image.swizzle", swizzle_tests);
    ("image.msync", msync_tests);
  ]
