(* Tests for wsp_nvheap: NVRAM crash semantics, the allocator, the
   torn-tolerant raw log, transactions with crash injection, and the
   heap facade. *)

open Wsp_sim
open Wsp_nvheap

let mk_nvram ?(size = Units.Size.kib 256) () = Nvram.create ~size ()

(* --- Nvram ---------------------------------------------------------------- *)

(* Litmus for an 8-byte store whose low four bytes sit at the end of
   one cache line and whose high four start the next: flushing one line
   and crashing tears the word at the line boundary, whichever half the
   flushed line holds ("Lost in Interpretation", PAPERS.md). *)
let straddle_litmus ~flush =
  let nv = mk_nvram () in
  let line = Nvram.line_size nv in
  let addr = line - 4 in
  let old_v = 0x1111_1111_2222_2222L and new_v = 0x3333_3333_4444_4444L in
  Nvram.write_u64 nv ~addr old_v;
  Nvram.wbinvd nv;
  Nvram.write_u64 nv ~addr new_v;
  let low, high =
    match flush with
    | `First -> (new_v, old_v)
    | `Second -> (old_v, new_v)
  in
  Nvram.clflush nv ~addr:(match flush with `First -> 0 | `Second -> line);
  Nvram.crash nv;
  let mask = 0xFFFF_FFFFL in
  Alcotest.(check int64) "torn at the line boundary"
    Int64.(logor (logand low mask) (logand high (lognot mask)))
    (Bytes.get_int64_le (Nvram.persistent_image nv) addr)

let nvram_tests =
  [
    Alcotest.test_case "read your writes" `Quick (fun () ->
        let nv = mk_nvram () in
        Nvram.write_u64 nv ~addr:128 0xDEADBEEFL;
        Alcotest.(check int64) "value" 0xDEADBEEFL (Nvram.read_u64 nv ~addr:128));
    Alcotest.test_case "bytes round-trip" `Quick (fun () ->
        let nv = mk_nvram () in
        let data = Bytes.of_string "whole-system persistence" in
        Nvram.write_bytes nv ~addr:1000 data;
        Alcotest.(check bytes) "round trip" data
          (Nvram.read_bytes nv ~addr:1000 ~len:(Bytes.length data)));
    Alcotest.test_case "unflushed writes do not reach the backing store" `Quick
      (fun () ->
        let nv = mk_nvram () in
        Nvram.write_u64 nv ~addr:0 42L;
        Alcotest.(check int64) "backing still zero" 0L (Nvram.peek_u64 nv ~addr:0);
        Alcotest.(check bool) "line dirty" true (Nvram.dirty_bytes nv > 0));
    Alcotest.test_case "crash loses dirty data" `Quick (fun () ->
        let nv = mk_nvram () in
        Nvram.write_u64 nv ~addr:0 42L;
        Nvram.crash nv;
        Alcotest.(check int64) "gone" 0L (Nvram.read_u64 nv ~addr:0);
        Alcotest.(check int) "nothing dirty" 0 (Nvram.dirty_bytes nv));
    Alcotest.test_case "clflush makes one line durable" `Quick (fun () ->
        let nv = mk_nvram () in
        Nvram.write_u64 nv ~addr:64 7L;
        Nvram.write_u64 nv ~addr:256 9L;
        Nvram.clflush nv ~addr:64;
        Nvram.crash nv;
        Alcotest.(check int64) "flushed survives" 7L (Nvram.read_u64 nv ~addr:64);
        Alcotest.(check int64) "other lost" 0L (Nvram.read_u64 nv ~addr:256));
    Alcotest.test_case "straddling store: flushing the first line persists \
                        its low half" `Quick (fun () ->
        straddle_litmus ~flush:`First);
    Alcotest.test_case "straddling store: flushing the second line persists \
                        its high half" `Quick (fun () ->
        straddle_litmus ~flush:`Second);
    Alcotest.test_case "wbinvd makes everything durable" `Quick (fun () ->
        let nv = mk_nvram () in
        for i = 0 to 63 do
          Nvram.write_u64 nv ~addr:(i * 8) (Int64.of_int i)
        done;
        Nvram.wbinvd nv;
        Nvram.crash nv;
        for i = 0 to 63 do
          Alcotest.(check int64) "survives" (Int64.of_int i)
            (Nvram.read_u64 nv ~addr:(i * 8))
        done);
    Alcotest.test_case "non-temporal stores need a fence to be durable" `Quick
      (fun () ->
        let nv = mk_nvram () in
        Nvram.write_u64_nt nv ~addr:0 1L;
        Alcotest.(check int) "pending" 8 (Nvram.pending_nt_bytes nv);
        Nvram.write_u64_nt nv ~addr:8 2L;
        Nvram.fence nv;
        Nvram.write_u64_nt nv ~addr:16 3L;  (* never fenced *)
        Nvram.crash nv;
        Alcotest.(check int64) "fenced 1" 1L (Nvram.read_u64 nv ~addr:0);
        Alcotest.(check int64) "fenced 2" 2L (Nvram.read_u64 nv ~addr:8);
        Alcotest.(check int64) "unfenced lost" 0L (Nvram.read_u64 nv ~addr:16));
    Alcotest.test_case "nt store preserves other dirty bytes of the line" `Quick
      (fun () ->
        let nv = mk_nvram () in
        Nvram.write_u64 nv ~addr:0 11L;  (* cached, dirty *)
        Nvram.write_u64_nt nv ~addr:8 22L;  (* same line: flushes it first *)
        Nvram.fence nv;
        Nvram.crash nv;
        Alcotest.(check int64) "cached neighbour survived" 11L
          (Nvram.read_u64 nv ~addr:0);
        Alcotest.(check int64) "nt value" 22L (Nvram.read_u64 nv ~addr:8));
    Alcotest.test_case "a cached store to a line with a queued nt word keeps \
                        the word" `Quick (fun () ->
        let nv = mk_nvram () in
        Nvram.write_u64_nt nv ~addr:0 1L;
        Nvram.write_u64 nv ~addr:8 5L;  (* same line: drains the queue *)
        Nvram.fence nv;
        Nvram.clflush nv ~addr:0;
        Nvram.crash nv;
        Alcotest.(check int64) "nt word" 1L (Nvram.read_u64 nv ~addr:0);
        Alcotest.(check int64) "cached word" 5L (Nvram.read_u64 nv ~addr:8));
    Alcotest.test_case "a cached load sees a queued nt word to its line"
      `Quick (fun () ->
        let nv = mk_nvram () in
        Nvram.write_u64_nt nv ~addr:64 7L;
        ignore (Nvram.read_u64 nv ~addr:128);
        Alcotest.(check int) "another line leaves the queue" 8
          (Nvram.pending_nt_bytes nv);
        Alcotest.(check int64) "load" 7L (Nvram.read_u64 nv ~addr:64);
        Alcotest.(check int) "drained" 0 (Nvram.pending_nt_bytes nv));
    Alcotest.test_case "clock accumulates and resets" `Quick (fun () ->
        let nv = mk_nvram () in
        ignore (Nvram.read_u64 nv ~addr:0);
        Alcotest.(check bool) "charged" true Time.(Nvram.clock nv > Time.zero);
        Nvram.reset_clock nv;
        Alcotest.(check bool) "reset" true (Time.equal (Nvram.clock nv) Time.zero));
    Alcotest.test_case "out-of-bounds access rejected" `Quick (fun () ->
        let nv = mk_nvram ~size:(Units.Size.kib 1) () in
        Alcotest.(check bool) "raises" true
          (try
             Nvram.write_u64 nv ~addr:1020 1L;
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "empty load_backing keeps the overlay line at addr"
      `Quick (fun () ->
        (* With len = 0, [addr + len - 1] rounds down into [addr]'s own
           line, which an empty load must not drop. *)
        let nv = mk_nvram () in
        Nvram.write_u64 nv ~addr:72 42L;
        Nvram.load_backing nv ~addr:100 Bytes.empty;
        Alcotest.(check int64) "overlay kept" 42L (Nvram.read_u64 nv ~addr:72));
    Alcotest.test_case "eviction persists data without an explicit flush" `Quick
      (fun () ->
        (* Write far more lines than the hierarchy can hold: early lines
           must have been written back to the backing store. *)
        let nv = Nvram.create ~size:(Units.Size.mib 64) () in
        let lines = 400_000 in
        for i = 0 to lines - 1 do
          Nvram.write_u64 nv ~addr:(i * 64) (Int64.of_int i)
        done;
        Alcotest.(check bool) "line 0 reached backing" true
          (Int64.equal (Nvram.peek_u64 nv ~addr:0) 0L
          && Nvram.dirty_bytes nv < lines * 64));
  ]

(* First-touch backing. The region is filled through stores and
   [wbinvd], then cleared from mid page 1 to mid page 5: pages 2-4 are
   dropped whole and keep their old bytes in the NVRAM's own backing,
   stale until the next touch zeroes them. Each case starts from a
   fresh region, because the first reader of a page defines it for
   every later one. *)
let ft_page = 4096
let ft_size = 8 * ft_page
let ft_lo = ft_page + 1000
let ft_hi = (5 * ft_page) + 300
let ft_old a = Char.chr (1 + (a mod 251))
let ft_want a = if a >= ft_lo && a < ft_hi then '\x00' else ft_old a
let ft_expect ~addr ~len = String.init len (fun i -> ft_want (addr + i))
let ft_word addr = String.get_int64_le (ft_expect ~addr ~len:8) 0

let ft_cleared () =
  let nv = Nvram.create ~size:(Units.Size.bytes ft_size) () in
  Nvram.write_bytes nv ~addr:0 (Bytes.init ft_size ft_old);
  Nvram.wbinvd nv;
  Nvram.clear_backing nv ~addr:ft_lo ~len:(ft_hi - ft_lo);
  nv

(* [got] holds the region from [addr], with [patch] laid over [want]. *)
let ft_check ?(patch = []) what ~addr got =
  let want = Bytes.of_string (ft_expect ~addr ~len:(Bytes.length got)) in
  List.iter (fun (a, v) -> Bytes.set_int64_le want (a - addr) v) patch;
  Alcotest.(check string) what (Bytes.to_string want) (Bytes.to_string got)

let first_touch_tests =
  let case name f = Alcotest.test_case name `Quick (fun () -> f (ft_cleared ())) in
  let whole nv read = read nv ~addr:0 ~len:ft_size in
  let v = 0x0123_4567_89AB_CDEFL in
  [
    case "read_u64 and read_int read a dropped page as zeroes" (fun nv ->
        let word what addr got = Alcotest.(check int64) what (ft_word addr) got in
        (* in one line of a dropped page, then straddling pages 2 and 3 *)
        word "one line" ((4 * ft_page) + 128)
          (Int64.of_int (Nvram.read_int nv ~addr:((4 * ft_page) + 128)));
        word "page boundary" ((3 * ft_page) - 4)
          (Nvram.read_u64 nv ~addr:((3 * ft_page) - 4));
        List.iter
          (fun addr -> word "clear boundary or outside" addr (Nvram.read_u64 nv ~addr))
          [ ft_lo - 4; ft_hi - 4; (6 * ft_page) + 8 ]);
    case "read_bytes" (fun nv ->
        ft_check "read_bytes" ~addr:0 (whole nv (fun nv ~addr ~len -> Nvram.read_bytes nv ~addr ~len)));
    case "peek_u64" (fun nv ->
        Alcotest.(check int64) "dropped page" 0L
          (Nvram.peek_u64 nv ~addr:((3 * ft_page) + 8)));
    case "peek_volatile" (fun nv ->
        let b = Bytes.create ft_size in
        Nvram.peek_volatile nv ~addr:0 ~len:ft_size b ~dst_off:0;
        ft_check "peek_volatile" ~addr:0 b);
    case "blit_backing" (fun nv ->
        let b = Bytes.create ft_size in
        Nvram.blit_backing nv ~addr:0 ~len:ft_size b ~dst_off:0;
        ft_check "blit_backing" ~addr:0 b);
    case "persistent_image and volatile_image" (fun nv ->
        ft_check "persistent_image" ~addr:0 (Nvram.persistent_image nv);
        ft_check "volatile_image" ~addr:0 (Nvram.volatile_image nv));
    case "a cached store into a dropped page" (fun nv ->
        let addr = (3 * ft_page) + 72 in
        Nvram.write_u64 nv ~addr v;
        let line = Bytes.create 64 in
        Nvram.peek_volatile nv ~addr:(addr - 8) ~len:64 line ~dst_off:0;
        ft_check ~patch:[ (addr, v) ] "the line's cached copy" ~addr:(addr - 8) line;
        Nvram.wbinvd nv;
        ft_check ~patch:[ (addr, v) ] "written back" ~addr:0 (Nvram.persistent_image nv));
    case "an nt word drained into a dropped page" (fun nv ->
        let addr = (4 * ft_page) + 200 in
        Nvram.write_u64_nt nv ~addr v;
        Nvram.fence nv;
        ft_check ~patch:[ (addr, v) ] "read_bytes" ~addr:(4 * ft_page)
          (Nvram.read_bytes nv ~addr:(4 * ft_page) ~len:ft_page));
    case "load_backing into a dropped page" (fun nv ->
        let addr = (2 * ft_page) + 504 in
        let w = Bytes.create 8 in
        Bytes.set_int64_le w 0 v;
        Nvram.load_backing nv ~addr w;
        ft_check ~patch:[ (addr, v) ] "read_bytes" ~addr:0
          (Nvram.read_bytes nv ~addr:0 ~len:ft_size));
    Alcotest.test_case "a caller's backing keeps its bytes; clear zeroes them"
      `Quick (fun () ->
        let b = Bytes.make ft_size '\xCC' in
        let nv = Nvram.create ~backing:b ~size:(Units.Size.bytes ft_size) () in
        Alcotest.(check int64) "read" 0xCCCC_CCCC_CCCC_CCCCL
          (Nvram.read_u64 nv ~addr:(3 * ft_page));
        Nvram.clear_backing nv ~addr:ft_lo ~len:(ft_hi - ft_lo);
        let want =
          String.init ft_size (fun a -> if a >= ft_lo && a < ft_hi then '\x00' else '\xCC')
        in
        Alcotest.(check string) "the caller's bytes" want (Bytes.to_string b);
        Alcotest.(check string) "read_bytes" want
          (Bytes.to_string (Nvram.read_bytes nv ~addr:0 ~len:ft_size)));
  ]

let nvram_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"persistent image = writes that were flushed or evicted"
         ~count:50
         QCheck2.Gen.(list_size (int_range 1 100) (pair (int_range 0 500) (int_range 0 1)))
         (fun ops ->
           let nv = mk_nvram () in
           let model = Hashtbl.create 64 in
           List.iteri
             (fun i (slot, flush) ->
               let addr = slot * 8 in
               let v = Int64.of_int i in
               Nvram.write_u64 nv ~addr v;
               Hashtbl.replace model addr (v, flush = 1);
               if flush = 1 then Nvram.clflush nv ~addr)
             ops;
           Nvram.crash nv;
           (* Every write whose last version was flushed must be visible. *)
           Hashtbl.fold
             (fun addr (v, flushed) ok ->
               ok
               &&
               if flushed then Int64.equal (Nvram.read_u64 nv ~addr) v
               else true)
             model true));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"wbinvd then crash preserves all writes"
         ~count:50
         QCheck2.Gen.(list_size (int_range 1 100) (int_range 0 500))
         (fun slots ->
           let nv = mk_nvram () in
           List.iteri
             (fun i slot -> Nvram.write_u64 nv ~addr:(slot * 8) (Int64.of_int i))
             slots;
           let expected =
             List.mapi (fun i slot -> (slot * 8, Int64.of_int i)) slots
             |> List.rev
             |> List.fold_left
                  (fun acc (addr, v) ->
                    if List.mem_assoc addr acc then acc else (addr, v) :: acc)
                  []
           in
           Nvram.wbinvd nv;
           Nvram.crash nv;
           List.for_all
             (fun (addr, v) -> Int64.equal (Nvram.read_u64 nv ~addr) v)
             expected));
  ]

(* Satellite: randomized fence/crash semantics. The invariant the whole
   flush-on-commit story rests on: a non-temporal store is durable iff
   some fence ran after it (and before the crash). *)
let fence_crash_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"nt stores survive a crash iff fenced before it" ~count:100
         QCheck2.Gen.(
           list_size (int_range 1 80) (pair (int_range 0 400) (int_range 0 3)))
         (fun ops ->
           let nv = mk_nvram () in
           (* Replay the op stream against a model that moves values from
              [pending] to [drained] at each fence. *)
           let drained = Hashtbl.create 64 and pending = Hashtbl.create 64 in
           List.iteri
             (fun i (slot, fence) ->
               let addr = slot * 8 in
               let v = Int64.of_int (i + 1) in
               Nvram.write_u64_nt nv ~addr v;
               Hashtbl.replace pending addr v;
               if fence = 0 then begin
                 Nvram.fence nv;
                 Hashtbl.iter (Hashtbl.replace drained) pending;
                 Hashtbl.reset pending
               end)
             ops;
           Nvram.crash nv;
           let expected addr =
             match Hashtbl.find_opt drained addr with Some v -> v | None -> 0L
           in
           let all_addrs = Hashtbl.create 64 in
           List.iter (fun (slot, _) -> Hashtbl.replace all_addrs (slot * 8) ()) ops;
           Hashtbl.fold
             (fun addr () ok ->
               ok && Int64.equal (Nvram.read_u64 nv ~addr) (expected addr))
             all_addrs true));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"unfenced nt stores never leak into the persistent image"
         ~count:100
         QCheck2.Gen.(list_size (int_range 1 50) (int_range 0 400))
         (fun slots ->
           let nv = mk_nvram () in
           List.iteri
             (fun i slot -> Nvram.write_u64_nt nv ~addr:(slot * 8) (Int64.of_int (i + 1)))
             slots;
           (* No fence at all: the backing store must still be zeros. *)
           let img = Nvram.persistent_image nv in
           Nvram.crash nv;
           List.for_all
             (fun slot ->
               Int64.equal (Bytes.get_int64_le img (slot * 8)) 0L
               && Int64.equal (Nvram.read_u64 nv ~addr:(slot * 8)) 0L)
             slots));
  ]

(* The dirty overlay against a flat byte model. A two-level hierarchy
   of 8 and 16 lines over a 1536-line NVRAM (three overlay pages): the
   streams touch a few lines at the start, at a page boundary and near
   the end, more lines than the hierarchy holds, so capacity evictions
   write dirty lines back mid-stream. DMA loads are line-aligned, so
   they drop whole overlay lines and the flat model stays exact. *)

type ov_op =
  | O_write of int * int64  (* an aligned word, or one straddling lines *)
  | O_bytes of int * string
  | O_read of int  (* a cached load of the word at this address *)
  | O_nt of int * int64
  | O_fence
  | O_clflush of int
  | O_flush_range of int * int
  | O_wbinvd
  | O_load of int * string  (* first line, whole lines of bytes *)
  | O_clear of int * int  (* first line, line count *)
  | O_crash

let ov_lines = List.init 6 Fun.id @ List.init 6 (( + ) 509) @ List.init 6 (( + ) 1526)
let ov_line_count = 1536

(* Every line a stream can touch: a multi-line write runs past its
   line. *)
let ov_checked =
  List.concat_map (fun l -> [ l; l + 1; l + 2; l + 3 ]) ov_lines
  |> List.filter (fun l -> l < ov_line_count)
  |> List.sort_uniq compare

let ov_hierarchy =
  let level name bytes associativity =
    {
      Wsp_machine.Cache.name;
      size = Units.Size.bytes bytes;
      line_size = 64;
      associativity;
      hit_latency = Time.ns 1.0;
    }
  in
  {
    Wsp_machine.Hierarchy.levels = [ level "L1" 512 2; level "L2" 1024 4 ];
    memory_latency = Time.ns 60.0;
    memory_bandwidth = Units.Bandwidth.gib_per_s 10.0;
    memory_write_bandwidth = Units.Bandwidth.gib_per_s 10.0;
    nt_store_latency = Time.ns 20.0;
    fence_latency = Time.ns 50.0;
    clflush_issue = Time.ns 6.0;
    wbinvd_line_walk = Time.ns 7.0;
  }

let gen_ov_op =
  QCheck2.Gen.(
    let line = oneofl ov_lines in
    let word = map Int64.of_int int in
    let aligned = map2 (fun l k -> (l * 64) + (8 * k)) line (int_range 0 7) in
    let straddling = map2 (fun l k -> (l * 64) + 56 + k) line (int_range 1 7) in
    let bytes n = string_size ~gen:char (return n) in
    frequency
      [
        (6, map2 (fun a v -> O_write (a, v)) aligned word);
        (2, map2 (fun a v -> O_write (a, v)) straddling word);
        ( 1,
          map3
            (fun l off s -> O_bytes ((l * 64) + off, s))
            line (int_range 0 63)
            (int_range 1 130 >>= bytes) );
        (2, map (fun a -> O_read a) (oneof [ aligned; straddling ]));
        (3, map2 (fun a v -> O_nt (a, v)) aligned word);
        (2, return O_fence);
        (2, map (fun a -> O_clflush a) (oneof [ aligned; straddling ]));
        (1, map2 (fun a len -> O_flush_range (a, len)) aligned (int_range 1 200));
        (1, return O_wbinvd);
        ( 1,
          map2 (fun l s -> O_load (l, s)) line (int_range 1 2 >>= fun n -> bytes (64 * n)) );
        (1, map2 (fun l n -> O_clear (l, n)) line (int_range 1 2));
        (1, return O_crash);
      ])

(* One step on both sides; [false] iff a cached load disagrees with the
   model. [dma] records whether a DMA load has run, after which the
   overlay may hold lines the hierarchy does not. *)
let ov_step nv model dma op =
  match op with
  | O_write (addr, v) ->
      Nvram.write_u64 nv ~addr v;
      Bytes.set_int64_le model addr v;
      true
  | O_bytes (addr, s) ->
      Nvram.write_bytes nv ~addr (Bytes.of_string s);
      Bytes.blit_string s 0 model addr (String.length s);
      true
  | O_read addr -> Int64.equal (Nvram.read_u64 nv ~addr) (Bytes.get_int64_le model addr)
  | O_nt (addr, v) ->
      Nvram.write_u64_nt nv ~addr v;
      Bytes.set_int64_le model addr v;
      true
  | O_fence ->
      Nvram.fence nv;
      true
  | O_clflush addr ->
      Nvram.clflush nv ~addr;
      true
  | O_flush_range (addr, len) ->
      Nvram.flush_range nv ~addr ~len;
      true
  | O_wbinvd ->
      Nvram.wbinvd nv;
      true
  | O_load (line, s) ->
      Nvram.load_backing nv ~addr:(line * 64) (Bytes.of_string s);
      dma := true;
      Bytes.blit_string s 0 model (line * 64) (String.length s);
      true
  | O_clear (line, n) ->
      Nvram.clear_backing nv ~addr:(line * 64) ~len:(n * 64);
      dma := true;
      Bytes.fill model (line * 64) (n * 64) '\x00';
      true
  | O_crash ->
      Nvram.crash nv;
      true

let ov_print =
  let one = function
    | O_write (a, v) -> Printf.sprintf "write %d %Ld" a v
    | O_bytes (a, s) -> Printf.sprintf "bytes %d +%d" a (String.length s)
    | O_read a -> Printf.sprintf "read %d" a
    | O_nt (a, v) -> Printf.sprintf "nt %d %Ld" a v
    | O_fence -> "fence"
    | O_clflush a -> Printf.sprintf "clflush %d" a
    | O_flush_range (a, n) -> Printf.sprintf "flush_range %d +%d" a n
    | O_wbinvd -> "wbinvd"
    | O_load (l, s) -> Printf.sprintf "load line %d +%d" l (String.length s)
    | O_clear (l, n) -> Printf.sprintf "clear line %d x%d" l n
    | O_crash -> "crash"
  in
  fun ops -> String.concat "; " (List.map one ops)

let ov_view nv line =
  let b = Bytes.create 64 in
  Nvram.peek_volatile nv ~addr:(line * 64) ~len:64 b ~dst_off:0;
  b

let overlay_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"the overlay agrees with a flat byte model at every step"
         ~count:200 ~print:ov_print
         QCheck2.Gen.(list_size (int_range 1 150) gen_ov_op)
         (fun ops ->
           let size = Units.Size.bytes (ov_line_count * 64) in
           let nv = Nvram.create ~hierarchy:ov_hierarchy ~size () in
           let model = Bytes.make (ov_line_count * 64) '\x00' in
           let dma = ref false in
           List.for_all
             (fun op ->
               let read_ok = ov_step nv model dma op in
               let crashed = op = O_crash in
               let persistent = Nvram.persistent_image nv in
               let view_ok =
                 List.for_all
                   (fun line ->
                     let want =
                       if crashed then Bytes.sub persistent (line * 64) 64
                       else Bytes.sub model (line * 64) 64
                     in
                     Bytes.equal (ov_view nv line) want)
                   ov_checked
               in
               if crashed then Bytes.blit persistent 0 model 0 (Bytes.length model);
               let lines_ok =
                 !dma
                 || List.sort compare (List.map fst (Nvram.overlay_lines nv))
                    = List.sort compare
                        (Wsp_machine.Hierarchy.dirty_lines (Nvram.hierarchy nv))
               in
               read_ok && view_ok && lines_ok)
             ops
           && Bytes.equal (Nvram.volatile_image nv) model));
  ]

(* --- Alloc ---------------------------------------------------------------- *)

let mk_alloc ?(len = Units.Size.kib 8) () =
  let nv = mk_nvram () in
  (nv, Alloc.create nv ~base:0 ~len)

let alloc_tests =
  [
    Alcotest.test_case "allocations are aligned and disjoint" `Quick (fun () ->
        let _, a = mk_alloc () in
        let p1 = Alloc.alloc a 24 in
        let p2 = Alloc.alloc a 100 in
        Alcotest.(check int) "aligned 1" 0 (p1 mod 8);
        Alcotest.(check int) "aligned 2" 0 (p2 mod 8);
        Alcotest.(check bool) "disjoint" true
          (p2 >= p1 + 24 || p1 >= p2 + 104));
    Alcotest.test_case "free and reuse" `Quick (fun () ->
        let _, a = mk_alloc () in
        let p1 = Alloc.alloc a 64 in
        Alloc.free a p1;
        let p2 = Alloc.alloc a 64 in
        Alcotest.(check int) "reused" p1 p2);
    Alcotest.test_case "payload_size reports the rounded size" `Quick (fun () ->
        let _, a = mk_alloc () in
        let p = Alloc.alloc a 20 in
        Alcotest.(check int) "rounded" 24 (Alloc.payload_size a p));
    Alcotest.test_case "double free rejected" `Quick (fun () ->
        let _, a = mk_alloc () in
        let p = Alloc.alloc a 16 in
        Alloc.free a p;
        Alcotest.(check bool) "raises" true
          (try
             Alloc.free a p;
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "out of memory raises" `Quick (fun () ->
        let _, a = mk_alloc ~len:256 () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Alloc.alloc a 1024);
             false
           with Out_of_memory -> true));
    Alcotest.test_case "coalescing lets a large block come back" `Quick
      (fun () ->
        let _, a = mk_alloc ~len:1024 () in
        (* Fill the region with small blocks, free them newest-first so
           each free coalesces with its right neighbour, then allocate
           one large block. *)
        let ps = List.init 8 (fun _ -> Alloc.alloc a 64) in
        List.iter (Alloc.free a) (List.rev ps);
        let big = Alloc.alloc a 700 in
        Alcotest.(check bool) "fits" true (big > 0));
    Alcotest.test_case "accounting adds up" `Quick (fun () ->
        let _, a = mk_alloc ~len:1024 () in
        let _ = Alloc.alloc a 64 in
        let _ = Alloc.alloc a 128 in
        Alcotest.(check int) "allocated" (64 + 128) (Alloc.allocated_bytes a);
        Alcotest.(check bool) "invariants" true
          (Alloc.check_invariants a = Ok ()));
    Alcotest.test_case "recover rebuilds the free index after a flushed crash"
      `Quick (fun () ->
        let nv, a = mk_alloc () in
        let p1 = Alloc.alloc a 64 in
        let _p2 = Alloc.alloc a 64 in
        Alloc.free a p1;
        Nvram.wbinvd nv;
        Nvram.crash nv;
        let a' = Alloc.attach nv ~base:0 ~len:(Units.Size.kib 8) in
        Alcotest.(check bool) "invariants hold" true
          (Alloc.check_invariants a' = Ok ());
        Alcotest.(check int) "allocated bytes match" 64 (Alloc.allocated_bytes a');
        (* The freed block is allocatable again. *)
        let p3 = Alloc.alloc a' 64 in
        Alcotest.(check int) "reuses the freed block" p1 p3);
    Alcotest.test_case "iter_allocated visits exactly the live blocks" `Quick
      (fun () ->
        let _, a = mk_alloc () in
        let p1 = Alloc.alloc a 16 in
        let p2 = Alloc.alloc a 32 in
        Alloc.free a p1;
        let seen = ref [] in
        Alloc.iter_allocated a (fun ~addr ~size -> seen := (addr, size) :: !seen);
        Alcotest.(check (list (pair int int))) "live" [ (p2, 32) ] !seen);
  ]

let alloc_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"live allocations never overlap" ~count:100
         QCheck2.Gen.(list_size (int_range 1 60) (int_range (-30) 120))
         (fun ops ->
           (* Positive n: allocate n bytes; negative: free the oldest
              live allocation. *)
           let _, a = mk_alloc ~len:(Units.Size.kib 16) () in
           let live = ref [] in
           List.iter
             (fun n ->
               if n > 0 then (
                 match Alloc.alloc a n with
                 | p -> live := !live @ [ (p, (n + 7) / 8 * 8) ]
                 | exception Out_of_memory -> ())
               else
                 match !live with
                 | [] -> ()
                 | (p, _) :: rest ->
                     Alloc.free a p;
                     live := rest)
             ops;
           let rec disjoint = function
             | [] -> true
             | (p, n) :: rest ->
                 List.for_all (fun (q, m) -> q >= p + n || p >= q + m) rest
                 && disjoint rest
           in
           disjoint !live && Alloc.check_invariants a = Ok ()));
  ]

(* --- Rawlog ---------------------------------------------------------------- *)

let mk_log ?(len = 4096) () =
  let nv = mk_nvram () in
  (nv, Rawlog.create nv ~base:0 ~len)

let rawlog_tests =
  [
    Alcotest.test_case "append and scan round-trip" `Quick (fun () ->
        let _, log = mk_log () in
        Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 10L; 20L |];
        Rawlog.append log ~mode:Rawlog.Durable ~kind:2 [| -1L |];
        match Rawlog.scan log with
        | [ (1, a); (2, b) ] ->
            Alcotest.(check (array int64)) "first" [| 10L; 20L |] a;
            Alcotest.(check (array int64)) "second" [| -1L |] b
        | records ->
            Alcotest.failf "expected 2 records, got %d" (List.length records));
    Alcotest.test_case "truncate empties the log" `Quick (fun () ->
        let _, log = mk_log () in
        Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 1L |];
        Rawlog.truncate log ~mode:Rawlog.Durable;
        Alcotest.(check int) "empty" 0 (List.length (Rawlog.scan log));
        Alcotest.(check int) "head reset" 0 (Rawlog.used_words log));
    Alcotest.test_case "records appended after truncation are visible" `Quick
      (fun () ->
        let _, log = mk_log () in
        Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 1L |];
        Rawlog.truncate log ~mode:Rawlog.Durable;
        Rawlog.append log ~mode:Rawlog.Durable ~kind:3 [| 9L |];
        match Rawlog.scan log with
        | [ (3, [| 9L |]) ] -> ()
        | _ -> Alcotest.fail "stale records leaked through the generation");
    Alcotest.test_case "durable appends survive a crash; cached do not" `Quick
      (fun () ->
        let nv, log = mk_log () in
        Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 1L |];
        Rawlog.append log ~mode:Rawlog.Cached ~kind:2 [| 2L |];
        Nvram.crash nv;
        let log' = Rawlog.attach nv ~base:0 ~len:4096 in
        match Rawlog.scan log' with
        | [ (1, [| 1L |]) ] -> ()
        | records ->
            Alcotest.failf "expected only the durable record, got %d"
              (List.length records));
    Alcotest.test_case "a torn record stops the scan" `Quick (fun () ->
        let nv, log = mk_log () in
        Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 1L |];
        (* Hand-corrupt the second record: write only its header word
           with the current generation, leaving the payload stale. *)
        let gen = Rawlog.generation log in
        let header =
          Int64.logor (Int64.shift_left (Int64.of_int ((7 lsl 24) lor 2)) 16)
            (Int64.of_int gen)
        in
        Nvram.write_u64 nv ~addr:(8 * 4) header;
        Nvram.fence nv;
        (match Rawlog.scan log with
        | [ (1, _) ] -> ()
        | records ->
            Alcotest.failf "torn record leaked: %d records" (List.length records)));
    Alcotest.test_case "scan_persistent sees only flushed state" `Quick
      (fun () ->
        let _nv, log = mk_log () in
        Rawlog.append log ~mode:Rawlog.Cached ~kind:1 [| 5L |];
        Alcotest.(check int) "cached scan sees it" 1
          (List.length (Rawlog.scan log));
        Alcotest.(check int) "persistent scan does not" 0
          (List.length (Rawlog.scan_persistent log)));
    Alcotest.test_case "log full raises" `Quick (fun () ->
        let _, log = mk_log ~len:64 () in
        Alcotest.(check bool) "raises" true
          (try
             for _ = 1 to 10 do
               Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 0L |]
             done;
             false
           with Rawlog.Log_full -> true));
    Alcotest.test_case "attach recomputes the head" `Quick (fun () ->
        let nv, log = mk_log () in
        Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 1L; 2L |];
        let used = Rawlog.used_words log in
        let log' = Rawlog.attach nv ~base:0 ~len:4096 in
        Alcotest.(check int) "head" used (Rawlog.used_words log');
        Rawlog.append log' ~mode:Rawlog.Durable ~kind:2 [| 3L |];
        Alcotest.(check int) "both records" 2 (List.length (Rawlog.scan log')));
  ]

let rawlog_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"persistent view of a cached log is a prefix of the appends"
         ~count:60
         QCheck2.Gen.(
           pair
             (list_size (int_range 1 30) (int_range (-500) 500))
             (list_size (int_range 0 200) (int_range 0 400)))
         (fun (payloads, traffic) ->
           (* Cached-mode appends are durable only via incidental cache
              evictions; whatever the crash-surviving scan sees must be a
              prefix of what was appended (the generation tags stop it at
              the first torn/unpersisted record). *)
           let nv = mk_nvram () in
           let log = Rawlog.create nv ~base:0 ~len:8192 in
           let appended =
             List.mapi
               (fun i v -> (1 + (i mod 5), [| Int64.of_int v |]))
               payloads
           in
           List.iter
             (fun (kind, values) -> Rawlog.append log ~mode:Rawlog.Cached ~kind values)
             appended;
           (* Unrelated traffic forces arbitrary evictions. *)
           List.iter
             (fun slot -> Nvram.write_u64 nv ~addr:(16384 + (slot * 8)) 1L)
             traffic;
           let persisted = Rawlog.scan_persistent log in
           let rec is_prefix xs ys =
             match (xs, ys) with
             | [], _ -> true
             | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
             | _ :: _, [] -> false
           in
           let as_cmp = List.map (fun (k, v) -> (k, Array.to_list v)) in
           is_prefix (as_cmp persisted) (as_cmp appended)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"scan returns exactly what was appended"
         ~count:100
         QCheck2.Gen.(
           list_size (int_range 0 20)
             (pair (int_range 0 255) (list_size (int_range 0 4) (int_range (-1000) 1000))))
         (fun records ->
           let _, log = mk_log ~len:65536 () in
           List.iter
             (fun (kind, values) ->
               Rawlog.append log ~mode:Rawlog.Durable ~kind
                 (Array.of_list (List.map Int64.of_int values)))
             records;
           let scanned =
             List.map
               (fun (kind, values) -> (kind, Array.to_list (Array.map Int64.to_int values)))
               (Rawlog.scan log)
           in
           scanned = records));
  ]

(* Satellite: torn-append enumeration. The modelled hardware (like x86)
   persists aligned 8-byte stores atomically, so the honest crash
   granularity inside an append is the word, not the byte: a power
   failure cannot leave half of an aligned store behind. We therefore
   materialise, for every word-prefix of a record's stores, the state in
   which exactly that prefix reached NVRAM, and require the scan to stop
   cleanly at the last complete entry. Each log word carries the
   generation tag in its low bits, so any missing word un-validates the
   whole record — which is what makes prefix enumeration exhaustive. *)
let rawlog_torn_tests =
  (* Returns [base image; full image; ascending word indices written by
     the second append]. *)
  let two_appends () =
    let nv, log = mk_log () in
    Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 11L; 22L |];
    let base = Nvram.persistent_image nv in
    Rawlog.append log ~mode:Rawlog.Durable ~kind:2 [| 33L; 44L |];
    let full = Nvram.persistent_image nv in
    let words = ref [] in
    for w = (Bytes.length base / 8) - 1 downto 0 do
      if
        not
          (Int64.equal
             (Bytes.get_int64_le base (8 * w))
             (Bytes.get_int64_le full (8 * w)))
      then words := w :: !words
    done;
    (base, full, !words)
  in
  let scan_torn base full words w =
    let torn = Bytes.copy base in
    List.iteri
      (fun i wd ->
        if i < w then
          Bytes.set_int64_le torn (8 * wd) (Bytes.get_int64_le full (8 * wd)))
      words;
    let nv = Nvram.create ~backing:torn ~size:(Units.Size.kib 256) () in
    (nv, Rawlog.attach nv ~base:0 ~len:4096)
  in
  [
    Alcotest.test_case "torn append at every word offset stops the scan" `Quick
      (fun () ->
        let base, full, words = two_appends () in
        let n_words = List.length words in
        Alcotest.(check int) "record footprint (header + 2 tagged words/value)"
          (1 + (2 * 2)) n_words;
        for w = 0 to n_words - 1 do
          let _, log = scan_torn base full words w in
          match Rawlog.scan log with
          | [ (1, [| 11L; 22L |]) ] -> ()
          | records ->
              Alcotest.failf "prefix %d/%d words: got %d records" w n_words
                (List.length records)
        done;
        (* Sanity: the full prefix is a complete record. *)
        let _, log = scan_torn base full words n_words in
        Alcotest.(check int) "complete record scans" 2
          (List.length (Rawlog.scan log)));
    Alcotest.test_case "log stays appendable over a torn tail" `Quick (fun () ->
        let base, full, words = two_appends () in
        let _, log = scan_torn base full words (List.length words - 1) in
        Rawlog.append log ~mode:Rawlog.Durable ~kind:5 [| 7L |];
        match Rawlog.scan log with
        | [ (1, [| 11L; 22L |]); (5, [| 7L |]) ] -> ()
        | records ->
            Alcotest.failf "expected survivor + fresh record, got %d"
              (List.length records));
    Alcotest.test_case "a crash at any event inside an append loses it all"
      `Quick (fun () ->
        (* Same property through the real instrumentation: cut execution
           at every persistency event the append emits (each NT store and
           the trailing fence) and crash. Before the fence has drained,
           nothing of the record may survive. *)
        let exception Cut in
        let events_in_append =
          let nv, log = mk_log () in
          Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 1L |];
          let n = ref 0 in
          let sub =
            Wsp_events.Bus.subscribe (Nvram.bus nv) (function
              | Event.Mem _ -> incr n
              | Event.Log _ | Event.Tx _ | Event.Wb _ | Event.Heap _ -> ())
          in
          Rawlog.append log ~mode:Rawlog.Durable ~kind:2 [| 33L; 44L |];
          Wsp_events.Bus.unsubscribe sub;
          !n
        in
        Alcotest.(check int) "events = stores + fence" (1 + (2 * 2) + 1)
          events_in_append;
        for cut = 0 to events_in_append - 1 do
          let nv, log = mk_log () in
          Rawlog.append log ~mode:Rawlog.Durable ~kind:1 [| 1L |];
          let n = ref 0 in
          let sub =
            Wsp_events.Bus.subscribe (Nvram.bus nv) (function
              | Event.Mem _ -> if !n >= cut then raise Cut else incr n
              | Event.Log _ | Event.Tx _ | Event.Wb _ | Event.Heap _ -> ())
          in
          (try Rawlog.append log ~mode:Rawlog.Durable ~kind:2 [| 33L; 44L |]
           with Cut -> ());
          Wsp_events.Bus.unsubscribe sub;
          Nvram.crash nv;
          let log' = Rawlog.attach nv ~base:0 ~len:4096 in
          match Rawlog.scan log' with
          | [ (1, [| 1L |]) ] -> ()
          | records ->
              Alcotest.failf "cut at event %d: %d records survived" cut
                (List.length records)
        done);
  ]

(* --- Txn: commit/abort/recovery with crash injection ----------------------- *)

let mk_txn config =
  let nv = mk_nvram () in
  let log = Rawlog.create nv ~base:0 ~len:(Units.Size.kib 64) in
  (nv, Txn.create ~nvram:nv ~config ~log ())

let data_base = Units.Size.kib 64

(* The inline [nvheap.txn.<name>] counter of the registry [nv] counts
   into. *)
let txn_counter nv name =
  Wsp_obs.Metrics.Counter.value
    (Wsp_obs.Metrics.counter (Nvram.metrics nv) ("nvheap.txn." ^ name))

let txn_tests =
  [
    Alcotest.test_case "undo: each address is logged once per transaction"
      `Quick (fun () ->
        (* 300 addresses grow the undo set from 64 slots to 1024, and the
           second transaction must log them all again. *)
        let _, txn = mk_txn Config.foc_ul in
        let addrs =
          List.init 300 (fun i ->
              if i mod 2 = 0 then data_base + (8 * (i * 37 mod 300))
              else data_base + 4096 + (512 * i))
        in
        let undo_records () =
          List.length
            (List.filter (fun (kind, _) -> kind = 2) (Rawlog.scan (Txn.log txn)))
        in
        List.iter (fun addr -> Txn.write_u64 txn ~addr 1L) addrs;
        for round = 1 to 2 do
          Txn.begin_tx txn;
          List.iter (fun addr -> Txn.write_u64 txn ~addr 2L) addrs;
          List.iter (fun addr -> Txn.write_u64 txn ~addr 3L) (List.rev addrs);
          Alcotest.(check int)
            (Printf.sprintf "undo records, round %d" round)
            (List.length addrs) (undo_records ());
          Txn.abort txn;
          List.iter
            (fun addr ->
              Alcotest.(check int64) "rolled back" 1L (Txn.read_u64 txn ~addr))
            addrs
        done);
    Alcotest.test_case "undo: abort rolls back in-place writes" `Quick (fun () ->
        let _, txn = mk_txn Config.foc_ul in
        Txn.write_u64 txn ~addr:data_base 1L;
        Txn.begin_tx txn;
        Txn.write_u64 txn ~addr:data_base 2L;
        Alcotest.(check int64) "visible inside" 2L (Txn.read_u64 txn ~addr:data_base);
        Txn.abort txn;
        Alcotest.(check int64) "rolled back" 1L (Txn.read_u64 txn ~addr:data_base));
    Alcotest.test_case "redo: abort discards buffered writes" `Quick (fun () ->
        let _, txn = mk_txn Config.foc_stm in
        Txn.write_u64 txn ~addr:data_base 1L;
        Txn.begin_tx txn;
        Txn.write_u64 txn ~addr:data_base 2L;
        Alcotest.(check int64) "read-your-write" 2L (Txn.read_u64 txn ~addr:data_base);
        Txn.abort txn;
        Alcotest.(check int64) "discarded" 1L (Txn.read_u64 txn ~addr:data_base));
    Alcotest.test_case "foc-undo: committed data survives a crash" `Quick
      (fun () ->
        let nv, txn = mk_txn Config.foc_ul in
        Txn.with_tx txn (fun () ->
            Txn.write_u64 txn ~addr:data_base 7L;
            Txn.write_u64 txn ~addr:(data_base + 8) 8L);
        Nvram.crash nv;
        Txn.on_crash txn;
        Txn.recover txn;
        Alcotest.(check int64) "first" 7L (Txn.read_u64 txn ~addr:data_base);
        Alcotest.(check int64) "second" 8L (Txn.read_u64 txn ~addr:(data_base + 8)));
    Alcotest.test_case "foc-undo: crash mid-transaction rolls back" `Quick
      (fun () ->
        let nv, txn = mk_txn Config.foc_ul in
        Txn.with_tx txn (fun () -> Txn.write_u64 txn ~addr:data_base 1L);
        Txn.begin_tx txn;
        Txn.write_u64 txn ~addr:data_base 99L;
        (* Make the torn in-place write actually reach NVRAM: worst case. *)
        Nvram.clflush nv ~addr:data_base;
        Nvram.crash nv;
        Txn.on_crash txn;
        Txn.recover txn;
        Alcotest.(check int64) "rolled back to committed" 1L
          (Txn.read_u64 txn ~addr:data_base));
    Alcotest.test_case "foc-redo: committed transactions replay after a crash"
      `Quick (fun () ->
        let nv, txn = mk_txn Config.foc_stm in
        Txn.with_tx txn (fun () ->
            Txn.write_u64 txn ~addr:data_base 5L;
            Txn.write_u64 txn ~addr:(data_base + 8) 6L);
        (* The in-place apply stayed in cache; the crash eats it, the
           redo log resurrects it. *)
        Nvram.crash nv;
        Txn.on_crash txn;
        Txn.recover txn;
        Alcotest.(check int64) "first" 5L (Txn.read_u64 txn ~addr:data_base);
        Alcotest.(check int64) "second" 6L (Txn.read_u64 txn ~addr:(data_base + 8)));
    Alcotest.test_case "foc-redo: uncommitted transaction leaves no trace"
      `Quick (fun () ->
        let nv, txn = mk_txn Config.foc_stm in
        Txn.with_tx txn (fun () -> Txn.write_u64 txn ~addr:data_base 1L);
        Txn.begin_tx txn;
        Txn.write_u64 txn ~addr:data_base 2L;
        Nvram.crash nv;
        Txn.on_crash txn;
        Txn.recover txn;
        Alcotest.(check int64) "committed value" 1L (Txn.read_u64 txn ~addr:data_base));
    Alcotest.test_case "fof configs lose uncommitted cache state on a bare crash"
      `Quick (fun () ->
        let nv, txn = mk_txn Config.fof_ul in
        Txn.with_tx txn (fun () -> Txn.write_u64 txn ~addr:data_base 42L);
        Nvram.crash nv;
        Txn.on_crash txn;
        Txn.recover txn;
        (* No WSP flush happened: flush-on-fail makes no promise here. *)
        Alcotest.(check int64) "lost" 0L (Txn.read_u64 txn ~addr:data_base));
    Alcotest.test_case "fof configs survive a crash after a WSP flush" `Quick
      (fun () ->
        let nv, txn = mk_txn Config.fof_ul in
        Txn.with_tx txn (fun () -> Txn.write_u64 txn ~addr:data_base 42L);
        Nvram.wbinvd nv;  (* the flush-on-fail save path *)
        Nvram.crash nv;
        Txn.on_crash txn;
        Txn.recover txn;
        Alcotest.(check int64) "kept" 42L (Txn.read_u64 txn ~addr:data_base));
    Alcotest.test_case "counters" `Quick (fun () ->
        let nv, txn = mk_txn Config.foc_ul in
        let commits = txn_counter nv "commits"
        and aborts = txn_counter nv "aborts" in
        Txn.with_tx txn (fun () -> Txn.write_u64 txn ~addr:data_base 1L);
        Txn.begin_tx txn;
        Txn.abort txn;
        Alcotest.(check int) "committed" 1 (txn_counter nv "commits" - commits);
        Alcotest.(check int) "aborted" 1 (txn_counter nv "aborts" - aborts));
    Alcotest.test_case "nested begin rejected" `Quick (fun () ->
        let _, txn = mk_txn Config.foc_ul in
        Txn.begin_tx txn;
        Alcotest.(check bool) "raises" true
          (try
             Txn.begin_tx txn;
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "with_tx aborts on exception" `Quick (fun () ->
        let _, txn = mk_txn Config.foc_ul in
        Txn.write_u64 txn ~addr:data_base 1L;
        (try
           Txn.with_tx txn (fun () ->
               Txn.write_u64 txn ~addr:data_base 2L;
               failwith "boom")
         with Failure _ -> ());
        Alcotest.(check int64) "rolled back" 1L (Txn.read_u64 txn ~addr:data_base);
        Alcotest.(check bool) "no open tx" false (Txn.in_tx txn));
  ]

(* Crash injection: run a random sequence of transactions against both
   the heap and a model, crash at a random point, recover, and check
   that exactly the committed prefix survives (for FoC configs). *)
let txn_crash_prop config =
  let name =
    Printf.sprintf "%s: crash at any point preserves committed state"
      config.Config.name
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:60
       QCheck2.Gen.(
         pair small_int
           (list_size (int_range 1 12)
              (list_size (int_range 1 6) (pair (int_range 0 40) (int_range 0 1000)))))
       (fun (crash_after, txs) ->
         let nv, txn = mk_txn config in
         let model = Hashtbl.create 32 in
         let committed = Hashtbl.create 32 in
         let crash_after = crash_after mod (List.length txs + 1) in
         List.iteri
           (fun i writes ->
             if i < crash_after then begin
               Txn.with_tx txn (fun () ->
                   List.iter
                     (fun (slot, v) ->
                       let addr = data_base + (slot * 8) in
                       Txn.write_u64 txn ~addr (Int64.of_int v);
                       Hashtbl.replace model addr (Int64.of_int v))
                     writes);
               Hashtbl.reset committed;
               Hashtbl.iter (Hashtbl.replace committed) model
             end
             else if i = crash_after then begin
               (* This transaction is in flight at the crash. *)
               Txn.begin_tx txn;
               List.iter
                 (fun (slot, v) ->
                     let addr = data_base + (slot * 8) in
                     Txn.write_u64 txn ~addr (Int64.of_int v))
                 writes
             end)
           txs;
         Nvram.crash nv;
         Txn.on_crash txn;
         Txn.recover txn;
         Hashtbl.fold
           (fun addr v ok ->
             ok && Int64.equal (Txn.read_u64 txn ~addr) v)
           committed true))

(* --- Pheap ------------------------------------------------------------------ *)

(* Which configurations run a durable update inside a transaction: all
   but plain flush-on-fail (the shard service's answer since it first
   served under every backend). *)
let brackets_durable_updates =
  [
    ("FoC + STM", true);
    ("FoC + UL", true);
    ("FoF + STM", true);
    ("FoF + UL", true);
    ("FoF", false);
    ("Msync", true);
  ]

let pheap_tests =
  [
    Alcotest.test_case "durably brackets exactly the transactional configs"
      `Quick (fun () ->
        Alcotest.(check (list string))
          "one row per backend config"
          (List.map (fun c -> c.Config.name) Config.all_backends)
          (List.map fst brackets_durable_updates);
        List.iter
          (fun config ->
            let heap = Pheap.create ~config ~size:(Units.Size.mib 8) () in
            let p = Pheap.alloc heap 64 in
            let commits () = txn_counter (Pheap.nvram heap) "commits" in
            let before = commits () in
            Pheap.durably heap (fun () -> Pheap.write_u64 heap ~addr:p 7L);
            Alcotest.(check bool)
              (config.Config.name ^ " brackets")
              (List.assoc config.Config.name brackets_durable_updates)
              (commits () > before);
            Alcotest.(check int64)
              (config.Config.name ^ " update lands")
              7L
              (Pheap.read_u64 heap ~addr:p))
          Config.all_backends);
    Alcotest.test_case "root pointer round-trips" `Quick (fun () ->
        let heap = Pheap.create ~size:(Units.Size.mib 8) () in
        let p = Pheap.alloc heap 64 in
        Pheap.set_root heap p;
        Alcotest.(check int) "root" p (Pheap.root heap));
    Alcotest.test_case "wsp_flush + crash + recover keeps everything" `Quick
      (fun () ->
        let heap = Pheap.create ~size:(Units.Size.mib 8) () in
        let p = Pheap.alloc heap 64 in
        Pheap.write_u64 heap ~addr:p 123L;
        Pheap.set_root heap p;
        Pheap.wsp_flush heap;
        Pheap.crash heap;
        Pheap.recover heap;
        Alcotest.(check int) "root survives" p (Pheap.root heap);
        Alcotest.(check int64) "data survives" 123L (Pheap.read_u64 heap ~addr:p));
    Alcotest.test_case "create_in carves a region; addresses respect the base"
      `Quick (fun () ->
        let nv = Nvram.create ~size:(Units.Size.mib 8) () in
        let heap =
          Pheap.create_in ~nvram:nv ~base:4096
            ~len:(Units.Size.mib 8 - 4096)
            ~log_size:(Units.Size.kib 64) ()
        in
        let p = Pheap.alloc heap 64 in
        Alcotest.(check bool) "beyond the log" true (p >= Pheap.heap_base heap);
        Alcotest.(check bool) "heap base beyond base" true
          (Pheap.heap_base heap >= 4096 + 64 + Units.Size.kib 64));
    Alcotest.test_case "attach_in after flushed crash recovers allocations"
      `Quick (fun () ->
        let nv = Nvram.create ~size:(Units.Size.mib 8) () in
        let len = Units.Size.mib 8 - 4096 in
        let heap =
          Pheap.create_in ~nvram:nv ~base:4096 ~len ~log_size:(Units.Size.kib 64) ()
        in
        let p = Pheap.alloc heap 64 in
        Pheap.write_u64 heap ~addr:p 9L;
        Pheap.set_root heap p;
        Pheap.wsp_flush heap;
        Pheap.crash heap;
        let heap' =
          Pheap.attach_in ~nvram:nv ~base:4096 ~len ~log_size:(Units.Size.kib 64) ()
        in
        Alcotest.(check int) "root" p (Pheap.root heap');
        Alcotest.(check int64) "data" 9L (Pheap.read_u64 heap' ~addr:p);
        (* The allocator must not hand the same block out again. *)
        let q = Pheap.alloc heap' 64 in
        Alcotest.(check bool) "no overlap" true (q <> p));
    Alcotest.test_case "transactional allocator metadata rolls back" `Quick
      (fun () ->
        let heap =
          Pheap.create ~config:Config.foc_ul ~size:(Units.Size.mib 8) ()
        in
        let before = Alloc.allocated_bytes (Pheap.allocator heap) in
        (try
           Pheap.with_tx heap (fun () ->
               ignore (Pheap.alloc heap 64);
               failwith "abort")
         with Failure _ -> ());
        Alcotest.(check int) "allocation undone" before
          (Alloc.allocated_bytes (Pheap.allocator heap)));
  ]

(* --- The replay tap ------------------------------------------------------- *)

(* A random stream of byte, word and non-temporal writes, word reads
   and fences. Words land both line-aligned and straddling a line
   boundary, so the one-lookup word path and the per-line path are both
   drawn.

   A plain byte model of the volatile view is the reference: every
   [read_u64] must match it, and so must the NVRAM's image at every
   fence. Non-temporal and cached stores share lines, so a cached access
   to a line with a queued non-temporal word is drawn too.

   With [tapped], every op the tap reports is also applied to a
   bytes-level shadow (the same state model Replay cursors use: backing
   + overlay lines + WC FIFO), whose materialised image must equal the
   NVRAM's own at every fence — the fidelity contract the incremental
   checker rests on. *)
let tap_rebuild ~tapped () =
  let nv = mk_nvram ~size:(Units.Size.kib 4) () in
  let size = Nvram.size nv in
  let ls = Nvram.line_size nv in
  let backing = Bytes.create size in
  Nvram.blit_backing nv ~addr:0 ~len:size backing ~dst_off:0;
  let model = Bytes.copy backing in
  let overlay : (int, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
  let wc = Queue.create () in
  let tap =
    Nvram.
      {
        on_slice =
          (fun ~addr ~src ~off ~len ->
            let line = addr / ls in
            let buf =
              match Hashtbl.find_opt overlay line with
              | Some b -> b
              | None ->
                  let b = Bytes.sub backing (line * ls) ls in
                  Hashtbl.add overlay line b;
                  b
            in
            Bytes.blit src off buf (addr mod ls) len);
        on_nt = (fun ~addr ~v -> Queue.add (addr, v) wc);
        on_wb =
          (fun ~line ~data ->
            Bytes.blit data 0 backing (line * ls) ls;
            Hashtbl.remove overlay line);
        on_drain =
          (fun () ->
            Queue.iter (fun (addr, v) -> Bytes.set_int64_le backing addr v) wc;
            Queue.clear wc);
      }
  in
  if tapped then Nvram.set_tap nv (Some tap);
  let shadow_volatile () =
    let img = Bytes.copy backing in
    Hashtbl.iter (fun line data -> Bytes.blit data 0 img (line * ls) ls) overlay;
    Queue.iter (fun (addr, v) -> Bytes.set_int64_le img addr v) wc;
    img
  in
  let rng = Rng.create ~seed:11 in
  (* Aligned, or starting 1-7 bytes before a line boundary. *)
  let word_addr () =
    if Rng.int rng 2 = 0 then Rng.int rng (size / 8) * 8
    else ((1 + Rng.int rng ((size / ls) - 1)) * ls) - 1 - Rng.int rng 7
  in
  for round = 1 to 20 do
    for _ = 1 to 12 do
      match Rng.int rng 5 with
      | 0 ->
          let len = 1 + Rng.int rng 80 in
          let addr = Rng.int rng (size - len) in
          let data = Bytes.make len (Char.chr (Rng.int rng 256)) in
          Nvram.write_bytes nv ~addr data;
          Bytes.blit data 0 model addr len
      | 1 ->
          let addr = Rng.int rng ((size / 8) - 1) * 8 in
          let v = Int64.of_int (Rng.int rng 1_000_000) in
          Nvram.write_u64_nt nv ~addr v;
          Bytes.set_int64_le model addr v
      | 2 ->
          let addr = word_addr () in
          let v = Int64.of_int (Rng.int rng 1_000_000_000) in
          Nvram.write_u64 nv ~addr v;
          Bytes.set_int64_le model addr v
      | 3 ->
          let addr = word_addr () in
          Alcotest.(check int64)
            (Printf.sprintf "round %d read_u64 at %d" round addr)
            (Bytes.get_int64_le model addr) (Nvram.read_u64 nv ~addr)
      | _ -> Nvram.fence nv
    done;
    Nvram.fence nv;
    Alcotest.(check bytes)
      (Printf.sprintf "round %d volatile image" round)
      (Nvram.volatile_image nv) model;
    if tapped then
      Alcotest.(check bytes)
        (Printf.sprintf "round %d shadow image" round)
        (shadow_volatile ()) model;
    if tapped then
      Alcotest.(check bool)
        (Printf.sprintf "round %d accessors match shadow" round)
        true
        (List.length (Nvram.overlay_lines nv) = Hashtbl.length overlay
        && Nvram.pending_nt nv = List.rev (Queue.fold (fun acc e -> e :: acc) [] wc))
  done;
  Nvram.wbinvd nv;
  Alcotest.(check bytes) "post-wbinvd persistent image"
    (Nvram.persistent_image nv) model;
  if tapped then
    Alcotest.(check bytes) "post-wbinvd shadow backing" backing model

let tap_tests =
  [
    Alcotest.test_case "double attach raises, detach-reattach is fine" `Quick
      (fun () ->
        let nv = mk_nvram () in
        let noop =
          Nvram.
            {
              on_slice = (fun ~addr:_ ~src:_ ~off:_ ~len:_ -> ());
              on_nt = (fun ~addr:_ ~v:_ -> ());
              on_wb = (fun ~line:_ ~data:_ -> ());
              on_drain = (fun () -> ());
            }
        in
        Nvram.set_tap nv (Some noop);
        (match Nvram.set_tap nv (Some noop) with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
        Nvram.set_tap nv None;
        Nvram.set_tap nv (Some noop));
    Alcotest.test_case "tap ops rebuild the volatile image" `Quick
      (tap_rebuild ~tapped:true);
    Alcotest.test_case "word writes match the byte model without a tap" `Quick
      (tap_rebuild ~tapped:false);
  ]

(* --- int-keyed tables and unboxed NT words ------------------------------- *)

let itbl_tests =
  [
    Alcotest.test_case "Itbl hashes and iterates like the polymorphic table"
      `Quick (fun () ->
        (* A commit's flush order is the iteration order of its written
           lines, so the int table must visit keys exactly as
           [Hashtbl] would for the same operations. *)
        let edges =
          [ 0; 1; -1; 64; 4096; 1 lsl 31; -(1 lsl 31); 1 lsl 32; max_int; min_int ]
        in
        let rng = Rng.create ~seed:17 in
        let randoms = List.init 2000 (fun _ -> Int64.to_int (Rng.bits64 rng)) in
        List.iter
          (fun x ->
            Alcotest.(check int) (Printf.sprintf "hash %d" x) (Hashtbl.hash x)
              (Itbl.hash x))
          (edges @ randoms);
        let poly = Hashtbl.create 64 and mono = Itbl.create 64 in
        for i = 0 to 5000 do
          let line = Rng.int rng 20_000 * 64 in
          match i mod 7 with
          | 0 ->
              Hashtbl.remove poly line;
              Itbl.remove mono line
          | 1 when i mod 500 = 1 ->
              Hashtbl.clear poly;
              Itbl.clear mono
          | _ ->
              Hashtbl.replace poly line i;
              Itbl.replace mono line i
        done;
        let order fold tbl = fold (fun k v acc -> (k, v) :: acc) tbl [] in
        Alcotest.(check (list (pair int int)))
          "same iteration order" (order Hashtbl.fold poly)
          (order Itbl.fold mono));
    Alcotest.test_case "an int NT word persists as its int64 twin" `Quick
      (fun () ->
        let a = Nvram.create ~size:(Units.Size.kib 4) () in
        let b = Nvram.create ~size:(Units.Size.kib 4) () in
        List.iteri
          (fun i w ->
            Nvram.write_int_nt a ~addr:(8 * i) w;
            Nvram.write_u64_nt b ~addr:(8 * i) (Int64.of_int w))
          [ 0; 1; -1; 0x7fff_ffff lsl 16; -(1 lsl 47); max_int; min_int ];
        Alcotest.(check int) "pending alike" (Nvram.pending_nt_bytes b)
          (Nvram.pending_nt_bytes a);
        Nvram.fence a;
        Nvram.fence b;
        Alcotest.(check bool) "same persistent bytes" true
          (Bytes.equal (Nvram.persistent_image a) (Nvram.persistent_image b)));
  ]

(* --- Crash ------------------------------------------------------------------ *)

(* One row per property of the crash primitive. [body nvs] does any
   setup outside the run and returns what runs inside [Crash.run] over
   NVRAMs 0 and 1 (NVRAM 2 counts only once the body watches it). Each
   row states how the run ends and how many memory events it counted;
   every row also checks that no subscriber outlives the run, that a
   crash fails power at most once, and, under Freeze, that no NVRAM
   byte changes after the trip instant. *)
type crash_row = {
  name : string;
  mode : Crash.mode;
  at : int option;
  body : Nvram.t array -> Crash.t -> unit;
  outcome : [ `Returned | `Failed | `Raised ];
  events : int;
  landed : unit -> (int * int * int64) list;
      (* (nvram, addr, value) read back after the run *)
}

(* Store [i]: word [i + 1] at address [8 * i], alternating NVRAMs. *)
let store nvs i =
  Nvram.write_u64 nvs.(i mod 2) ~addr:(8 * i) (Int64.of_int (i + 1))

let stores nvs n = for i = 0 to n - 1 do store nvs i done

let crash_rows =
  let tx_addr = ref 0 in
  let annotations nv =
    List.iter
      (Wsp_events.Bus.publish (Nvram.bus nv))
      [
        Event.Wb { line = 0; explicit = true };
        Event.Log Event.Truncate;
        Event.Tx (Event.Begin 1L);
        Event.Heap (Event.Free { addr = 64; size = 16 });
      ]
  in
  [
    {
      name = "arms at the k-th memory event across two buses";
      mode = Crash.Freeze;
      at = Some 3;
      body = (fun nvs _ -> stores nvs 6);
      outcome = `Failed;
      events = 4;
      landed = (fun () -> [ (0, 16, 3L); (1, 24, 0L) ]);
    };
    {
      name = "Wb, Log, Tx and Heap events are neither counted nor raised at";
      mode = Crash.Freeze;
      at = Some 1;
      body =
        (fun nvs _ ->
          Array.iter annotations [| nvs.(0); nvs.(1) |];
          store nvs 0;
          Array.iter annotations [| nvs.(0); nvs.(1) |];
          store nvs 1);
      outcome = `Failed;
      events = 2;
      landed = (fun () -> [ (0, 0, 1L); (1, 8, 0L) ]);
    };
    {
      name = "under Freeze an undo rollback after the trip stores nothing";
      mode = Crash.Freeze;
      at = Some 12;
      body =
        (fun nvs ->
          let heap =
            Pheap.create_in ~config:Config.foc_ul ~log_size:(Units.Size.kib 4)
              ~nvram:nvs.(0) ~base:0 ~len:(32 * 1024) ()
          in
          tx_addr := Pheap.alloc heap 64;
          fun _ ->
            Pheap.with_tx heap (fun () ->
                for i = 0 to 7 do
                  Pheap.write_u64 heap ~addr:(!tx_addr + (8 * i)) 7L
                done));
      outcome = `Failed;
      (* Twelve events, the tripping one, and the rollback's first
         store, which fails too. The first word was stored in place
         before the trip; the rollback that would restore it never
         ran. *)
      events = 14;
      landed = (fun () -> [ (0, !tx_addr, 7L) ]);
    };
    {
      name = "under Defer nothing fails until the checkpoint";
      mode = Crash.Defer;
      at = Some 1;
      body =
        (fun nvs crash ->
          stores nvs 4;
          Crash.checkpoint crash;
          store nvs 4);
      outcome = `Failed;
      events = 4;
      landed = (fun () -> [ (1, 24, 4L); (0, 32, 0L) ]);
    };
    {
      name = "an unarmed crash only counts and detaches on return";
      mode = Crash.Freeze;
      at = None;
      body =
        (fun nvs crash ->
          stores nvs 5;
          Crash.checkpoint crash);
      outcome = `Returned;
      events = 5;
      landed = (fun () -> [ (0, 32, 5L) ]);
    };
    {
      name = "a foreign exception propagates and detaches";
      mode = Crash.Freeze;
      at = Some 10;
      body =
        (fun nvs _ ->
          stores nvs 2;
          raise Exit);
      outcome = `Raised;
      events = 2;
      landed = (fun () -> [ (1, 8, 2L) ]);
    };
    {
      name = "a watched NVRAM counts until the run returns";
      mode = Crash.Freeze;
      at = Some 2;
      body =
        (fun nvs crash ->
          Crash.watch crash nvs.(2);
          for i = 0 to 3 do
            Nvram.write_u64 nvs.(2) ~addr:(8 * i) 9L
          done);
      outcome = `Failed;
      events = 3;
      landed = (fun () -> [ (2, 8, 9L); (2, 16, 0L) ]);
    };
  ]

let crash_tests =
  List.map
    (fun row ->
      Alcotest.test_case row.name `Quick (fun () ->
          let nvs =
            Array.init 3 (fun _ -> Nvram.create ~size:(Units.Size.kib 64) ())
          in
          let images () =
            Array.map
              (fun nv -> (Nvram.volatile_image nv, Nvram.persistent_image nv))
              nvs
          in
          let at_trip = ref None in
          let crash =
            Crash.create ?at:row.at
              ~on_trip:(fun () -> at_trip := Some (images ()))
              row.mode
          in
          let body = row.body nvs in
          let outcome =
            match Crash.run crash [ nvs.(0); nvs.(1) ] (fun () -> body crash) with
            | Some () -> `Returned
            | None -> `Failed
            | exception Exit -> `Raised
          in
          Alcotest.(check bool) "outcome" true (outcome = row.outcome);
          Alcotest.(check int) "events counted" row.events (Crash.events crash);
          Array.iter
            (fun nv ->
              Alcotest.(check int) "subscribers detached" 0
                (Wsp_events.Bus.subscriber_count (Nvram.bus nv)))
            nvs;
          List.iter
            (fun (nv, addr, v) ->
              Alcotest.(check int64)
                (Printf.sprintf "NVRAM %d at %d" nv addr)
                v
                (Nvram.read_u64 nvs.(nv) ~addr))
            (row.landed ());
          if row.mode = Crash.Freeze && outcome = `Failed then
            Alcotest.(check bool) "no byte changed after the trip" true
              (!at_trip = Some (images ()));
          (* Power fails once: a later run reaches its checkpoint. *)
          Alcotest.(check bool) "fails at most once" true
            (Crash.run crash [ nvs.(0); nvs.(1) ] (fun () ->
                 store nvs 0;
                 Crash.checkpoint crash)
            = Some ())))
    crash_rows

let select_tests =
  List.map
    (fun (total, budget) ->
      Alcotest.test_case
        (Printf.sprintf "select %d of %d" budget total)
        `Quick
        (fun () ->
          let pick () = Crash.select ~rng:(Rng.create ~seed:5) ~total ~budget in
          let pts, exhaustive = pick () in
          Alcotest.(check bool) "exhaustive" (total <= budget) exhaustive;
          Alcotest.(check int) "how many" (min total budget) (List.length pts);
          if exhaustive then
            Alcotest.(check (list int)) "every point" (List.init total Fun.id) pts;
          Alcotest.(check bool) "ascending, distinct, in range" true
            (List.for_all (fun p -> p >= 0 && p < total) pts
            && List.sort_uniq compare pts = pts);
          Alcotest.(check (list int)) "same seed, same points" pts (fst (pick ()))))
    [ (0, 3); (4, 4); (4, 10); (100, 7); (1000, 1) ]

let suite =
  [
    ( "nvheap.nvram",
      nvram_tests @ nvram_props @ fence_crash_props @ overlay_props @ tap_tests
      @ itbl_tests );
    ("nvheap.first_touch", first_touch_tests);
    ("nvheap.alloc", alloc_tests @ alloc_props);
    ("nvheap.rawlog", rawlog_tests @ rawlog_props @ rawlog_torn_tests);
    ( "nvheap.txn",
      txn_tests
      @ [ txn_crash_prop Config.foc_ul; txn_crash_prop Config.foc_stm ] );
    ("nvheap.pheap", pheap_tests);
    ("nvheap.crash", crash_tests @ select_tests);
  ]
