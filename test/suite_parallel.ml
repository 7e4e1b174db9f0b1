open Wsp_sim

(* --- The domain pool ----------------------------------------------------- *)

let square x = (x * x) + 3

let map_tests =
  List.concat_map
    (fun jobs ->
      List.map
        (fun n ->
          Alcotest.test_case
            (Printf.sprintf "map = List.map (jobs=%d, n=%d)" jobs n)
            `Quick
            (fun () ->
              let xs = List.init n (fun i -> i - 3) in
              Alcotest.(check (list int))
                "results in input order" (List.map square xs)
                (Parallel.map ~jobs square xs)))
        [ 0; 1; 7; 100 ])
    [ 1; 2; 8 ]

let exn_tests =
  List.map
    (fun jobs ->
      Alcotest.test_case
        (Printf.sprintf "earliest failing input wins (jobs=%d)" jobs)
        `Quick
        (fun () ->
          (* Inputs 6 and 12 both fail; whatever domain finishes first,
             the surfaced exception must be input 6's. On the pool every
             job still runs to completion; jobs=1 is exactly [List.map],
             which stops at the first failure. *)
          let ran = Atomic.make 0 in
          let f x =
            Atomic.incr ran;
            if x mod 6 = 0 && x > 0 then failwith (string_of_int x) else x
          in
          let xs = List.init 15 (fun i -> i) in
          (match Parallel.map ~jobs f xs with
          | _ -> Alcotest.fail "expected a failure"
          | exception Failure msg ->
              Alcotest.(check string) "earliest input's exception" "6" msg);
          Alcotest.(check int) "jobs ran"
            (if jobs = 1 then 7 else 15)
            (Atomic.get ran)))
    [ 1; 5 ]

let pool_tests =
  [
    Alcotest.test_case "one pool serves many maps in input order" `Quick
      (fun () ->
        Parallel.with_pool ~jobs:4 (fun pool ->
            for n = 0 to 40 do
              let xs = List.init n (fun i -> i - 3) in
              Alcotest.(check (list int))
                (Printf.sprintf "n=%d" n) (List.map square xs)
                (Parallel.pool_map pool ~chunk:1 square xs)
            done));
    Alcotest.test_case "pool: earliest failing input wins, every job runs"
      `Quick (fun () ->
        let ran = Atomic.make 0 in
        let f x =
          Atomic.incr ran;
          if x mod 6 = 0 && x > 0 then failwith (string_of_int x) else x
        in
        Parallel.with_pool ~jobs:5 (fun pool ->
            (match Parallel.pool_map pool f (List.init 15 Fun.id) with
            | _ -> Alcotest.fail "expected a failure"
            | exception Failure msg ->
                Alcotest.(check string) "earliest input's exception" "6" msg);
            Alcotest.(check int) "jobs ran" 15 (Atomic.get ran);
            (* The pool survives a failed map. *)
            Alcotest.(check (list int))
              "next map" [ 4; 7 ]
              (Parallel.pool_map pool square [ 1; 2 ])));
    Alcotest.test_case "pool: a nested map runs sequentially" `Quick
      (fun () ->
        Parallel.with_pool ~jobs:2 (fun pool ->
            let inner x =
              List.fold_left ( + ) 0 (Parallel.pool_map pool square [ x; x ])
            in
            Alcotest.(check (list int))
              "results" (List.map inner [ 1; 2; 3 ])
              (Parallel.pool_map pool ~chunk:1 inner [ 1; 2; 3 ])));
    Alcotest.test_case "with_pool releases its helpers on exception" `Quick
      (fun () ->
        (match
           Parallel.with_pool ~jobs:2 (fun pool ->
               ignore (Parallel.pool_map pool square [ 1; 2; 3 ]);
               raise Exit)
         with
        | () -> Alcotest.fail "expected Exit"
        | exception Exit -> ());
        (* Returning at all means every helper was joined. *)
        Alcotest.(check int) "after" 4
          (Parallel.with_pool ~jobs:2 (fun _ -> 4)));
  ]

let chunk_tests =
  List.map
    (fun chunk ->
      Alcotest.test_case
        (Printf.sprintf "chunked claims preserve order (chunk=%d)" chunk)
        `Quick
        (fun () ->
          (* Chunk sizes around, at, and beyond the input length: every
             item must be mapped exactly once and land in input order
             regardless of how the claim windows tile the input. *)
          let xs = List.init 23 (fun i -> i) in
          Alcotest.(check (list int))
            "results in input order" (List.map square xs)
            (Parallel.map ~jobs:4 ~chunk square xs)))
    [ 1; 2; 7; 23; 1000 ]

let prop_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"map agrees with List.map" ~count:100
         QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 0 50) int))
         (fun (jobs, xs) ->
           Parallel.map ~jobs (fun x -> x lxor 42) xs
           = List.map (fun x -> x lxor 42) xs));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"map agrees with List.map at any chunk"
         ~count:100
         QCheck2.Gen.(
           triple (int_range 1 8) (int_range 1 60)
             (list_size (int_range 0 50) int))
         (fun (jobs, chunk, xs) ->
           Parallel.map ~jobs ~chunk (fun x -> x * 3) xs
           = List.map (fun x -> x * 3) xs));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"failure path: earliest failing input wins, success preserves \
                order"
         ~count:100
         QCheck2.Gen.(
           triple (int_range 1 8)
             (list_size (int_range 0 40) (int_range 0 1000))
             (list_size (int_range 0 5) (int_range 0 39)))
         (fun (jobs, xs, fail_idxs) ->
           (* Mark a random subset of positions as failing; the map must
              either return every result in input order (no marked index
              in range) or surface exactly the earliest marked input's
              exception, regardless of how domains interleave. *)
           let n = List.length xs in
           let fails = List.filter (fun i -> i < n) fail_idxs in
           let f_at i x =
             if List.mem i fails then failwith (string_of_int i) else x * 2
           in
           let indexed = List.mapi (fun i x -> (i, x)) xs in
           match Parallel.map ~jobs (fun (i, x) -> f_at i x) indexed with
           | results ->
               fails = [] && results = List.map (fun x -> x * 2) xs
           | exception Failure msg ->
               fails <> []
               && int_of_string msg = List.fold_left min max_int fails));
  ]

(* --- Output capture ------------------------------------------------------ *)

let capture_tests =
  [
    Alcotest.test_case "capture collects every print_* variant" `Quick
      (fun () ->
        let out, v =
          Parallel.capture (fun () ->
              Parallel.print_string "a";
              Parallel.print_char 'b';
              Parallel.printf "%d" 42;
              Parallel.print_endline "!";
              Parallel.print_newline ();
              7)
        in
        Alcotest.(check int) "result" 7 v;
        Alcotest.(check string) "bytes" "ab42!\n\n" out);
    Alcotest.test_case "captures nest and restore on exception" `Quick
      (fun () ->
        let out, () =
          Parallel.capture (fun () ->
              Parallel.print_string "outer ";
              let inner, () =
                Parallel.capture (fun () -> Parallel.print_string "inner")
              in
              Alcotest.(check string) "inner" "inner" inner;
              (try
                 ignore
                   (Parallel.capture (fun () ->
                        Parallel.print_string "lost";
                        failwith "boom"))
               with Failure _ -> ());
              (* After the failed capture the outer sink is active again. *)
              Parallel.print_string "restored")
        in
        Alcotest.(check string) "outer" "outer restored" out);
    Alcotest.test_case "workers print into their own buffers" `Quick
      (fun () ->
        (* Four jobs printing concurrently: captured per domain, so each
           job's bytes come back intact and in input order. *)
        let outs =
          Parallel.map ~jobs:4
            (fun i ->
              fst
                (Parallel.capture (fun () ->
                     Parallel.printf "job %d line 1\n" i;
                     Parallel.printf "job %d line 2\n" i)))
            [ 0; 1; 2; 3 ]
        in
        Alcotest.(check (list string))
          "in order, uninterleaved"
          (List.map
             (fun i -> Printf.sprintf "job %d line 1\njob %d line 2\n" i i)
             [ 0; 1; 2; 3 ])
          outs);
  ]

(* --- The experiment registry on the pool --------------------------------- *)

let registry_tests =
  [
    Alcotest.test_case "captured_run surfaces a mid-run exception" `Quick
      (fun () ->
        let fake =
          {
            Wsp_experiments.Registry.name = "fake";
            title = "raises halfway";
            run =
              (fun ~full:_ ->
                Parallel.print_endline "partial";
                failwith "halfway");
          }
        in
        let out, exn = Wsp_experiments.Registry.captured_run ~full:false fake in
        Alcotest.(check string) "partial output kept" "partial\n" out;
        match exn with
        | Some (Failure msg) ->
            Alcotest.(check string) "exception" "halfway" msg
        | _ -> Alcotest.fail "expected Failure \"halfway\"");
    Alcotest.test_case "pool run of every experiment equals sequential" `Slow
      (fun () ->
        (* The byte-identity contract behind run_all: each experiment's
           captured output on the domain pool must equal its sequential
           output, for every experiment in the registry. This runs the
           whole registry twice at the scaled defaults, so it is the
           slowest test in the suite. *)
        let seq =
          List.map
            (Wsp_experiments.Registry.captured_run ~full:false)
            Wsp_experiments.Registry.all
        in
        let pooled =
          Parallel.map ~jobs:4
            (Wsp_experiments.Registry.captured_run ~full:false)
            Wsp_experiments.Registry.all
        in
        List.iteri
          (fun i ((seq_out, seq_exn), (pool_out, pool_exn)) ->
            let name = (List.nth Wsp_experiments.Registry.all i).name in
            (match (seq_exn, pool_exn) with
            | None, None -> ()
            | _ -> Alcotest.fail (name ^ " raised"));
            Alcotest.(check string) (name ^ " output") seq_out pool_out;
            Alcotest.(check bool) (name ^ " non-empty") true (seq_out <> ""))
          (List.combine seq pooled))
  ]

let suite =
  [
    ("parallel.map", map_tests @ chunk_tests @ exn_tests @ prop_tests);
    ("parallel.pool", pool_tests);
    ("parallel.capture", capture_tests);
    ("parallel.registry", registry_tests);
  ]
