(* Comparing the five persistence configurations on the same workload.

   The same hash-table code runs unchanged under each model; only the
   heap configuration changes — exactly the comparison of §5.1. Watch
   where the time goes: flush-on-commit pays at every update, whereas
   flush-on-fail defers all of it to the (rare) failure.

   Run with: dune exec examples/persistence_models.exe *)

open Wsp_sim
open Wsp_nvheap
open Wsp_store

let () =
  let entries = 5000 and ops = 20000 in
  Printf.printf "%d-entry hash table, %d operations per run\n\n" entries ops;
  Printf.printf "%-10s %14s %14s %14s\n" "config" "read-only" "50% updates"
    "update-only";
  List.iter
    (fun config ->
      let per_op p =
        let r =
          Workload.run_structure_benchmark ~structure:Workload.Hash ~entries
            ~ops ~config ~update_prob:p ~seed:2 ()
        in
        Time.to_us r.Workload.per_op
      in
      Printf.printf "%-10s %11.3f us %11.3f us %11.3f us\n"
        config.Config.name (per_op 0.0) (per_op 0.5) (per_op 1.0))
    Config.all;
  print_newline ();
  print_endline
    "FoC  = flush-on-commit (durable without WSP, slow at every update)";
  print_endline
    "FoF  = flush-on-fail   (needs the WSP save path, free at runtime)";
  print_endline
    "STM/UL = redo-log software transactional memory / undo logging"
