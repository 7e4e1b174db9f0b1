open Wsp_sim
open Wsp_nvheap
open Wsp_store

type row = {
  label : string;
  per_op_read : Time.t;
  per_op_mixed : Time.t;
  per_op_update : Time.t;
  footprint_factor : float;
}

let seed = 31

let data ?(entries = 5000) ?(ops = 20_000) () =
  let heap_row label config =
    let per_op p =
      (Workload.run_structure_benchmark ~structure:Workload.Hash ~entries ~ops
         ~heap_size:(Units.Size.mib 32) ~config ~update_prob:p ~seed ())
        .Workload.per_op
    in
    {
      label;
      per_op_read = per_op 0.0;
      per_op_mixed = per_op 0.5;
      per_op_update = per_op 1.0;
      footprint_factor = 1.0;
    }
  in
  let block_row =
    let run p =
      Workload.run_block_benchmark ~entries ~ops ~heap_size:(Units.Size.mib 32)
        ~update_prob:p ~seed ()
    in
    let r0 = run 0.0 and r5 = run 0.5 and r1 = run 1.0 in
    {
      label = "Block-based (RAMdisk journal)";
      per_op_read = r0.Workload.block_per_op;
      per_op_mixed = r5.Workload.block_per_op;
      per_op_update = r1.Workload.block_per_op;
      footprint_factor =
        float_of_int (r5.Workload.table_bytes + r5.Workload.journal_bytes)
        /. float_of_int r5.Workload.table_bytes;
    }
  in
  [
    block_row;
    heap_row "NV-heap (FoC + STM, Mnemosyne)" Config.foc_stm;
    heap_row "NV-heap (FoC + UL)" Config.foc_ul;
    heap_row "Whole-system (WSP, FoF)" Config.fof;
  ]

let run ~full =
  Report.heading "Models (3.2): block-based vs persistent heap vs whole-system";
  let rows = if full then data ~entries:20_000 ~ops:100_000 () else data () in
  Report.table
    ~header:
      [ "Model"; "read-only us/op"; "50% upd us/op"; "update us/op"; "state copies" ]
    (List.map
       (fun r ->
         [
           r.label;
           Report.time_us_cell r.per_op_read;
           Report.time_us_cell r.per_op_mixed;
           Report.time_us_cell r.per_op_update;
           Report.float_cell r.footprint_factor;
         ])
       rows);
  Report.note
    "block persistence duplicates state (in-memory copy + blocks; the append-only journal shown here grows further until compacted) and pays a syscall + block transfer per update; WSP pays nothing"
