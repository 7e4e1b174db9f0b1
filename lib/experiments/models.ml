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
  let row label structure config =
    let run p =
      Workload.run_structure_benchmark ~structure ~entries ~ops
        ~heap_size:(Units.Size.mib 32) ~config ~update_prob:p ~seed ()
    in
    let r0 = run 0.0 and r5 = run 0.5 and r1 = run 1.0 in
    {
      label;
      per_op_read = r0.Workload.per_op;
      per_op_mixed = r5.Workload.per_op;
      per_op_update = r1.Workload.per_op;
      footprint_factor =
        (match r5.Workload.footprint with
        | None -> 1.0
        | Some { Workload.table_bytes; journal_bytes } ->
            float_of_int (table_bytes + journal_bytes) /. float_of_int table_bytes);
    }
  in
  [
    row "Block-based (RAMdisk journal)" Workload.Block Config.fof;
    row "NV-heap (FoC + STM, Mnemosyne)" Workload.Hash Config.foc_stm;
    row "NV-heap (FoC + UL)" Workload.Hash Config.foc_ul;
    row "Whole-system (WSP, FoF)" Workload.Hash Config.fof;
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
