open Wsp_sim
open Wsp_nvheap
open Wsp_store

type row = {
  structure : Workload.structure;
  foc_stm : Time.t;
  fof : Time.t;
  slowdown : float;
}

let seed = 41

let data ?(entries = 5000) ?(ops = 20_000) () =
  List.map
    (fun structure ->
      let per_op config =
        (Workload.run_structure_benchmark ~entries ~ops
           ~heap_size:(Units.Size.mib 32) ~structure ~config ~update_prob:0.5
           ~seed ())
          .Workload.per_op
      in
      let foc_stm = per_op Config.foc_stm in
      let fof = per_op Config.fof in
      { structure; foc_stm; fof; slowdown = Time.to_ns foc_stm /. Time.to_ns fof })
    Workload.structures

let run ~full =
  Report.heading
    "Structures (7): the flush-on-fail advantage across data structures";
  let rows =
    if full then data ~entries:20_000 ~ops:100_000 () else data ()
  in
  Report.table
    ~header:[ "Structure"; "FoC+STM us/op"; "WSP us/op"; "FoC/WSP" ]
    (List.map
       (fun r ->
         [
           Workload.structure_name r.structure;
           Report.time_us_cell r.foc_stm;
           Report.time_us_cell r.fof;
           Printf.sprintf "%.1fx" r.slowdown;
         ])
       rows);
  Report.note
    "50% update workload; WSP persists every structure unmodified, so the gap is universal"
