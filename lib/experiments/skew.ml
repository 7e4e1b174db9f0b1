open Wsp_sim
open Wsp_nvheap
open Wsp_store

type row = {
  label : string;
  distribution : [ `Uniform | `Zipfian of float ];
  foc_stm : Time.t;
  fof : Time.t;
  slowdown : float;
}

let cases =
  [
    ("uniform", `Uniform);
    ("zipfian (theta=0.9)", `Zipfian 0.9);
    ("zipfian (theta=0.99)", `Zipfian 0.99);
  ]

let seed = 81

let data ?(entries = 50_000) ?(ops = 50_000) () =
  List.map
    (fun (label, distribution) ->
      let per_op config =
        (Workload.run_structure_benchmark ~structure:Workload.Hash ~entries ~ops
           ~heap_size:(Units.Size.mib 64) ~distribution ~config
           ~update_prob:0.2 ~seed ())
          .Workload.per_op
      in
      let foc_stm = per_op Config.foc_stm in
      let fof = per_op Config.fof in
      {
        label;
        distribution;
        foc_stm;
        fof;
        slowdown = Time.to_ns foc_stm /. Time.to_ns fof;
      })
    cases

let run ~full =
  Report.heading "Skewed traffic: the FoC/FoF gap on realistic key popularity";
  let rows =
    if full then data ~entries:100_000 ~ops:200_000 () else data ()
  in
  Report.table
    ~header:[ "Distribution"; "FoC+STM us/op"; "WSP us/op"; "FoC/WSP" ]
    (List.map
       (fun r ->
         [
           r.label;
           Report.time_us_cell r.foc_stm;
           Report.time_us_cell r.fof;
           Printf.sprintf "%.1fx" r.slowdown;
         ])
       rows);
  Report.note
    "skew shrinks the working set, so WSP rides the cache while flush-on-commit stays pinned to memory"
