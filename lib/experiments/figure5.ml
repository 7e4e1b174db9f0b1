open Wsp_sim
open Wsp_nvheap
open Wsp_store

type series = { config : Config.t; points : (float * Time.t) list }

let seed = 5

let data ?(entries = 20_000) ?(ops = 100_000) ?(points = 6) () =
  let probs =
    List.init points (fun i -> float_of_int i /. float_of_int (points - 1))
  in
  (* Every (config, update probability) cell is an independent benchmark
     run over its own heap: flatten the grid so the pool can fan the
     whole sweep out at once, then regroup per config. *)
  let grid =
    List.concat_map (fun config -> List.map (fun p -> (config, p)) probs) Config.all
  in
  let cells =
    Parallel.map
      (fun (config, update_prob) ->
        let r =
          Workload.run_structure_benchmark ~structure:Workload.Hash ~entries
            ~ops ~config ~update_prob ~seed ()
        in
        (config, (update_prob, r.Workload.per_op)))
      grid
  in
  List.map
    (fun config ->
      { config; points = List.filter_map (fun (c, pt) -> if c == config then Some pt else None) cells })
    Config.all

let slowdown_range series =
  let find name =
    List.find (fun s -> s.config.Config.name = name) series
  in
  let foc_stm = find "FoC + STM" and fof = find "FoF" in
  let ratios =
    List.map2
      (fun (_, a) (_, b) -> Time.to_ns a /. Time.to_ns b)
      foc_stm.points fof.points
  in
  List.fold_left
    (fun (lo, hi) r -> (Float.min lo r, Float.max hi r))
    (infinity, neg_infinity) ratios

let run ~full =
  Report.heading "Figure 5: Hash table microbenchmark performance (us/op)";
  let series =
    if full then data ~entries:100_000 ~ops:1_000_000 ~points:11 ()
    else data ()
  in
  let named =
    List.map
      (fun s ->
        ( s.config.Config.name,
          List.map (fun (p, t) -> (p, Time.to_us t)) s.points ))
      series
  in
  Report.series ~xlabel:"update p" ~ylabel:"time per operation, us" named;
  Report.chart ~xlabel:"update probability" ~ylabel:"us/op" named;
  let lo, hi = slowdown_range series in
  Report.note
    (Printf.sprintf "FoC+STM is %.1f-%.1fx slower than FoF (paper: 6-13x)%s" lo
       hi
       (if full then "" else "; scaled run (paper: 100k entries, 1M ops; pass --full)"))
