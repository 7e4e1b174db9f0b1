open Wsp_sim
open Wsp_machine
open Wsp_nvheap
open Wsp_store

type row = {
  profile : Scm.profile;
  foc_stm : Time.t;
  fof : Time.t;
  slowdown : float;
  flush_energy : Units.Energy.t;
}

let seed = 37

let data ?(entries = 5000) ?(ops = 20_000) () =
  let platform = Platform.intel_c5528 in
  let base = Platform.core_hierarchy platform in
  (* One independent hash-benchmark pair per memory profile: the sweep
     fans out across domains (each job builds its own heap and
     hierarchy; the seed fixes the op stream per profile). *)
  Parallel.map
    (fun profile ->
      let hierarchy = Scm.apply profile base in
      let per_op config =
        (Workload.run_structure_benchmark ~structure:Workload.Hash ~entries ~ops
           ~heap_size:(Units.Size.mib 32) ~hierarchy ~config ~update_prob:0.8
           ~seed ())
          .Workload.per_op
      in
      let foc_stm = per_op Config.foc_stm in
      let fof = per_op Config.fof in
      {
        profile;
        foc_stm;
        fof;
        slowdown = Time.to_ns foc_stm /. Time.to_ns fof;
        flush_energy =
          Scm.flush_energy profile ~platform
            ~dirty_bytes:(Flush.max_dirty_bytes platform);
      })
    Scm.profiles

let run ~full =
  Report.heading "SCM (6): flush-on-commit vs flush-on-fail on slower memories";
  let rows =
    if full then data ~entries:20_000 ~ops:100_000 () else data ()
  in
  Report.table
    ~header:
      [
        "Memory"; "FoC+STM us/op"; "FoF us/op"; "FoC/FoF"; "failure flush energy";
      ]
    (List.map
       (fun r ->
         [
           r.profile.Scm.name;
           Report.time_us_cell r.foc_stm;
           Report.time_us_cell r.fof;
           Printf.sprintf "%.1fx" r.slowdown;
           Printf.sprintf "%.1f mJ" (1e3 *. Units.Energy.to_joules r.flush_energy);
         ])
       rows);
  Report.note
    "the FoC/FoF gap widens as writes slow down; the failure-time flush energy stays tiny (cache-sized, not memory-sized)"
