open Wsp_sim
open Wsp_machine

type row = {
  label : string;
  gap_interval : int option;
  wear_ratio : float;
  lifetime_fraction : float;
  write_overhead : float;
}

let theta = 0.99
let seed = 71

let data ?(lines = 1024) ?(writes = 8_000_000) () =
  let run label gap_interval =
    let wl =
      match gap_interval with
      | Some psi -> Wear_level.create ~gap_interval:psi ~lines ()
      | None ->
          (* "No leveling": a gap that effectively never moves. *)
          Wear_level.create ~gap_interval:max_int ~lines ()
    in
    let rng = Rng.create ~seed in
    let zipf = Rng.Zipf.create ~theta ~n:lines () in
    for _ = 1 to writes do
      Wear_level.record_write wl (Rng.Zipf.draw zipf rng)
    done;
    {
      label;
      gap_interval;
      wear_ratio = Wear_level.wear_ratio wl;
      lifetime_fraction = Wear_level.lifetime_fraction wl;
      write_overhead =
        float_of_int (Wear_level.gap_moves wl) /. float_of_int writes;
    }
  in
  [
    run "no leveling" None;
    run "start-gap (psi=1000)" (Some 1000);
    run "start-gap (psi=100)" (Some 100);
    run "start-gap (psi=10)" (Some 10);
  ]

let run ~full =
  Report.heading "Wear leveling (2): PCM under a Zipfian write stream";
  let rows = if full then data ~writes:40_000_000 () else data () in
  Report.table
    ~header:[ "Scheme"; "Max/mean wear"; "Lifetime achieved"; "Write overhead" ]
    (List.map
       (fun r ->
         [
           r.label;
           Printf.sprintf "%.1fx" r.wear_ratio;
           Printf.sprintf "%.0f%%" (100.0 *. r.lifetime_fraction);
           Printf.sprintf "%.1f%%" (100.0 *. r.write_overhead);
         ])
       rows);
  Report.note
    "without leveling the hottest PCM line absorbs the skew and dies early; faster gap rotation (smaller psi) approaches the ideal lifetime at the cost of extra copy writes, and levelling improves with horizon as rotations accumulate (pass --full)"
