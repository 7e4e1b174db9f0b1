open Wsp_sim
open Wsp_machine

type series = { platform : Platform.t; points : (int * Time.t) list }

(* 128 B, 512 B, 2 KiB, ... up to 16 MiB: powers of four as in the
   paper's x axis. *)
let sweep = List.init 10 (fun i -> 128 * (1 lsl (2 * i)))

let data () =
  List.map
    (fun platform ->
      let points =
        List.map
          (fun dirty ->
            (* The x value stays the requested sweep point; platforms
               with smaller caches simply saturate (Flush caps the dirty
               bytes at the cache capacity). *)
            (dirty, Flush.state_save_time platform ~dirty_bytes:dirty))
          sweep
      in
      { platform; points })
    Platform.all

let mechanistic_check platform ~dirty_bytes =
  let h = Hierarchy.create (Platform.aggregate_hierarchy platform) in
  let line = Hierarchy.line_size h in
  let lines = dirty_bytes / line in
  for i = 0 to lines - 1 do
    ignore (Hierarchy.store h ~addr:(i * line))
  done;
  Time.add (Flush.context_save_time platform) (Hierarchy.flush_all h)

let run ~full:_ =
  Report.heading "Figure 8: Context save and cache flush times (ms)";
  let series = data () in
  let label p =
    Printf.sprintf "%s (%s)" p.Platform.short_name
      (Fmt.str "%a" Wsp_sim.Units.Size.pp (Platform.llc_total p))
  in
  let named =
    List.map
      (fun s ->
        ( label s.platform,
          List.map
            (fun (dirty, t) -> (float_of_int dirty /. 1024.0, Time.to_ms t))
            s.points ))
      series
  in
  Report.series ~xlabel:"dirty KiB" ~ylabel:"state save time, ms" named;
  Report.chart ~logx:true ~xlabel:"cache dirty KiB" ~ylabel:"save ms" named;
  let worst =
    List.fold_left
      (fun acc s ->
        List.fold_left (fun acc (_, t) -> Time.max acc t) acc s.points)
      Time.zero series
  in
  Report.note
    (Printf.sprintf
       "worst save time %.2f ms (paper: <5 ms everywhere, <3 ms on the testbeds)"
       (Time.to_ms worst))
