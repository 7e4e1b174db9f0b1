open Wsp_nvheap
open Wsp_store

type row = {
  label : string;
  config : Config.t;
  updates_per_s : float;
  paper_updates_per_s : float;
}

let cases =
  [ ("Mnemosyne", Config.foc_stm, 2160.0); ("WSP", Config.fof, 5274.0) ]

let seed = 11

let data ?(entries = 20_000) () =
  (* The two configurations are independent benchmark runs; fan out. *)
  Wsp_sim.Parallel.map
    (fun (label, config, paper) ->
      let r = Directory.run_benchmark ~entries ~config ~seed () in
      { label; config; updates_per_s = r.Directory.updates_per_s; paper_updates_per_s = paper })
    cases

let speedup rows =
  match rows with
  | [ mnemosyne; wsp ] -> wsp.updates_per_s /. mnemosyne.updates_per_s
  | _ -> invalid_arg "Table1.speedup"

let run ~full =
  let entries = if full then 100_000 else 20_000 in
  Report.heading "Table 1: Update throughput for OpenLDAP (updates/s)";
  let rows = data ~entries () in
  Report.table
    ~header:[ "Configuration"; "Updates/s"; "Paper" ]
    (List.map
       (fun r ->
         [
           r.label;
           Report.float_cell ~decimals:0 r.updates_per_s;
           Report.float_cell ~decimals:0 r.paper_updates_per_s;
         ])
       rows);
  Report.note
    (Printf.sprintf "WSP is %.1fx faster (paper: 2.4x); %d inserts%s"
       (speedup rows) entries
       (if full then "" else " (paper used 100,000; pass --full)"))
