open Wsp_sim
open Wsp_cluster

type row = {
  missed_updates : int;
  recovery : Replicated_kv.recovery;
  full_transfer_bytes : int;
  savings : float;
}

let seed = 61

let data ?(keys = 200_000) ?(log_retention = 100_000) () =
  List.map
    (fun missed ->
      let cluster =
        Replicated_kv.create ~replicas:3 ~log_retention ~value_bytes:256 ()
      in
      let rng = Rng.create ~seed in
      for i = 1 to keys do
        Replicated_kv.put cluster ~key:(Int64.of_int i) ~value:(Rng.bits64 rng)
      done;
      Replicated_kv.fail_node cluster 2;
      for _ = 1 to missed do
        let key = Int64.of_int (1 + Rng.int rng keys) in
        Replicated_kv.put cluster ~key ~value:(Rng.bits64 rng)
      done;
      let live = List.hd (Replicated_kv.live_nodes cluster) in
      let full_transfer_bytes = Replicated_kv.Node.state_bytes live in
      let recovery = Replicated_kv.recover_node cluster 2 in
      assert (Replicated_kv.consistent cluster);
      {
        missed_updates = missed;
        recovery;
        full_transfer_bytes;
        savings =
          float_of_int full_transfer_bytes
          /. float_of_int (max 1 recovery.Replicated_kv.transferred_bytes);
      })
    [ 1_000; 5_000; 20_000; 150_000 ]

let run ~full:_ =
  Report.heading "Distributed recovery (6): log catch-up vs re-replication";
  Report.table
    ~header:
      [ "Missed updates"; "Mode"; "Transferred"; "Duration"; "vs full transfer" ]
    (List.map
       (fun r ->
         [
           string_of_int r.missed_updates;
           (match r.recovery.Replicated_kv.mode with
           | `Log_catch_up -> "log catch-up"
           | `Full_transfer -> "FULL TRANSFER");
           Printf.sprintf "%.1f MiB"
             (float_of_int r.recovery.Replicated_kv.transferred_bytes
             /. (1024.0 *. 1024.0));
           Time.to_string r.recovery.Replicated_kv.duration;
           Printf.sprintf "%.0fx less" r.savings;
         ])
       (data ()));
  Report.note
    "an NVRAM-intact node ships only missed updates until the outage outlives the peers' log retention (100k updates here)"
