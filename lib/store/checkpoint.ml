open Wsp_sim
open Wsp_nvheap

type backend = {
  bandwidth : Units.Bandwidth.t;
  mutable snapshots : (string * Bytes.t) list;  (* newest first *)
}

let create_backend ?(bandwidth = Units.Bandwidth.gib_per_s 0.5) () =
  { bandwidth; snapshots = [] }

let stored_names b = List.map fst b.snapshots

let checkpoint b ~name heap =
  let nvram = Pheap.nvram heap in
  (* Reading through the cache sees the newest (possibly unflushed)
     application state — a checkpoint is taken by the running process. *)
  let data =
    Nvram.read_bytes nvram ~addr:(Pheap.base heap) ~len:(Pheap.region_len heap)
  in
  b.snapshots <- (name, data) :: List.remove_assoc name b.snapshots;
  let cost = Units.Bandwidth.transfer_time b.bandwidth (Bytes.length data) in
  Nvram.charge nvram cost;
  cost

let restore b ~name heap =
  let data = List.assoc name b.snapshots in
  let nvram = Pheap.nvram heap in
  Nvram.write_bytes nvram ~addr:(Pheap.base heap) data;
  (* The restored image must be durable before the server resumes. *)
  Nvram.wbinvd nvram;
  let cost = Units.Bandwidth.transfer_time b.bandwidth (Bytes.length data) in
  Nvram.charge nvram cost;
  cost

let latest b = match b.snapshots with [] -> None | (name, _) :: _ -> Some name
