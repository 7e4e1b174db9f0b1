open Wsp_sim

type op =
  | Lookup of int64
  | Insert of int64 * int64
  | Delete of int64

type mix = { lookups : int; inserts : int; deletes : int }

let default_mix = { lookups = 70; inserts = 25; deletes = 5 }

type t = {
  rngs : Rng.t array;  (* one independent stream per client *)
  zipf : Rng.Zipf.gen option;  (* None = uniform keys *)
  keyspace : int;
  mix : mix;
}

let create ?(mix = default_mix) ?(theta = 0.99) ~clients ~keyspace ~seed () =
  if clients <= 0 then invalid_arg "Client.create: clients must be positive";
  if keyspace <= 0 then invalid_arg "Client.create: keyspace must be positive";
  if mix.lookups < 0 || mix.inserts < 0 || mix.deletes < 0 then
    invalid_arg "Client.create: mix percentages must be non-negative";
  if mix.lookups + mix.inserts + mix.deletes <> 100 then
    invalid_arg "Client.create: mix percentages must sum to 100";
  (* Written so that NaN fails it too. *)
  if not (theta >= 0.0 && theta < 1.0) then
    invalid_arg "Client.create: theta must be in [0, 1) (YCSB zipfian range)";
  let master = Rng.create ~seed in
  let rngs = Array.init clients (fun _ -> Rng.split master) in
  let zipf =
    if theta > 0.0 then Some (Rng.Zipf.create ~theta ~n:keyspace ()) else None
  in
  { rngs; zipf; keyspace; mix }

let clients t = Array.length t.rngs

let draw_key t rng =
  match t.zipf with
  | Some g -> Int64.of_int (Rng.Zipf.draw g rng)
  | None -> Int64.of_int (Rng.int rng t.keyspace)

let next t ~client =
  let rng = t.rngs.(client) in
  let roll = Rng.int rng 100 in
  let key = draw_key t rng in
  if roll < t.mix.lookups then Lookup key
  else if roll < t.mix.lookups + t.mix.inserts then Insert (key, Rng.bits64 rng)
  else Delete key

let key = function Lookup k | Insert (k, _) | Delete k -> k
