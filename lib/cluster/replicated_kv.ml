open Wsp_sim

type update = { seq : int; key : int64; value : int64 option }

let update_wire_bytes = 24

module Node = struct
  type t = {
    id : int;
    store : (int64, int64) Hashtbl.t;
    log : update Queue.t;  (* oldest first *)
    log_retention : int;
    value_bytes : int;
    mutable last_seq : int;
    mutable alive : bool;
  }

  let make ~id ~log_retention ~value_bytes =
    {
      id;
      store = Hashtbl.create 1024;
      log = Queue.create ();
      log_retention;
      value_bytes;
      last_seq = 0;
      alive = true;
    }

  let id t = t.id
  let alive t = t.alive
  let last_seq t = t.last_seq
  let get t key = Hashtbl.find_opt t.store key
  let key_count t = Hashtbl.length t.store
  let state_bytes t = Hashtbl.length t.store * (8 + t.value_bytes)

  let apply t (u : update) =
    assert (u.seq = t.last_seq + 1);
    (match u.value with
    | Some v -> Hashtbl.replace t.store u.key v
    | None -> Hashtbl.remove t.store u.key);
    t.last_seq <- u.seq;
    Queue.add u t.log;
    while Queue.length t.log > t.log_retention do
      ignore (Queue.pop t.log)
    done

  let updates_since t seq =
    if seq >= t.last_seq then Some []
    else
      match Queue.peek_opt t.log with
      | None -> None
      | Some oldest ->
          if oldest.seq > seq + 1 then None
          else
            Some
              (Queue.fold
                 (fun acc u -> if u.seq > seq then u :: acc else acc)
                 [] t.log
              |> List.rev)

  let clone_state_from t peer =
    Hashtbl.reset t.store;
    Hashtbl.iter (Hashtbl.replace t.store) peer.store;
    t.last_seq <- peer.last_seq;
    Queue.clear t.log;
    Queue.iter (fun u -> Queue.add u t.log) peer.log
end

type t = { nodes : Node.t list; mutable seq : int; value_bytes : int }

let create ?(replicas = 3) ?(log_retention = 100_000) ?(value_bytes = 64) () =
  if replicas < 1 then invalid_arg "Replicated_kv.create: no replicas";
  {
    nodes =
      List.init replicas (fun id -> Node.make ~id ~log_retention ~value_bytes);
    seq = 0;
    value_bytes;
  }

let nodes t = t.nodes
let live_nodes t = List.filter Node.alive t.nodes

let node t id =
  match List.find_opt (fun n -> Node.id n = id) t.nodes with
  | Some n -> n
  | None -> invalid_arg "Replicated_kv: no such node"

let broadcast t value key =
  (match live_nodes t with
  | [] -> failwith "Replicated_kv: no live replicas"
  | _ -> ());
  t.seq <- t.seq + 1;
  let u = { seq = t.seq; key; value } in
  List.iter (fun n -> Node.apply n u) (live_nodes t)

let put t ~key ~value = broadcast t (Some value) key
let delete t key = broadcast t None key

let fail_node t id = (node t id).Node.alive <- false

type recovery = {
  mode : [ `Log_catch_up | `Full_transfer ];
  transferred_bytes : int;
  duration : Time.t;
  missed_updates : int;
}

let network_bandwidth = Units.Bandwidth.gib_per_s 1.0

let recover_node t id =
  let failed = node t id in
  if Node.alive failed then invalid_arg "Replicated_kv.recover_node: node is live";
  let peer =
    match live_nodes t with
    | [] -> failwith "Replicated_kv: no live peer to recover from"
    | p :: _ -> p
  in
  let missed_updates = Node.last_seq peer - Node.last_seq failed in
  let recovery =
    match Node.updates_since peer (Node.last_seq failed) with
    | Some missed ->
        (* NVRAM catch-up: ship only what was missed. *)
        List.iter (fun u -> Node.apply failed u) missed;
        let bytes =
          List.length missed * (update_wire_bytes + t.value_bytes)
        in
        {
          mode = `Log_catch_up;
          transferred_bytes = bytes;
          duration = Units.Bandwidth.transfer_time network_bandwidth bytes;
          missed_updates;
        }
    | None ->
        (* The outage outlived the log: full re-replication. *)
        Node.clone_state_from failed peer;
        let bytes = Node.state_bytes peer in
        {
          mode = `Full_transfer;
          transferred_bytes = bytes;
          duration = Units.Bandwidth.transfer_time network_bandwidth bytes;
          missed_updates;
        }
  in
  failed.Node.alive <- true;
  recovery

let consistent t =
  match live_nodes t with
  | [] -> true
  | first :: rest ->
      List.for_all
        (fun n ->
          Node.last_seq n = Node.last_seq first
          && Node.key_count n = Node.key_count first
          && Hashtbl.fold
               (fun k v ok -> ok && Node.get n k = Some v)
               first.Node.store true)
        rest
