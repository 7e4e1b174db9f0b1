open Wsp_sim
open Wsp_nvheap

let max_level = 16

(* Node layout: [key][value][level][next_0 .. next_{level-1}]. The head
   tower has [max_level] pointers and a sentinel key that is never
   compared. *)
let f_key = 0
let f_value = 8
let f_level = 16
let f_next = 24
let node_size level = f_next + (8 * level)

type t = { heap : Pheap.t; head : int; rng : Rng.t }

let read t addr off = Pheap.read_u64 t.heap ~addr:(addr + off)
let write t addr off v = Pheap.write_u64 t.heap ~addr:(addr + off) v
let next t node lvl = Int64.to_int (read t node (f_next + (8 * lvl)))
let set_next t node lvl target = write t node (f_next + (8 * lvl)) (Int64.of_int target)
let level_of_node t node = Int64.to_int (read t node f_level)

let create ?(seed = 1) heap =
  let head = Pheap.alloc heap (node_size max_level) in
  let t = { heap; head; rng = Rng.create ~seed } in
  write t head f_key Int64.min_int;
  write t head f_value 0L;
  write t head f_level (Int64.of_int max_level);
  for lvl = 0 to max_level - 1 do
    set_next t head lvl 0
  done;
  Pheap.set_root heap head;
  t

let attach ?(seed = 1) heap =
  let head = Pheap.root heap in
  if head = 0 then invalid_arg "Skiplist.attach: heap has no root";
  { heap; head; rng = Rng.create ~seed }

let heap t = t.heap
let rng t = t.rng

let random_level t =
  let rec flip level =
    if level < max_level && Rng.bool t.rng then flip (level + 1) else level
  in
  flip 1

(* The predecessor of [key] at every level, top-down. *)
let predecessors t key =
  let preds = Array.make max_level t.head in
  let node = ref t.head in
  for lvl = max_level - 1 downto 0 do
    let rec walk () =
      let succ = next t !node lvl in
      if succ <> 0 && Int64.compare (read t succ f_key) key < 0 then begin
        node := succ;
        walk ()
      end
    in
    walk ();
    preds.(lvl) <- !node
  done;
  preds

let find_node t key =
  let preds = predecessors t key in
  let candidate = next t preds.(0) 0 in
  if candidate <> 0 && Int64.equal (read t candidate f_key) key then
    Some candidate
  else None

let find t key =
  match find_node t key with
  | Some node -> Some (read t node f_value)
  | None -> None


let insert t ~key ~value =
  let preds = predecessors t key in
  let succ = next t preds.(0) 0 in
  if succ <> 0 && Int64.equal (read t succ f_key) key then
    write t succ f_value value
  else begin
    let level = random_level t in
    let node = Pheap.alloc t.heap (node_size level) in
    write t node f_key key;
    write t node f_value value;
    write t node f_level (Int64.of_int level);
    for lvl = 0 to level - 1 do
      set_next t node lvl (next t preds.(lvl) lvl);
      set_next t preds.(lvl) lvl node
    done
  end

let delete t key =
  match find_node t key with
  | None -> false
  | Some node ->
      let preds = predecessors t key in
      let level = level_of_node t node in
      for lvl = 0 to level - 1 do
        if next t preds.(lvl) lvl = node then
          set_next t preds.(lvl) lvl (next t node lvl)
      done;
      Pheap.free t.heap node;
      true

let fold t f acc =
  let rec go node acc =
    if node = 0 then acc
    else go (next t node 0) (f acc (read t node f_key) (read t node f_value))
  in
  go (next t t.head 0) acc

let size t = fold t (fun acc _ _ -> acc + 1) 0
let to_list t = List.rev (fold t (fun acc k v -> (k, v) :: acc) [])

let level_of t key =
  match find_node t key with
  | Some node -> Some (level_of_node t node)
  | None -> None

let check t =
  let exception Bad of string in
  try
    (* Level 0 must be strictly key-ordered. *)
    let rec ordered node =
      let succ = next t node 0 in
      if succ <> 0 then begin
        if node <> t.head
           && Int64.compare (read t node f_key) (read t succ f_key) >= 0
        then raise (Bad "level-0 order violation");
        ordered succ
      end
    in
    ordered t.head;
    (* Every upper-level chain must be a subsequence of level 0, and a
       node must appear in exactly the levels below its height. *)
    let level0 = Hashtbl.create 64 in
    let rec collect node =
      if node <> 0 then begin
        Hashtbl.replace level0 node (level_of_node t node);
        collect (next t node 0)
      end
    in
    collect (next t t.head 0);
    for lvl = 1 to max_level - 1 do
      let rec walk node =
        let succ = next t node lvl in
        if succ <> 0 then begin
          (match Hashtbl.find_opt level0 succ with
          | None -> raise (Bad (Fmt.str "level-%d node missing from level 0" lvl))
          | Some h when h <= lvl ->
              raise (Bad (Fmt.str "node in level %d above its height" lvl))
          | Some _ -> ());
          walk succ
        end
      in
      walk t.head
    done;
    Ok ()
  with Bad msg -> Error msg
