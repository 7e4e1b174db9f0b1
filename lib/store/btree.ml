open Wsp_nvheap

let min_degree = 4
let max_keys = (2 * min_degree) - 1
let min_keys = min_degree - 1

(* Node layout:
   [leaf:8][nkeys:8][keys: max_keys*8][values: max_keys*8]
   [children: (max_keys+1)*8]  -> 192 bytes at degree 4. *)
let f_leaf = 0
let f_nkeys = 8
let f_keys = 16
let f_values = f_keys + (8 * max_keys)
let f_children = f_values + (8 * max_keys)
let node_size = f_children + (8 * (max_keys + 1))

type t = { heap : Pheap.t; root_cell : int }

let read t addr off = Pheap.read_u64 t.heap ~addr:(addr + off)
let write t addr off v = Pheap.write_u64 t.heap ~addr:(addr + off) v
let is_leaf t node = Int64.equal (read t node f_leaf) 1L
let nkeys t node = Int64.to_int (read t node f_nkeys)
let set_nkeys t node n = write t node f_nkeys (Int64.of_int n)
let key_at t node i = read t node (f_keys + (8 * i))
let set_key t node i v = write t node (f_keys + (8 * i)) v
let value_at t node i = read t node (f_values + (8 * i))
let set_value t node i v = write t node (f_values + (8 * i)) v
let child_at t node i = Int64.to_int (read t node (f_children + (8 * i)))
let set_child t node i c = write t node (f_children + (8 * i)) (Int64.of_int c)

let new_node t ~leaf =
  let node = Pheap.alloc t.heap node_size in
  write t node f_leaf (if leaf then 1L else 0L);
  set_nkeys t node 0;
  node

let create heap =
  let root_cell = Pheap.alloc heap 8 in
  let t = { heap; root_cell } in
  let root = new_node t ~leaf:true in
  Pheap.write_u64 heap ~addr:root_cell (Int64.of_int root);
  Pheap.set_root heap root_cell;
  t

let attach heap =
  let root_cell = Pheap.root heap in
  if root_cell = 0 then invalid_arg "Btree.attach: heap has no root";
  { heap; root_cell }

let heap t = t.heap
let root t = Int64.to_int (Pheap.read_u64 t.heap ~addr:t.root_cell)
let set_root t node = Pheap.write_u64 t.heap ~addr:t.root_cell (Int64.of_int node)

(* Index of the first key >= [key], or nkeys. *)
let lower_bound t node key =
  let n = nkeys t node in
  let rec go i =
    if i >= n then i
    else if Int64.compare (key_at t node i) key < 0 then go (i + 1)
    else i
  in
  go 0

let rec find_in t node key =
  let i = lower_bound t node key in
  if i < nkeys t node && Int64.equal (key_at t node i) key then
    Some (value_at t node i)
  else if is_leaf t node then None
  else find_in t (child_at t node i) key

let find t key = find_in t (root t) key

(* Shifts keys/values (and children when [with_children]) right by one
   from position [i]. *)
let shift_right t node ~from ~with_children =
  let n = nkeys t node in
  for j = n - 1 downto from do
    set_key t node (j + 1) (key_at t node j);
    set_value t node (j + 1) (value_at t node j)
  done;
  if with_children then
    for j = n downto from + 1 do
      set_child t node (j + 1) (child_at t node j)
    done

(* Splits the full [i]-th child of [parent] (which has room). *)
let split_child t parent i =
  let child = child_at t parent i in
  let leaf = is_leaf t child in
  let sibling = new_node t ~leaf in
  (* The top [min_keys] keys move to the new right sibling; the median
     moves up into the parent. *)
  set_nkeys t sibling min_keys;
  for j = 0 to min_keys - 1 do
    set_key t sibling j (key_at t child (j + min_degree));
    set_value t sibling j (value_at t child (j + min_degree))
  done;
  if not leaf then
    for j = 0 to min_degree - 1 do
      set_child t sibling j (child_at t child (j + min_degree))
    done;
  shift_right t parent ~from:i ~with_children:true;
  set_key t parent i (key_at t child min_keys);
  set_value t parent i (value_at t child min_keys);
  set_child t parent (i + 1) sibling;
  set_nkeys t parent (nkeys t parent + 1);
  set_nkeys t child min_keys

let rec insert_nonfull t node ~key ~value =
  let i = lower_bound t node key in
  if i < nkeys t node && Int64.equal (key_at t node i) key then
    set_value t node i value
  else if is_leaf t node then begin
    shift_right t node ~from:i ~with_children:false;
    set_key t node i key;
    set_value t node i value;
    set_nkeys t node (nkeys t node + 1)
  end
  else begin
    let i =
      if nkeys t (child_at t node i) = max_keys then begin
        split_child t node i;
        (* The median moved into position i: re-aim. *)
        let c = Int64.compare key (key_at t node i) in
        if c = 0 then begin
          set_value t node i value;
          raise Exit
        end
        else if c > 0 then i + 1
        else i
      end
      else i
    in
    insert_nonfull t (child_at t node i) ~key ~value
  end

let insert t ~key ~value =
  let r = root t in
  let r =
    if nkeys t r = max_keys then begin
      let new_root = new_node t ~leaf:false in
      set_child t new_root 0 r;
      set_root t new_root;
      split_child t new_root 0;
      new_root
    end
    else r
  in
  try insert_nonfull t r ~key ~value with Exit -> ()

(* --- deletion (CLRS, with borrow/merge) ----------------------------- *)

let shift_left t node ~from ~with_children =
  let n = nkeys t node in
  for j = from to n - 2 do
    set_key t node j (key_at t node (j + 1));
    set_value t node j (value_at t node (j + 1))
  done;
  if with_children then
    for j = from + 1 to n - 1 do
      set_child t node j (child_at t node (j + 1))
    done

(* Merges child [i+1] of [node] into child [i], pulling key [i] down. *)
let merge_children t node i =
  let left = child_at t node i and right = child_at t node (i + 1) in
  let ln = nkeys t left and rn = nkeys t right in
  set_key t left ln (key_at t node i);
  set_value t left ln (value_at t node i);
  for j = 0 to rn - 1 do
    set_key t left (ln + 1 + j) (key_at t right j);
    set_value t left (ln + 1 + j) (value_at t right j)
  done;
  if not (is_leaf t left) then
    for j = 0 to rn do
      set_child t left (ln + 1 + j) (child_at t right j)
    done;
  set_nkeys t left (ln + 1 + rn);
  shift_left t node ~from:i ~with_children:true;
  set_nkeys t node (nkeys t node - 1);
  Pheap.free t.heap right;
  left

(* Ensures child [i] of [node] has at least [min_degree] keys before we
   descend into it; returns the (possibly merged) child index. *)
let fortify t node i =
  let child = child_at t node i in
  if nkeys t child >= min_degree then child
  else begin
    let n = nkeys t node in
    if i > 0 && nkeys t (child_at t node (i - 1)) >= min_degree then begin
      (* Borrow the left sibling's last key through the parent. *)
      let left = child_at t node (i - 1) in
      let ln = nkeys t left in
      shift_right t child ~from:0 ~with_children:false;
      (* All child pointers move right by one — slot 0 receives the
         borrowed subtree (shift_right's child handling frees slot
         [from+1] for splits, not slot 0). *)
      if not (is_leaf t child) then
        for j = nkeys t child downto 0 do
          set_child t child (j + 1) (child_at t child j)
        done;
      set_key t child 0 (key_at t node (i - 1));
      set_value t child 0 (value_at t node (i - 1));
      if not (is_leaf t child) then set_child t child 0 (child_at t left ln);
      set_key t node (i - 1) (key_at t left (ln - 1));
      set_value t node (i - 1) (value_at t left (ln - 1));
      set_nkeys t left (ln - 1);
      set_nkeys t child (nkeys t child + 1);
      child
    end
    else if i < n && nkeys t (child_at t node (i + 1)) >= min_degree then begin
      (* Borrow the right sibling's first key through the parent. *)
      let right = child_at t node (i + 1) in
      let cn = nkeys t child in
      set_key t child cn (key_at t node i);
      set_value t child cn (value_at t node i);
      if not (is_leaf t child) then
        set_child t child (cn + 1) (child_at t right 0);
      set_key t node i (key_at t right 0);
      set_value t node i (value_at t right 0);
      shift_left t right ~from:0 ~with_children:false;
      (* Dropping the right sibling's first subtree shifts every child
         pointer left by one (shift_left's child handling removes slot
         [from+1] for merges, not slot 0). *)
      if not (is_leaf t right) then
        for j = 0 to nkeys t right - 1 do
          set_child t right j (child_at t right (j + 1))
        done;
      set_nkeys t right (nkeys t right - 1);
      set_nkeys t child (cn + 1);
      child
    end
    else if i < n then merge_children t node i
    else merge_children t node (i - 1)
  end

let rec max_entry t node =
  if is_leaf t node then
    let n = nkeys t node in
    (key_at t node (n - 1), value_at t node (n - 1))
  else max_entry t (child_at t node (nkeys t node))

let rec min_entry t node =
  if is_leaf t node then (key_at t node 0, value_at t node 0)
  else min_entry t (child_at t node 0)

let rec delete_from t node key =
  let i = lower_bound t node key in
  if i < nkeys t node && Int64.equal (key_at t node i) key then
    if is_leaf t node then begin
      shift_left t node ~from:i ~with_children:false;
      set_nkeys t node (nkeys t node - 1);
      true
    end
    else begin
      let left = child_at t node i and right = child_at t node (i + 1) in
      if nkeys t left >= min_degree then begin
        let k, v = max_entry t left in
        set_key t node i k;
        set_value t node i v;
        delete_from t left k
      end
      else if nkeys t right >= min_degree then begin
        let k, v = min_entry t right in
        set_key t node i k;
        set_value t node i v;
        delete_from t right k
      end
      else begin
        let merged = merge_children t node i in
        delete_from t merged key
      end
    end
  else if is_leaf t node then false
  else begin
    let child = fortify t node i in
    delete_from t child key
  end

let delete t key =
  let r = root t in
  let removed = delete_from t r key in
  (* A root emptied by a merge shrinks the tree by one level. *)
  let r = root t in
  if nkeys t r = 0 && not (is_leaf t r) then begin
    set_root t (child_at t r 0);
    Pheap.free t.heap r
  end;
  removed

let fold t f acc =
  let rec go node acc =
    let n = nkeys t node in
    if is_leaf t node then
      let acc = ref acc in
      for i = 0 to n - 1 do
        acc := f !acc (key_at t node i) (value_at t node i)
      done;
      !acc
    else begin
      let acc = ref acc in
      for i = 0 to n - 1 do
        acc := go (child_at t node i) !acc;
        acc := f !acc (key_at t node i) (value_at t node i)
      done;
      go (child_at t node n) !acc
    end
  in
  go (root t) acc

let size t = fold t (fun acc _ _ -> acc + 1) 0
let to_list t = List.rev (fold t (fun acc k v -> (k, v) :: acc) [])

let height t =
  let rec go node acc =
    if is_leaf t node then acc else go (child_at t node 0) (acc + 1)
  in
  go (root t) 1

let check t =
  let exception Bad of string in
  try
    let root_node = root t in
    (* Returns leaf depth; checks occupancy and ordering per node. *)
    let rec go node ~is_root ~lo ~hi =
      let n = nkeys t node in
      if (not is_root) && n < min_keys then raise (Bad "underfull node");
      if n > max_keys then raise (Bad "overfull node");
      if is_root && is_leaf t node && n = 0 then 1
      else begin
        if n = 0 then raise (Bad "empty non-root node");
        for i = 0 to n - 1 do
          let k = key_at t node i in
          (match lo with
          | Some l when Int64.compare k l <= 0 -> raise (Bad "key below bound")
          | _ -> ());
          (match hi with
          | Some h when Int64.compare k h >= 0 -> raise (Bad "key above bound")
          | _ -> ());
          if i > 0 && Int64.compare (key_at t node (i - 1)) k >= 0 then
            raise (Bad "unsorted keys")
        done;
        if is_leaf t node then 1
        else begin
          let depth = ref None in
          for i = 0 to n do
            let lo = if i = 0 then lo else Some (key_at t node (i - 1)) in
            let hi = if i = n then hi else Some (key_at t node i) in
            let d = go (child_at t node i) ~is_root:false ~lo ~hi in
            match !depth with
            | None -> depth := Some d
            | Some d0 -> if d <> d0 then raise (Bad "ragged leaf depth")
          done;
          1 + Option.get !depth
        end
      end
    in
    ignore (go root_node ~is_root:true ~lo:None ~hi:None);
    Ok ()
  with Bad msg -> Error msg
