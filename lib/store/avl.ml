open Wsp_nvheap

(* Node field offsets. *)
let f_key = 0
let f_value = 8
let f_left = 16
let f_right = 24
let f_height = 32
let node_size = 40
let nil = 0L

type t = { heap : Pheap.t; root_cell : int }

let create heap =
  let root_cell = Pheap.alloc heap 8 in
  Pheap.write_u64 heap ~addr:root_cell nil;
  Pheap.set_root heap root_cell;
  { heap; root_cell }

(* A root cell handed to attach comes from recovered bytes, so it is
   trusted input only after a *clean* restore: a corrupted image can
   publish any integer. Reject addresses that cannot be an 8-byte root
   cell — outside the allocator's heap, or not the payload of a live
   block — before the first dereference reads garbage. *)
let validate_root_cell ~who heap addr =
  if addr = 0 then Fmt.invalid_arg "%s: null root cell" who;
  let base = Pheap.heap_base heap in
  let limit = base + Pheap.heap_size heap in
  if addr < base || addr + 8 > limit then
    Fmt.invalid_arg
      "%s: root cell %d outside the heap region [%d,%d) (corrupted root?)"
      who addr base limit;
  let allocator = Pheap.allocator heap in
  if not (Alloc.is_allocated allocator addr) then
    Fmt.invalid_arg
      "%s: root cell %d is not the payload of any allocated block \
       (corrupted or stale root)"
      who addr;
  if Alloc.payload_size allocator addr < 8 then
    Fmt.invalid_arg "%s: root cell %d is smaller than a root pointer" who addr

let attach_at heap ~addr =
  validate_root_cell ~who:"Avl.attach_at" heap addr;
  { heap; root_cell = addr }

let attach heap =
  let root_cell = Pheap.root heap in
  if root_cell = 0 then invalid_arg "Avl.attach: heap has no root";
  validate_root_cell ~who:"Avl.attach" heap root_cell;
  { heap; root_cell }

let heap t = t.heap
let read t addr off = Pheap.read_u64 t.heap ~addr:(addr + off)
let read_int t addr off = Pheap.read_int t.heap ~addr:(addr + off)
let write t addr off v = Pheap.write_u64 t.heap ~addr:(addr + off) v
let get_root t = Pheap.read_int t.heap ~addr:t.root_cell
let set_root t node = Pheap.write_u64 t.heap ~addr:t.root_cell (Int64.of_int node)

(* Pointer swizzling after image relocation. The published root is
   base-relative (already correct at the new base); the root cell's
   content and every node's child pointers are absolute addresses from
   the source base and must be shifted by [delta]. Each address is
   validated against the new heap before it is dereferenced — a
   corrupted image cannot send the walk out of the region — by a lookup
   in a table of live payloads built with one walk of the block chain,
   so relocation is linear in nodes plus blocks. The visit count is
   bounded so a cycle terminates in [Invalid_argument] rather than
   divergence. *)
let attach_relocated heap ~delta =
  if delta = 0 then attach heap
  else begin
    let who = "Avl.attach_relocated" in
    let root_cell = Pheap.root heap in
    if root_cell = 0 then Fmt.invalid_arg "%s: heap has no root" who;
    validate_root_cell ~who heap root_cell;
    let t = { heap; root_cell } in
    let live = Alloc.live_payload_sizes (Pheap.allocator heap) in
    let base = Pheap.heap_base heap in
    let limit = base + Pheap.heap_size heap in
    let budget = ref ((Pheap.heap_size heap / node_size) + 1) in
    let rec go old_node =
      if old_node = 0 then 0
      else begin
        decr budget;
        if !budget < 0 then
          Fmt.invalid_arg "%s: node walk exceeds heap capacity (cycle?)" who;
        let node = old_node + delta in
        if node < base || node + node_size > limit then
          Fmt.invalid_arg "%s: relocated node %d outside heap [%d,%d)" who
            node base limit;
        if
          match Hashtbl.find_opt live node with
          | Some size -> size < node_size
          | None -> true
        then
          Fmt.invalid_arg "%s: relocated node %d is not a live node block"
            who node;
        let left = read_int t node f_left in
        let right = read_int t node f_right in
        write t node f_left (Int64.of_int (go left));
        write t node f_right (Int64.of_int (go right));
        node
      end
    in
    set_root t (go (get_root t));
    t
  end

let height_of t node = if node = 0 then 0 else read_int t node f_height

let update_height t node =
  let hl = height_of t (read_int t node f_left) in
  let hr = height_of t (read_int t node f_right) in
  write t node f_height (Int64.of_int (1 + max hl hr))

let balance_factor t node =
  height_of t (read_int t node f_left)
  - height_of t (read_int t node f_right)

(* Right rotation around [y]: returns the new subtree root. *)
let rotate_right t y =
  let x = read_int t y f_left in
  let x_right = read t x f_right in
  write t y f_left x_right;
  write t x f_right (Int64.of_int y);
  update_height t y;
  update_height t x;
  x

let rotate_left t x =
  let y = read_int t x f_right in
  let y_left = read t y f_left in
  write t x f_right y_left;
  write t y f_left (Int64.of_int x);
  update_height t x;
  update_height t y;
  y

let rebalance t node =
  update_height t node;
  let bf = balance_factor t node in
  if bf > 1 then begin
    let left = read_int t node f_left in
    if balance_factor t left < 0 then
      write t node f_left (Int64.of_int (rotate_left t left));
    rotate_right t node
  end
  else if bf < -1 then begin
    let right = read_int t node f_right in
    if balance_factor t right > 0 then
      write t node f_right (Int64.of_int (rotate_right t right));
    rotate_left t node
  end
  else node

let new_node t ~key ~value =
  let node = Pheap.alloc t.heap node_size in
  write t node f_key key;
  write t node f_value value;
  write t node f_left nil;
  write t node f_right nil;
  write t node f_height 1L;
  node

let insert t ~key ~value =
  let rec go node =
    if node = 0 then new_node t ~key ~value
    else
      let k = read t node f_key in
      let c = Int64.compare key k in
      if c = 0 then begin
        write t node f_value value;
        node
      end
      else if c < 0 then begin
        let left' = go (read_int t node f_left) in
        write t node f_left (Int64.of_int left');
        rebalance t node
      end
      else begin
        let right' = go (read_int t node f_right) in
        write t node f_right (Int64.of_int right');
        rebalance t node
      end
  in
  set_root t (go (get_root t))

let find t key =
  let rec go node =
    if node = 0 then None
    else
      let k = read t node f_key in
      let c = Int64.compare key k in
      if c = 0 then Some (read t node f_value)
      else if c < 0 then go (read_int t node f_left)
      else go (read_int t node f_right)
  in
  go (get_root t)

let mem t key = Option.is_some (find t key)

(* Removes the minimum node of [node]'s subtree, returning
   (new subtree root, removed node address). *)
let rec take_min t node =
  let left = read_int t node f_left in
  if left = 0 then (read_int t node f_right, node)
  else begin
    let left', removed = take_min t left in
    write t node f_left (Int64.of_int left');
    (rebalance t node, removed)
  end

let delete t key =
  let removed = ref false in
  let rec go node =
    if node = 0 then 0
    else
      let k = read t node f_key in
      let c = Int64.compare key k in
      if c < 0 then begin
        let left' = go (read_int t node f_left) in
        write t node f_left (Int64.of_int left');
        rebalance t node
      end
      else if c > 0 then begin
        let right' = go (read_int t node f_right) in
        write t node f_right (Int64.of_int right');
        rebalance t node
      end
      else begin
        removed := true;
        let left = read_int t node f_left in
        let right = read_int t node f_right in
        let replacement =
          if left = 0 then right
          else if right = 0 then left
          else begin
            (* Promote the in-order successor. *)
            let right', succ = take_min t right in
            write t succ f_left (Int64.of_int left);
            write t succ f_right (Int64.of_int right');
            rebalance t succ
          end
        in
        Pheap.free t.heap node;
        replacement
      end
  in
  set_root t (go (get_root t));
  !removed

let fold t f acc =
  let rec go node acc =
    if node = 0 then acc
    else
      let acc = go (read_int t node f_left) acc in
      let acc = f acc (read t node f_key) (read t node f_value) in
      go (read_int t node f_right) acc
  in
  go (get_root t) acc

let size t = fold t (fun acc _ _ -> acc + 1) 0
let height t = height_of t (get_root t)
let to_list t = List.rev (fold t (fun acc k v -> (k, v) :: acc) [])

let min_key t =
  let rec go node best =
    if node = 0 then best
    else go (read_int t node f_left) (Some (read t node f_key))
  in
  go (get_root t) None

let max_key t =
  let rec go node best =
    if node = 0 then best
    else go (read_int t node f_right) (Some (read t node f_key))
  in
  go (get_root t) None

let check t =
  let exception Bad of string in
  (* Returns (height, min, max) of the subtree. *)
  let rec go node =
    if node = 0 then (0, None, None)
    else begin
      let k = read t node f_key in
      let hl, minl, maxl = go (read_int t node f_left) in
      let hr, minr, maxr = go (read_int t node f_right) in
      (match maxl with
      | Some m when Int64.compare m k >= 0 ->
          raise (Bad (Fmt.str "order violation left of key %Ld" k))
      | _ -> ());
      (match minr with
      | Some m when Int64.compare m k <= 0 ->
          raise (Bad (Fmt.str "order violation right of key %Ld" k))
      | _ -> ());
      if abs (hl - hr) > 1 then
        raise (Bad (Fmt.str "imbalance at key %Ld: %d vs %d" k hl hr));
      let h = 1 + max hl hr in
      if h <> height_of t node then
        raise (Bad (Fmt.str "stale height at key %Ld" k));
      let mn = match minl with Some m -> Some m | None -> Some k in
      let mx = match maxr with Some m -> Some m | None -> Some k in
      (h, mn, mx)
    end
  in
  match go (get_root t) with
  | _ -> Ok ()
  | exception Bad msg -> Error msg
