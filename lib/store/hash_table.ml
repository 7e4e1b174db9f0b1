open Wsp_nvheap

(* Header field offsets. *)
let h_buckets = 0
let h_n_buckets = 8
let h_count = 16
let header_size = 24

(* Node field offsets. *)
let f_key = 0
let f_value = 8
let f_next = 16
let node_size = 24

type t = { heap : Pheap.t; header : int }

let create ?(buckets = 131072) heap =
  if buckets <= 0 then invalid_arg "Hash_table.create: buckets <= 0";
  let header = Pheap.alloc heap header_size in
  let bucket_array = Pheap.alloc heap (8 * buckets) in
  for i = 0 to buckets - 1 do
    Pheap.write_u64 heap ~addr:(bucket_array + (8 * i)) 0L
  done;
  Pheap.write_u64 heap ~addr:(header + h_buckets) (Int64.of_int bucket_array);
  Pheap.write_u64 heap ~addr:(header + h_n_buckets) (Int64.of_int buckets);
  Pheap.write_u64 heap ~addr:(header + h_count) 0L;
  Pheap.set_root heap header;
  { heap; header }

let attach_at heap ~addr =
  if addr = 0 then invalid_arg "Hash_table.attach_at: null header";
  { heap; header = addr }

let attach heap =
  let header = Pheap.root heap in
  if header = 0 then invalid_arg "Hash_table.attach: heap has no root";
  { heap; header }

let heap t = t.heap
let read t addr off = Pheap.read_u64 t.heap ~addr:(addr + off)
let write t addr off v = Pheap.write_u64 t.heap ~addr:(addr + off) v
let bucket_count t = Int64.to_int (read t t.header h_n_buckets)
let count t = Int64.to_int (read t t.header h_count)

(* Fibonacci hashing of the key into a bucket index. *)
let bucket_of t key =
  let n = bucket_count t in
  let h = Int64.mul key 0x9E3779B97F4A7C15L in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int n))

let bucket_addr t i =
  let arr = Int64.to_int (read t t.header h_buckets) in
  arr + (8 * i)

let bump_count t delta =
  write t t.header h_count (Int64.add (read t t.header h_count) (Int64.of_int delta))

let find_node t key =
  let rec go node =
    if node = 0 then None
    else if Int64.equal (read t node f_key) key then Some node
    else go (Int64.to_int (read t node f_next))
  in
  go (Int64.to_int (Pheap.read_u64 t.heap ~addr:(bucket_addr t (bucket_of t key))))

let insert t ~key ~value =
  match find_node t key with
  | Some node -> write t node f_value value
  | None ->
      let slot = bucket_addr t (bucket_of t key) in
      let head = Pheap.read_u64 t.heap ~addr:slot in
      let node = Pheap.alloc t.heap node_size in
      write t node f_key key;
      write t node f_value value;
      write t node f_next head;
      Pheap.write_u64 t.heap ~addr:slot (Int64.of_int node);
      bump_count t 1

let find t key =
  match find_node t key with
  | Some node -> Some (read t node f_value)
  | None -> None


let delete t key =
  let slot = bucket_addr t (bucket_of t key) in
  let rec go prev node =
    if node = 0 then false
    else if Int64.equal (read t node f_key) key then begin
      let next = read t node f_next in
      (match prev with
      | None -> Pheap.write_u64 t.heap ~addr:slot next
      | Some p -> write t p f_next next);
      Pheap.free t.heap node;
      bump_count t (-1);
      true
    end
    else go (Some node) (Int64.to_int (read t node f_next))
  in
  go None (Int64.to_int (Pheap.read_u64 t.heap ~addr:slot))

let fold t f acc =
  let n = bucket_count t in
  let acc = ref acc in
  for i = 0 to n - 1 do
    let rec chain node =
      if node <> 0 then begin
        acc := f !acc (read t node f_key) (read t node f_value);
        chain (Int64.to_int (read t node f_next))
      end
    in
    chain (Int64.to_int (Pheap.read_u64 t.heap ~addr:(bucket_addr t i)))
  done;
  !acc

let to_list t = List.rev (fold t (fun acc k v -> (k, v) :: acc) [])

let check t =
  let exception Bad of string in
  try
    let n = bucket_count t in
    let seen = ref 0 in
    for i = 0 to n - 1 do
      let rec chain node =
        if node <> 0 then begin
          let key = read t node f_key in
          if bucket_of t key <> i then
            raise (Bad (Fmt.str "key %Ld chained in wrong bucket %d" key i));
          incr seen;
          chain (Int64.to_int (read t node f_next))
        end
      in
      chain (Int64.to_int (Pheap.read_u64 t.heap ~addr:(bucket_addr t i)))
    done;
    if !seen <> count t then
      raise (Bad (Fmt.str "count %d but %d nodes found" (count t) !seen));
    Ok ()
  with Bad msg -> Error msg
