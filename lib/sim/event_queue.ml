type 'a entry = { at : Time.t; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }
let length t = t.size

let entry_before a b =
  match Time.compare a.at b.at with
  | 0 -> a.seq < b.seq
  | c -> c < 0

let grow t entry =
  let capacity = Array.length t.heap in
  if t.size = capacity then begin
    let cap' = Stdlib.max 16 (2 * capacity) in
    let heap' = Array.make cap' entry in
    Array.blit t.heap 0 heap' 0 t.size;
    t.heap <- heap'
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_before t.heap.(i) t.heap.(parent) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && entry_before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && entry_before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!smallest);
    t.heap.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t ~at payload =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let entry = { at; seq; payload } in
  grow t entry;
  t.heap.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek_time t = if t.size = 0 then None else Some t.heap.(0).at

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t 0
    end;
    Some (top.at, top.payload)
  end
