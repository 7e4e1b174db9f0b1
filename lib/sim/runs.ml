(* Sorting for samples that arrive as one run per producer: each run is
   sorted once and the whole set is the merge of the sorted runs. The
   int functions compare with an inlined integer compare; a stdlib sort
   calls a comparison closure per comparison, and on a few ten thousand
   samples those calls are most of the sort's cost. *)

(* Runs this short are sorted by insertion. *)
let cutoff = 12

let insertion (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let v = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && Array.unsafe_get a !j > v do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) v
  done

(* Sorts [a.(lo) .. a.(hi - 1)], stably, with [tmp.(lo) .. tmp.(mid - 1)]
   as scratch: the left half is copied out and merged back with the
   right half, which never overtakes the write position. *)
let rec msort (a : int array) (tmp : int array) lo hi =
  if hi - lo <= cutoff then insertion a lo hi
  else begin
    let mid = (lo + hi) lsr 1 in
    msort a tmp lo mid;
    msort a tmp mid hi;
    if Array.unsafe_get a (mid - 1) > Array.unsafe_get a mid then begin
      Array.blit a lo tmp lo (mid - lo);
      let i = ref lo and j = ref mid and k = ref lo in
      while !i < mid do
        let l = Array.unsafe_get tmp !i in
        if !j < hi && Array.unsafe_get a !j < l then begin
          Array.unsafe_set a !k (Array.unsafe_get a !j);
          incr j
        end
        else begin
          Array.unsafe_set a !k l;
          incr i
        end;
        incr k
      done
    end
  end

let sort a =
  let n = Array.length a in
  if n > 1 then msort a (Array.make n 0) 0 n

let merge2 (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let r = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 in
    for k = 0 to na + nb - 1 do
      if !j >= nb || (!i < na && Array.unsafe_get a !i <= Array.unsafe_get b !j)
      then begin
        Array.unsafe_set r k (Array.unsafe_get a !i);
        incr i
      end
      else begin
        Array.unsafe_set r k (Array.unsafe_get b !j);
        incr j
      end
    done;
    r
  end

let merge_by2 cmp a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let r = Array.make (na + nb) a.(0) in
    let i = ref 0 and j = ref 0 in
    for k = 0 to na + nb - 1 do
      if !j >= nb || (!i < na && cmp a.(!i) b.(!j) <= 0) then begin
        r.(k) <- a.(!i);
        incr i
      end
      else begin
        r.(k) <- b.(!j);
        incr j
      end
    done;
    r
  end

(* Merges neighbouring runs pairwise until one is left: each element
   takes part in about log2 (runs) merges. *)
let rec merge_with merge2 = function
  | [] -> [||]
  | [ a ] -> a
  | runs ->
      let rec pairs = function
        | a :: b :: rest -> merge2 a b :: pairs rest
        | rest -> rest
      in
      merge_with merge2 (pairs runs)

let merge runs = merge_with merge2 runs
let merge_by cmp runs = merge_with (merge_by2 cmp) runs

let sort_by_key key a =
  let n = Array.length a in
  let bound = if n = 0 then max_int else max_int / n in
  (* Element [i] with key [k] becomes the int [k * n + i]: keys order
     the codes and, among equal keys, the original position does. *)
  let codes =
    Array.mapi
      (fun i x ->
        let k = key x in
        if k < 0 || k >= bound then invalid_arg "Runs.sort_by_key: key out of range";
        (k * n) + i)
      a
  in
  sort codes;
  Array.map (fun c -> a.(c mod n)) codes
