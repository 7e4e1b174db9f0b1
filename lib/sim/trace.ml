type t = {
  name : string;
  mutable times : Time.t array;
  mutable values : float array;
  mutable size : int;
}

let create ~name = { name; times = [||]; values = [||]; size = 0 }
let name t = t.name

let record t at v =
  if t.size > 0 && Time.(at < t.times.(t.size - 1)) then
    invalid_arg "Trace.record: samples must be time-ordered";
  let capacity = Array.length t.times in
  if t.size = capacity then begin
    let cap' = Stdlib.max 64 (2 * capacity) in
    let times' = Array.make cap' Time.zero and values' = Array.make cap' 0.0 in
    Array.blit t.times 0 times' 0 t.size;
    Array.blit t.values 0 values' 0 t.size;
    t.times <- times';
    t.values <- values'
  end;
  t.times.(t.size) <- at;
  t.values.(t.size) <- v;
  t.size <- t.size + 1

let length t = t.size

let samples t =
  Array.init t.size (fun i -> (t.times.(i), t.values.(i)))

let value_at t at =
  (* Binary search for the last sample <= at. *)
  if t.size = 0 || Time.(t.times.(0) > at) then None
  else begin
    let lo = ref 0 and hi = ref (t.size - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if Time.(t.times.(mid) <= at) then lo := mid else hi := mid - 1
    done;
    Some t.values.(!lo)
  end

let first_crossing_below t ~threshold ~hold =
  let result = ref None in
  let candidate = ref None in
  (try
     for i = 0 to t.size - 1 do
       if t.values.(i) < threshold then begin
         (match !candidate with
         | None -> candidate := Some t.times.(i)
         | Some start ->
             if Time.(Time.sub t.times.(i) start >= hold) then begin
               result := Some start;
               raise Exit
             end)
       end
       else candidate := None
     done
   with Exit -> ());
  !result

