(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its own calls into the
   libraries' public functions, never inside them. Each span is a row
   (name, start ns, end ns, parent span, request id) of flat growable
   arrays; nothing is written until [write_csv], so a span costs two
   clock reads and five array stores. A span's self time is its
   duration minus the durations of its direct children. *)

let now () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now () - t0) /. 1e9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, seconds_since t0)
(* Span names are interned once; rows store the small integer id. *)
let ids : (string, int) Hashtbl.t = Hashtbl.create 32
let labels = ref [||]

let intern s =
  match Hashtbl.find_opt ids s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids s i;
      labels := Array.append !labels [| s |];
      i

type t = {
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable len : int;
  mutable cur : int;  (* the innermost open span, -1 at top level *)
}

let create () =
  let n = 4096 in
  {
    name = Array.make n 0;
    start = Array.make n 0;
    stop = Array.make n 0;
    parent = Array.make n 0;
    req = Array.make n 0;
    len = 0;
    cur = -1;
  }

let grow t =
  let g a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.name <- g t.name;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.parent <- g t.parent;
  t.req <- g t.req

let record t name ~req f =
  if t.len = Array.length t.name then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- t.cur;
  t.req.(i) <- req;
  t.cur <- i;
  t.start.(i) <- now ();
  let finish () =
    t.stop.(i) <- now ();
    t.cur <- t.parent.(i)
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let count t = t.len

let self_times t =
  let self = Array.init t.len (fun i -> t.stop.(i) - t.start.(i)) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stop.(i) - t.start.(i))
  done;
  self

type summary = {
  calls : int;
  self_ns : int;  (** Summed self time. *)
  durations : int array;  (** Whole-span durations, ascending. *)
}

let summary t name =
  let id = intern name in
  let self = self_times t in
  let calls = ref 0 and total = ref 0 and durs = ref [] in
  for i = 0 to t.len - 1 do
    if t.name.(i) = id then begin
      incr calls;
      total := !total + self.(i);
      durs := (t.stop.(i) - t.start.(i)) :: !durs
    end
  done;
  let durations = Array.of_list !durs in
  Array.sort compare durations;
  { calls = !calls; self_ns = !total; durations }

(* Nearest-rank percentile of an ascending array; 0 when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let count_prefix t prefix =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if String.starts_with ~prefix !labels.(t.name.(i)) then incr n
  done;
  !n

let write_csv t path =
  let oc = open_out path in
  output_string oc "name,start_ns,end_ns,parent,request\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%s,%d,%d,%d,%d\n" !labels.(t.name.(i)) t.start.(i)
      t.stop.(i) t.parent.(i) t.req.(i)
  done;
  close_out oc
