type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

type t = {
  mutable n : int;
  mutable mu : float;
  mutable m2 : float;
  mutable lo : float;
  mutable hi : float;
}

let create () = { n = 0; mu = 0.0; m2 = 0.0; lo = infinity; hi = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mu in
  t.mu <- t.mu +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mu));
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let count t = t.n
let mean t = t.mu
let stddev t = if t.n < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.n - 1))

let min t =
  if t.n = 0 then invalid_arg "Stats.min: empty";
  t.lo

let max t =
  if t.n = 0 then invalid_arg "Stats.max: empty";
  t.hi

let summary t =
  { count = t.n; mean = mean t; stddev = stddev t; min = min t; max = max t }

let of_list xs =
  if xs = [] then invalid_arg "Stats.of_list: empty";
  let t = create () in
  List.iter (add t) xs;
  summary t

let percentile xs p =
  if xs = [] then invalid_arg "Stats.percentile: empty";
  (* Not an assert: under -noassert an out-of-range or NaN [p] would
     silently index past the sorted sample and return garbage. NaN fails
     every comparison, so it needs its own test. *)
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg (Fmt.str "Stats.percentile: p=%g not in [0,100]" p);
  if List.exists Float.is_nan xs then
    invalid_arg "Stats.percentile: NaN sample";
  let arr = Array.of_list xs in
  Array.sort Float.compare arr;
  let n = Array.length arr in
  if n = 1 then arr.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))

module Histogram = struct
  type h = { lo : float; hi : float; counts : int array; mutable total : int }

  let create ~lo ~hi ~buckets =
    if not (hi > lo && buckets > 0) then
      invalid_arg "Stats.Histogram.create: need hi > lo and buckets > 0";
    { lo; hi; counts = Array.make buckets 0; total = 0 }

  let add h x =
    let buckets = Array.length h.counts in
    let idx =
      int_of_float ((x -. h.lo) /. (h.hi -. h.lo) *. float_of_int buckets)
    in
    let idx = Stdlib.max 0 (Stdlib.min (buckets - 1) idx) in
    h.counts.(idx) <- h.counts.(idx) + 1;
    h.total <- h.total + 1

  let counts h = Array.copy h.counts

  let total h = h.total
end
