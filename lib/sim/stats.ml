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
