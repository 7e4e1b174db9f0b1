let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  (* Not an assert: under -noassert an out-of-range or NaN [p] would
     silently index past the sorted sample and return garbage. NaN fails
     every comparison, so it needs its own test. *)
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg (Fmt.str "Stats.percentile: p=%g not in [0,100]" p);
  (* [Float.compare] sorts NaN first. *)
  if Float.is_nan sorted.(0) then invalid_arg "Stats.percentile: NaN sample";
  if n = 1 then sorted.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
