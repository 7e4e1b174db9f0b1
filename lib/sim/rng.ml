type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* splitmix64, used to expand a seed into xoshiro state and to derive
   independent streams for [split]. *)
let splitmix64 state =
  let ( +% ) = Int64.add and ( *% ) = Int64.mul in
  let z = !state +% 0x9E3779B97F4A7C15L in
  state := z;
  let z = Int64.logxor z (Int64.shift_right_logical z 30) *% 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) *% 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state seed64 =
  let st = ref seed64 in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  { s0; s1; s2; s3 }

let create ~seed = of_state (Int64.of_int seed)

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t = of_state (bits64 t)
let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let int t bound =
  assert (bound > 0);
  (* 62 random bits keep the value a non-negative OCaml int; rejection
     sampling avoids modulo bias. *)
  let top = 1 lsl 62 in
  let rec draw () =
    let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
    let r = v mod bound in
    if v - r > top - bound then draw () else r
  in
  draw ()

let float t bound =
  (* 53 random bits into [0,1). *)
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  v /. 9007199254740992.0 *. bound

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0
let uniform t ~lo ~hi = lo +. float t (hi -. lo)

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t 1.0 in
    if u = 0.0 then nonzero () else u
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

module Zipf = struct
  (* The standard YCSB zipfian generator (Gray et al., "Quickly
     generating billion-record synthetic databases"). *)
  type gen = {
    n : int;
    theta : float;
    alpha : float;
    zetan : float;
    eta : float;
  }

  let zeta n theta =
    let acc = ref 0.0 in
    for i = 1 to n do
      acc := !acc +. (1.0 /. (float_of_int i ** theta))
    done;
    !acc

  let create ?(theta = 0.99) ~n () =
    if n <= 0 then invalid_arg "Zipf.create: n <= 0";
    if theta <= 0.0 || theta >= 1.0 then
      invalid_arg "Zipf.create: theta must be in (0, 1)";
    let zetan = zeta n theta in
    let zeta2 = zeta 2 theta in
    {
      n;
      theta;
      alpha = 1.0 /. (1.0 -. theta);
      zetan;
      eta =
        (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta)))
        /. (1.0 -. (zeta2 /. zetan));
    }

  let draw g t =
    let u = float t 1.0 in
    let uz = u *. g.zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. (0.5 ** g.theta) then 1
    else
      let r =
        float_of_int g.n *. (((g.eta *. u) -. g.eta +. 1.0) ** g.alpha)
      in
      Stdlib.min (g.n - 1) (Stdlib.max 0 (int_of_float r))

  let n g = g.n
end
