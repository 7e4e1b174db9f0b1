type t = int array

let make ~domains =
  if domains <= 0 then invalid_arg "Vclock.make: domains must be positive";
  Array.make domains 0

let domains = Array.length
let copy = Array.copy

let tick t ~domain = t.(domain) <- t.(domain) + 1
let get t ~domain = t.(domain)

let merge ~into src =
  if Array.length into <> Array.length src then
    invalid_arg "Vclock.merge: clock widths differ";
  for i = 0 to Array.length into - 1 do
    if src.(i) > into.(i) then into.(i) <- src.(i)
  done

let leq a b =
  if Array.length a <> Array.length b then
    invalid_arg "Vclock.leq: clock widths differ";
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    if a.(i) > b.(i) then ok := false
  done;
  !ok

let concurrent a b = (not (leq a b)) && not (leq b a)
