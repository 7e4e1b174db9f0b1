(* MurmurHash3's 32-bit mix of the tagged word [2x + 1], as the runtime's
   [caml_hash] computes it for an immediate (seed 0, then the final
   avalanche, folded to 30 bits). Products keep their low 32 bits
   exactly: OCaml's 63-bit multiply is modular. *)
let mask32 = 0xffff_ffff
let rotl32 x r = ((x lsl r) lor (x lsr (32 - r))) land mask32
let mul32 x k = x * k land mask32

let hash x =
  let d = ((x asr 31) lxor (x asr 62) lxor ((x lsl 1) lor 1)) land mask32 in
  let h = mul32 (rotl32 (mul32 d 0xcc9e2d51) 15) 0x1b873593 in
  let h = ((rotl32 h 13 * 5) + 0xe6546b64) land mask32 in
  let h = mul32 (h lxor (h lsr 16)) 0x85ebca6b in
  let h = mul32 (h lxor (h lsr 13)) 0xc2b2ae35 in
  (h lxor (h lsr 16)) land 0x3fff_ffff

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = hash
end)
