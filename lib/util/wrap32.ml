let mask = 0xFFFFFFFF

(* The helpers the interpreter retires ALU ops and flags through are
   [@inline], so a build without [-opaque] computes them in the
   dispatch loop instead of calling out per helper; the division pair
   stays out of line. *)

let[@inline] wrap v =
  let v = v land mask in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let[@inline] unsigned v = v land mask

let[@inline] add a b = wrap (a + b)
let[@inline] sub a b = wrap (a - b)
let[@inline] mul a b = wrap (a * b)

let sdiv a b = if b = 0 then 0 else wrap (a / b)
let srem a b = if b = 0 then 0 else wrap (a mod b)

let[@inline] logand a b = wrap (a land b)
let[@inline] logor a b = wrap (a lor b)
let[@inline] logxor a b = wrap (a lxor b)

let[@inline] shl a n = wrap (a lsl (n land 31))
let[@inline] shr a n = wrap ((a land mask) lsr (n land 31))
let[@inline] sar a n = wrap (wrap a asr (n land 31))

let[@inline] carry_add a b = unsigned a + unsigned b > mask
let[@inline] borrow_sub a b = unsigned a < unsigned b

(* Overflow flags use physical equality on the sign booleans: [bool]
   is an immediate type, so [==]/[!=] coincide with structural
   equality. Both compile to a single compare here; [=] at a known
   [bool] type does not call [caml_equal] either. *)
let[@inline] overflow_add a b =
  let r = wrap (a + b) in
  (a < 0) == (b < 0) && (r < 0) != (a < 0)

let[@inline] overflow_sub a b =
  let r = wrap (a - b) in
  (a < 0) != (b < 0) && (r < 0) != (a < 0)

let byte v i = (v lsr (8 * i)) land 0xFF

let of_bytes b0 b1 b2 b3 = wrap (b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24))
