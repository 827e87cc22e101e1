type t = float

let bits = Int64.bits_of_float
let of_bits = Int64.float_of_bits

(* The classification rule, on the two 32-bit words of the pattern (a
   register pair), so callers holding words need not build the double;
   [classify] and [classify_hi] go through it. *)
let classify_words ~lo ~hi =
  match (hi lsr 20) land 0x7ff, (hi land 0xfffff) lor (lo land 0xffffffff) with
  | 0x7ff, 0 -> Kind.Inf
  | 0x7ff, _ -> Kind.Nan
  | 0, 0 -> Kind.Zero
  | 0, _ -> Kind.Subnormal
  | _, _ -> Kind.Normal

let classify t =
  let b = bits t in
  classify_words ~lo:(Int64.to_int b)
    ~hi:(Int64.to_int (Int64.shift_right_logical b 32))

let is_nan t = Kind.equal (classify t) Kind.Nan
let is_inf t = Kind.equal (classify t) Kind.Inf
let is_subnormal t = Kind.equal (classify t) Kind.Subnormal
let is_zero t = Kind.equal (classify t) Kind.Zero
let sign_bit t = Int64.logand (bits t) Int64.min_int <> 0L

let pos_inf = infinity
let neg_inf = neg_infinity
let qnan = nan
let min_normal = of_bits 0x0010000000000000L
let min_subnormal = of_bits 0x0000000000000001L
let max_finite = of_bits 0x7fefffffffffffffL

let to_words t =
  let b = bits t in
  ( Int64.to_int32 (Int64.logand b 0xffffffffL),
    Int64.to_int32 (Int64.shift_right_logical b 32) )

let of_words ~lo ~hi =
  let mask32 x = Int64.logand (Int64.of_int32 x) 0xffffffffL in
  of_bits (Int64.logor (Int64.shift_left (mask32 hi) 32) (mask32 lo))

let hi_word t = snd (to_words t)

let classify_hi hi = classify_words ~lo:0 ~hi:(Int32.to_int hi)

let add = ( +. )
let sub = ( -. )
let mul = ( *. )
let fma = Float.fma
let div = ( /. )
let neg = Float.neg
let abs = Float.abs
let sqrt = Float.sqrt

let min_nv a b =
  if is_nan a then b else if is_nan b then a else if a <= b then a else b

let max_nv a b =
  if is_nan a then b else if is_nan b then a else if a >= b then a else b

let compare_ieee a b =
  if is_nan a || is_nan b then None else Some (Float.compare a b)
