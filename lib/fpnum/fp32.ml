type t = int32

let of_float f = Int32.bits_of_float f
let to_float t = Int32.float_of_bits t
let of_bits b = b
let to_bits t = t

let zero = 0l
let neg_zero = Int32.min_int
let one = of_float 1.0
let pos_inf = 0x7f800000l
let neg_inf = 0xff800000l
let qnan = 0x7fc00000l
let max_finite = 0x7f7fffffl
let min_subnormal = 0x00000001l
let min_normal = 0x00800000l

let sign_bit t = Int32.logand t Int32.min_int <> 0l
let exponent_field t =
  Int32.to_int (Int32.logand (Int32.shift_right_logical t 23) 0xffl)
let mantissa_field t = Int32.to_int (Int32.logand t 0x7fffffl)

(* The bit rules, on words: each is defined once here, on the
   representation the executor's register file holds, and the [t]
   versions below go through them. *)
let to_word t = Int32.to_int t land 0xffffffff
let of_word = Int32.of_int

let classify_word w =
  match (w lsr 23) land 0xff, w land 0x7fffff with
  | 0xff, 0 -> Kind.Inf
  | 0xff, _ -> Kind.Nan
  | 0, 0 -> Kind.Zero
  | 0, _ -> Kind.Subnormal
  | _, _ -> Kind.Normal

let is_nan_word w = w land 0x7fffffff > 0x7f800000

let ftz_word w =
  if w land 0x7f800000 = 0 && w land 0x7fffff <> 0 then w land 0x80000000
  else w

let mod_word w ~neg ~abs ~ftz =
  let w = if ftz then ftz_word w else w in
  let w = if abs then w land 0x7fffffff else w in
  if neg then w lxor 0x80000000 else w

let word_float w = Int32.float_of_bits (Int32.of_int w)

let min_nv_word a b =
  if is_nan_word a then b
  else if is_nan_word b then a
  else if word_float a <= word_float b then a
  else b

let max_nv_word a b =
  if is_nan_word a then b
  else if is_nan_word b then a
  else if word_float a >= word_float b then a
  else b

let classify t = classify_word (to_word t)
let is_nan t = is_nan_word (to_word t)
let is_inf t = Kind.equal (classify t) Kind.Inf
let is_subnormal t = Kind.equal (classify t) Kind.Subnormal
let is_zero t = Kind.equal (classify t) Kind.Zero

(* Eta-expanded so each is a direct two-argument function, not a
   partial application of [lift2] — callers get a static call instead
   of a closure invocation. *)
let add a b = of_float (to_float a +. to_float b)
let sub a b = of_float (to_float a -. to_float b)
let mul a b = of_float (to_float a *. to_float b)
let div a b = of_float (to_float a /. to_float b)
let fma a b c = of_float (Float.fma (to_float a) (to_float b) (to_float c))
let neg t = Int32.logxor t Int32.min_int
let abs t = Int32.logand t Int32.max_int
let sqrt t = of_float (Float.sqrt (to_float t))

(* The word rules return one of their inputs' words; handing back that
   input itself keeps the common case from boxing a fresh [int32]. *)
let min_nv a b =
  if min_nv_word (to_word a) (to_word b) = to_word a then a else b

let max_nv a b =
  if max_nv_word (to_word a) (to_word b) = to_word a then a else b

let ftz t =
  let w = to_word t in
  let f = ftz_word w in
  if f = w then t else of_word f

let equal_bits = Int32.equal

let compare_ieee a b =
  if is_nan a || is_nan b then None
  else Some (Float.compare (to_float a) (to_float b))

let to_string t = Printf.sprintf "%h" (to_float t)
let pp ppf t = Format.pp_print_string ppf (to_string t)
