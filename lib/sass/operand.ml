type base =
  | Reg of int
  | Pred of int
  | Imm_f32 of int32
  | Imm_f64 of float
  | Imm_i of int32
  | Generic of string
  | Cbank of { bank : int; offset : int }
  | Label of int

type t = { base : base; neg : bool; abs : bool; pred_not : bool }

let rz = 255
let pt = 7

let plain base = { base; neg = false; abs = false; pred_not = false }

let reg n = plain (Reg n)
let reg_neg n = { (reg n) with neg = true }
let reg_abs n = { (reg n) with abs = true }
let pred n = plain (Pred n)
let pred_not n = { (pred n) with pred_not = true }
let imm_f32 bits = plain (Imm_f32 bits)
let imm_f64 v = plain (Imm_f64 v)
let imm_i v = plain (Imm_i v)
let cbank ~bank ~offset = plain (Cbank { bank; offset })
let label pc = plain (Label pc)

let reg_num t = match t.base with Reg n -> Some n | _ -> None

(* Lossless but compact: integers print bare, other values use the
   shortest %g precision that round-trips. *)
let float_token v =
  if Float.is_nan v then if Float.sign_bit v then "-QNAN" else "+QNAN"
  else if v = Float.infinity then "+INF"
  else if v = Float.neg_infinity then "-INF"
  else if Float.is_integer v && Float.abs v < 1e9 then
    Printf.sprintf "%.0f" v
  else
    let g9 = Printf.sprintf "%.9g" v in
    if float_of_string g9 = v then g9 else Printf.sprintf "%.17g" v

let generic_value = function
  | "+INF" | "INF" -> Some infinity
  | "-INF" -> Some neg_infinity
  | "+QNAN" | "QNAN" | "+SNAN" -> Some Float.nan
  | "-QNAN" | "-SNAN" -> Some (-.Float.nan)
  | s -> float_of_string_opt s

let base_to_string = function
  | Reg n -> if n = rz then "RZ" else Printf.sprintf "R%d" n
  | Pred n -> if n = pt then "PT" else Printf.sprintf "P%d" n
  | Imm_f32 bits -> float_token (Int32.float_of_bits bits)
  | Imm_f64 v -> float_token v
  | Imm_i v -> Printf.sprintf "0x%lx" v
  | Generic s -> s
  | Cbank { bank; offset } -> Printf.sprintf "c[0x%x][0x%x]" bank offset
  | Label pc -> Printf.sprintf "0x%x" (pc * 16)

let to_string t =
  let s = base_to_string t.base in
  let s = if t.abs then "|" ^ s ^ "|" else s in
  let s = if t.neg then "-" ^ s else s in
  if t.pred_not then "!" ^ s else s
