type t = Nan | Inf | Sub | Div0

let to_string = function
  | Nan -> "NaN"
  | Inf -> "INF"
  | Sub -> "SUB"
  | Div0 -> "DIV0"

let equal a b =
  match a, b with
  | Nan, Nan | Inf, Inf | Sub, Sub | Div0, Div0 -> true
  | (Nan | Inf | Sub | Div0), _ -> false

let all = [ Nan; Inf; Sub; Div0 ]

let of_kind = function
  | Fpx_num.Kind.Nan -> Some Nan
  | Fpx_num.Kind.Inf -> Some Inf
  | Fpx_num.Kind.Subnormal -> Some Sub
  | Fpx_num.Kind.Zero | Fpx_num.Kind.Normal -> None

(* The more severe of two classifications: NaN, then INF, then SUB. *)
let worse a b =
  match a, b with
  | Some Nan, _ | _, Some Nan -> Some Nan
  | Some Inf, _ | _, Some Inf -> Some Inf
  | a, None -> a
  | None, b -> b
  | Some _, Some _ -> a

let classify ~fmt ~div0 lo hi =
  let e =
    match fmt with
    | Fpx_sass.Isa.FP32 -> of_kind (Fpx_num.Fp32.classify_word lo)
    | Fpx_sass.Isa.FP64 -> of_kind (Fpx_num.Fp64.classify_words ~lo ~hi)
    | Fpx_sass.Isa.FP16 ->
      worse
        (of_kind (Fpx_num.Fp16.classify (lo land 0xffff)))
        (of_kind (Fpx_num.Fp16.classify ((lo lsr 16) land 0xffff)))
  in
  if not div0 then e
  else
    match e with
    | Some (Nan | Inf) -> Some Div0
    | Some (Sub | Div0) | None -> None

let loc_bits = 16
let max_loc = (1 lsl loc_bits) - 1
let table_slots = 1 lsl (loc_bits + 4)

let exce_bits = function Nan -> 0 | Inf -> 1 | Sub -> 2 | Div0 -> 3
let exce_of_bits = function
  | 0 -> Nan
  | 1 -> Inf
  | 2 -> Sub
  | _ -> Div0

let fmt_bits = function
  | Fpx_sass.Isa.FP32 -> 0
  | Fpx_sass.Isa.FP64 -> 1
  | Fpx_sass.Isa.FP16 -> 2

let fmt_of_bits b =
  match b land 3 with
  | 0 -> Fpx_sass.Isa.FP32
  | 1 -> Fpx_sass.Isa.FP64
  | _ -> Fpx_sass.Isa.FP16

let encode ~loc ~fmt e =
  ((loc land max_loc) lsl 4) lor (fmt_bits fmt lsl 2) lor exce_bits e

let decode idx =
  (idx lsr 4, fmt_of_bits ((idx lsr 2) land 3), exce_of_bits (idx land 3))
