type fp_format = FP16 | FP32 | FP64

let fp_format_to_string = function
  | FP16 -> "FP16"
  | FP32 -> "FP32"
  | FP64 -> "FP64"

type mufu_op = Rcp | Rsq | Sqrt | Ex2 | Lg2 | Sin | Cos | Rcp64h | Rsq64h

let mufu_op_to_string = function
  | Rcp -> "RCP"
  | Rsq -> "RSQ"
  | Sqrt -> "SQRT"
  | Ex2 -> "EX2"
  | Lg2 -> "LG2"
  | Sin -> "SIN"
  | Cos -> "COS"
  | Rcp64h -> "RCP64H"
  | Rsq64h -> "RSQ64H"

let mufu_is_64h = function
  | Rcp64h | Rsq64h -> true
  | Rcp | Rsq | Sqrt | Ex2 | Lg2 | Sin | Cos -> false

let eval_mufu op x =
  let module Sfu = Fpx_num.Sfu in
  match op with
  | Rcp -> Sfu.rcp x
  | Rsq -> Sfu.rsq x
  | Sqrt -> Sfu.sqrt x
  | Ex2 -> Sfu.ex2 x
  | Lg2 -> Sfu.lg2 x
  | Sin -> Sfu.sin x
  | Cos -> Sfu.cos x
  | Rcp64h -> Sfu.rcp64h x
  | Rsq64h -> Sfu.rsq64h x

type cmp = { op : cmp_op; or_unordered : bool }
and cmp_op = Lt | Le | Gt | Ge | Eq | Ne

let cmp op = { op; or_unordered = false }
let cmp_u op = { op; or_unordered = true }

let cmp_op_to_string = function
  | Lt -> "LT"
  | Le -> "LE"
  | Gt -> "GT"
  | Ge -> "GE"
  | Eq -> "EQ"
  | Ne -> "NE"

let cmp_to_string c =
  cmp_op_to_string c.op ^ if c.or_unordered then "U" else ""

let eval_cmp c ord =
  match ord with
  | None -> c.or_unordered
  | Some n -> (
    match c.op with
    | Lt -> n < 0
    | Le -> n <= 0
    | Gt -> n > 0
    | Ge -> n >= 0
    | Eq -> n = 0
    | Ne -> n <> 0)

type width = W32 | W64

type sreg = Tid_x | Ntid_x | Ctaid_x | Nctaid_x | Lane_id

let sreg_to_string = function
  | Tid_x -> "SR_TID.X"
  | Ntid_x -> "SR_NTID.X"
  | Ctaid_x -> "SR_CTAID.X"
  | Nctaid_x -> "SR_NCTAID.X"
  | Lane_id -> "SR_LANEID"

type pbool = Pand | Por | Pxor

let eval_pbool b p q =
  match b with Pand -> p && q | Por -> p || q | Pxor -> p <> q

type atom_ty = Af32 | Ai32

type opcode =
  | FADD
  | FADD32I
  | FMUL
  | FMUL32I
  | FFMA
  | FFMA32I
  | MUFU of mufu_op
  | DADD
  | DMUL
  | DFMA
  | HADD2
  | HMUL2
  | HFMA2
  | FSEL
  | FSET of cmp
  | FSETP of cmp
  | FMNMX
  | DSETP of cmp
  | PSETP of pbool
  | FCHK
  | F2F of fp_format * fp_format
  | I2F of fp_format
  | F2I of fp_format
  | SEL
  | MOV
  | MOV32I
  | IADD
  | IMAD
  | ISETP of cmp
  | SHL
  | SHR
  | LOP_AND
  | LOP_OR
  | LOP_XOR
  | LDG of width
  | STG of width
  | LDS of width
  | STS of width
  | ATOM_ADD of atom_ty
  | S2R of sreg
  | BRA
  | BAR
  | EXIT
  | NOP

let fmt_suffix = function FP16 -> "F16" | FP32 -> "F32" | FP64 -> "F64"
let width_suffix = function W32 -> "E.32" | W64 -> "E.64"

let opcode_to_string = function
  | FADD -> "FADD"
  | FADD32I -> "FADD32I"
  | FMUL -> "FMUL"
  | FMUL32I -> "FMUL32I"
  | FFMA -> "FFMA"
  | FFMA32I -> "FFMA32I"
  | MUFU m -> "MUFU." ^ mufu_op_to_string m
  | DADD -> "DADD"
  | DMUL -> "DMUL"
  | DFMA -> "DFMA"
  | HADD2 -> "HADD2"
  | HMUL2 -> "HMUL2"
  | HFMA2 -> "HFMA2"
  | FSEL -> "FSEL"
  | FSET c -> "FSET.BF." ^ cmp_to_string c
  | FSETP c -> "FSETP." ^ cmp_to_string c ^ ".AND"
  | FMNMX -> "FMNMX"
  | DSETP c -> "DSETP." ^ cmp_to_string c ^ ".AND"
  | PSETP b ->
    "PSETP." ^ (match b with Pand -> "AND" | Por -> "OR" | Pxor -> "XOR")
  | FCHK -> "FCHK"
  | SEL -> "SEL"
  | F2F (d, s) -> Printf.sprintf "F2F.%s.%s" (fmt_suffix d) (fmt_suffix s)
  | I2F f -> "I2F." ^ fmt_suffix f
  | F2I f -> "F2I." ^ fmt_suffix f
  | MOV -> "MOV"
  | MOV32I -> "MOV32I"
  | IADD -> "IADD3"
  | IMAD -> "IMAD"
  | ISETP c -> "ISETP." ^ cmp_to_string c ^ ".AND"
  | SHL -> "SHF.L"
  | SHR -> "SHF.R"
  | LOP_AND -> "LOP3.AND"
  | LOP_OR -> "LOP3.OR"
  | LOP_XOR -> "LOP3.XOR"
  | LDG w -> "LDG." ^ width_suffix w
  | STG w -> "STG." ^ width_suffix w
  | LDS w -> "LDS." ^ width_suffix w
  | STS w -> "STS." ^ width_suffix w
  | ATOM_ADD Af32 -> "RED.ADD.F32"
  | ATOM_ADD Ai32 -> "RED.ADD.S32"
  | S2R r -> "S2R." ^ sreg_to_string r
  | BRA -> "BRA"
  | BAR -> "BAR.SYNC"
  | EXIT -> "EXIT"
  | NOP -> "NOP"

let is_fp32_compute = function
  | FADD | FADD32I | FMUL | FMUL32I | FFMA | FFMA32I -> true
  | MUFU m -> not (mufu_is_64h m)
  | HADD2 | HMUL2 | HFMA2
  | DADD | DMUL | DFMA | FSEL | FSET _ | FSETP _ | FMNMX | DSETP _ | PSETP _
  | FCHK | SEL | F2F _ | I2F _ | F2I _ | MOV | MOV32I | IADD | IMAD | ISETP _
  | SHL | SHR | LOP_AND | LOP_OR | LOP_XOR | LDG _ | STG _ | LDS _ | STS _ | ATOM_ADD _ | S2R _ | BRA | BAR
  | EXIT | NOP ->
    false

let is_fp64_compute = function
  | DADD | DMUL | DFMA -> true
  | MUFU m -> mufu_is_64h m
  | HADD2 | HMUL2 | HFMA2 -> false
  | FADD | FADD32I | FMUL | FMUL32I | FFMA | FFMA32I | FSEL | FSET _
  | FSETP _ | FMNMX | DSETP _ | PSETP _ | FCHK | SEL | F2F _ | I2F _ | F2I _ | MOV | MOV32I
  | IADD | IMAD | ISETP _ | SHL | SHR | LOP_AND | LOP_OR | LOP_XOR | LDG _
  | STG _ | LDS _ | STS _ | ATOM_ADD _ | S2R _ | BRA | BAR | EXIT | NOP ->
    false

let is_fp16_compute = function
  | HADD2 | HMUL2 | HFMA2 -> true
  | FADD | FADD32I | FMUL | FMUL32I | FFMA | FFMA32I | MUFU _ | DADD | DMUL
  | DFMA | FSEL | FSET _ | FSETP _ | FMNMX | DSETP _ | PSETP _ | FCHK | SEL
  | F2F _ | I2F _ | F2I _ | MOV | MOV32I | IADD | IMAD | ISETP _ | SHL | SHR
  | LOP_AND | LOP_OR | LOP_XOR | LDG _ | STG _ | LDS _ | STS _ | ATOM_ADD _ | S2R _ | BRA | BAR | EXIT | NOP ->
    false

let is_control_flow = function
  | FSEL | FSET _ | FSETP _ | FMNMX | DSETP _ -> true
  | HADD2 | HMUL2 | HFMA2 -> false
  | FADD | FADD32I | FMUL | FMUL32I | FFMA | FFMA32I | MUFU _ | DADD | DMUL
  | DFMA | PSETP _ | FCHK | SEL | F2F _ | I2F _ | F2I _ | MOV | MOV32I | IADD | IMAD
  | ISETP _ | SHL | SHR | LOP_AND | LOP_OR | LOP_XOR | LDG _ | STG _ | LDS _ | STS _ | ATOM_ADD _ | S2R _
  | BRA | BAR | EXIT | NOP ->
    false

let is_fp_instrumentable op =
  is_fp32_compute op || is_fp64_compute op || is_fp16_compute op
  || is_control_flow op

let fp_format_of_opcode op =
  if is_fp64_compute op then Some FP64
  else if is_fp16_compute op then Some FP16
  else if is_fp32_compute op then Some FP32
  else
    match op with
    | FSEL | FSET _ | FSETP _ | FMNMX -> Some FP32
    | DSETP _ -> Some FP64
    | _ -> None

let base_cost = function
  | FADD | FADD32I | FMUL | FMUL32I | FFMA | FFMA32I -> 4
  | HADD2 | HMUL2 | HFMA2 -> 4
  | MUFU _ -> 8
  | DADD | DMUL | DFMA -> 8
  | FSEL | FMNMX | FSET _ -> 4
  | FSETP _ | DSETP _ | ISETP _ | FCHK -> 5
  | PSETP _ -> 2
  | F2F _ | I2F _ | F2I _ -> 5
  | SEL | MOV | MOV32I | IADD | IMAD | SHL | SHR | LOP_AND | LOP_OR | LOP_XOR
    -> 2
  | LDG _ -> 40
  | STG _ -> 20
  | LDS _ -> 8
  | STS _ -> 8
  | ATOM_ADD _ -> 30
  | S2R _ -> 6
  | BRA -> 8
  | BAR -> 20
  | EXIT | NOP -> 1

let table1 =
  [ ("FADD", "FP32 Add", `Computation);
    ("FADD32I", "FP32 Add", `Computation);
    ("FFMA32I", "FP32 Fused Multiply and Add", `Computation);
    ("FFMA", "FP32 Fused Multiply and Add", `Computation);
    ("FMUL", "FP32 Multiply", `Computation);
    ("FMUL32I", "FP32 Multiply", `Computation);
    ("MUFU", "FP32 Multi Function Operation", `Computation);
    ("DADD", "FP64 Add", `Computation);
    ("DFMA", "FP64 Fused Multiply Add", `Computation);
    ("DMUL", "FP64 Multiply", `Computation);
    ("FSEL", "Floating Point Select", `Control_flow);
    ("FSET", "FP32 Compare And Set", `Control_flow);
    ("FSETP", "FP32 Compare And Set Predicate", `Control_flow);
    ("FMNMX", "FP32 Minimum/Maximum", `Control_flow);
    ("DSETP", "FP64 Compare And Set Predicate", `Control_flow) ]
