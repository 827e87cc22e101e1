type check =
  | Check_32 of int
  | Check_16 of int
  | Check_64 of int * int
  | Div0_32 of int
  | Div0_64 of int * int

let plan (i : Instr.t) =
  match Instr.dest_reg_num i with
  | None -> None
  | Some d -> (
    match i.Instr.op with
    | Isa.MUFU (Isa.Rcp | Isa.Rsq) -> Some (Div0_32 d)
    | Isa.MUFU (Isa.Rcp64h | Isa.Rsq64h) -> Some (Div0_64 (d - 1, d))
    | Isa.MUFU (Isa.Sqrt | Isa.Ex2 | Isa.Lg2 | Isa.Sin | Isa.Cos) ->
      Some (Check_32 d)
    | Isa.DADD | Isa.DMUL | Isa.DFMA -> Some (Check_64 (d, d + 1))
    | Isa.FADD | Isa.FADD32I | Isa.FMUL | Isa.FMUL32I | Isa.FFMA
    | Isa.FFMA32I | Isa.FSEL | Isa.FMNMX | Isa.FSET _ ->
      Some (Check_32 d)
    | Isa.HADD2 | Isa.HMUL2 | Isa.HFMA2 -> Some (Check_16 d)
    (* FP16 extension: a narrowing cast is where loss-scaled values
       overflow half range (65504), so check its destination too. The
       high half of the destination word is zero, which classifies as
       no exception, so the packed check applies as-is. *)
    | Isa.F2F (Isa.FP16, Isa.FP32) -> Some (Check_16 d)
    | Isa.FSETP _ | Isa.DSETP _ | Isa.PSETP _ | Isa.FCHK | Isa.SEL
    | Isa.F2F _ | Isa.I2F _ | Isa.F2I _ | Isa.MOV | Isa.MOV32I | Isa.IADD
    | Isa.IMAD | Isa.ISETP _ | Isa.SHL | Isa.SHR | Isa.LOP_AND | Isa.LOP_OR
    | Isa.LOP_XOR | Isa.LDG _ | Isa.STG _ | Isa.LDS _ | Isa.STS _
    | Isa.ATOM_ADD _ | Isa.S2R _ | Isa.BRA | Isa.BAR | Isa.EXIT | Isa.NOP ->
      None)

let fmt = function
  | Check_32 _ | Div0_32 _ -> Isa.FP32
  | Check_16 _ -> Isa.FP16
  | Check_64 _ | Div0_64 _ -> Isa.FP64

let is_div0 = function
  | Div0_32 _ | Div0_64 _ -> true
  | Check_32 _ | Check_16 _ | Check_64 _ -> false

let n_values c = match fmt c with Isa.FP64 -> 2 | Isa.FP32 | Isa.FP16 -> 1

let regs = function
  | Check_32 d | Check_16 d | Div0_32 d -> [ d ]
  | Check_64 (lo, hi) | Div0_64 (lo, hi) ->
    if lo >= 0 then [ lo; hi ] else [ hi ]
