module Fp32 = Fpx_num.Fp32
module Fp64 = Fpx_num.Fp64

type f32src =
  | F32_reg of int
  | F32_reg_m of { r : int; neg : bool; abs : bool; ftz : bool }
  | F32_imm of int
  | F32_cb of int
  | F32_cb_m of { off : int; neg : bool; abs : bool; ftz : bool }
  | F32_poison of exn

type f64src =
  | F64_reg of int
  | F64_reg_m of { r : int; neg : bool; abs : bool }
  | F64_imm of float
  | F64_cb of { off : int; neg : bool; abs : bool }
  | F64_poison of exn

type i32src =
  | I32_reg of int
  | I32_imm of int
  | I32_cb of int
  | I32_poison of exn

type predsrc = P_src of int | P_poison of exn
type dst = D_reg of int | D_sink | D_poison of exn
type pdst = PD_reg of int | PD_poison of exn
type v64src = V64_pair of int | V64_val of f64src
type guard = G_none | G_p of int | G_poison of exn

type uop =
  | U_fadd of { d : dst; a : f32src; b : f32src }
  | U_fmul of { d : dst; a : f32src; b : f32src }
  | U_ffma of { d : dst; a : f32src; b : f32src; c : f32src }
  | U_mufu_f32 of { d : dst; m : Isa.mufu_op; a : f32src }
  | U_mufu_64h of { d : dst; m : Isa.mufu_op; a : i32src }
  | U_hadd2 of { d : dst; a : i32src; b : i32src }
  | U_hmul2 of { d : dst; a : i32src; b : i32src }
  | U_hfma2 of { d : dst; a : i32src; b : i32src; c : i32src }
  | U_dadd of { d : dst; a : f64src; b : f64src }
  | U_dmul of { d : dst; a : f64src; b : f64src }
  | U_dfma of { d : dst; a : f64src; b : f64src; c : f64src }
  | U_fsel of { d : dst; a : f32src; b : f32src; p : predsrc }
  | U_fset of { d : dst; c : Isa.cmp; a : f32src; b : f32src }
  | U_fsetp of { pd : pdst; c : Isa.cmp; a : f32src; b : f32src }
  | U_fmnmx of { d : dst; a : f32src; b : f32src; p : predsrc }
  | U_dsetp of { pd : pdst; c : Isa.cmp; a : f64src; b : f64src }
  | U_psetp of { pd : pdst; op : Isa.pbool; p1 : predsrc; p2 : predsrc }
  | U_fchk of { pd : pdst; a : f32src; b : f32src }
  | U_f32_of_f64 of { d : dst; a : f64src }
  | U_f64_of_f32 of { d : dst; a : f32src }
  | U_f32_of_f32 of { d : dst; a : f32src }
  | U_f64_of_f64 of { d : dst; a : f64src }
  | U_f16_of_f32 of { d : dst; a : f32src }
  | U_f32_of_f16 of { d : dst; a : i32src }
  | U_i2f32 of { d : dst; a : i32src }
  | U_i2f64 of { d : dst; a : i32src }
  | U_f2i32 of { d : dst; a : f32src }
  | U_f2i64 of { d : dst; a : f64src }
  | U_mov of { d : dst; a : i32src }
  | U_iadd of { d : dst; a : i32src; b : i32src }
  | U_imad of { d : dst; a : i32src; b : i32src; c : i32src }
  | U_isetp of { pd : pdst; c : Isa.cmp; a : i32src; b : i32src }
  | U_shl of { d : dst; a : i32src; b : i32src }
  | U_shr of { d : dst; a : i32src; b : i32src }
  | U_and of { d : dst; a : i32src; b : i32src }
  | U_or of { d : dst; a : i32src; b : i32src }
  | U_xor of { d : dst; a : i32src; b : i32src }
  | U_ldg32 of { d : dst; addr : i32src }
  | U_ldg64 of { d : dst; addr : i32src }
  | U_stg32 of { addr : i32src; v : i32src }
  | U_stg64 of { addr : i32src; v : v64src }
  | U_lds32 of { d : dst; addr : i32src }
  | U_lds64 of { d : dst; addr : i32src }
  | U_sts32 of { addr : i32src; v : i32src }
  | U_sts64 of { addr : i32src; v : v64src }
  | U_atom_add of { d : dst; fp : bool; addr : i32src; v : i32src }
  | U_s2r of { d : dst; r : Isa.sreg }
  | U_bra of int
  | U_bra_poison of exn
  | U_bar
  | U_exit
  | U_nop
  | U_trap of exn

type entry = { uop : uop; guard : guard; cost : int }
type t = { prog : Program.t; entries : entry array; nslots : int }

exception Trap of string

(* Poison exceptions carry exactly what the reference core raises at
   the same dynamic point: its Trap for malformed operands, and the
   Invalid_argument Array.get raises when a mutant lost an operand. *)
let trapf fmt = Printf.ksprintf (fun s -> Trap s) fmt
let oob = Invalid_argument "index out of bounds"

let canon (v : int32) = Int32.to_int v land 0xffffffff

let opnd (i : Instr.t) k =
  if k < Instr.num_operands i then Some (Instr.get_operand i k) else None

(* Imm resolution applies the reference read order: FTZ on the raw
   bits, then abs, then neg. *)
let f32_imm ~ftz ~(o : Operand.t) raw =
  let v = if ftz then Fp32.ftz raw else raw in
  let v = if o.abs then Fp32.abs v else v in
  F32_imm (canon (if o.neg then Fp32.neg v else v))

let decode_f32 ~ftz ~nslots i k =
  match opnd i k with
  | None -> F32_poison oob
  | Some o -> (
    match o.Operand.base with
    | Operand.Reg n ->
      if n = Operand.rz then f32_imm ~ftz ~o 0l
      else if n >= nslots then F32_poison (trapf "register R%d out of range" n)
      else if o.neg || o.abs || ftz then
        F32_reg_m { r = n; neg = o.neg; abs = o.abs; ftz }
      else F32_reg n
    | Operand.Imm_f32 b -> f32_imm ~ftz ~o b
    | Operand.Imm_f64 v -> f32_imm ~ftz ~o (Fp32.of_float v)
    | Operand.Imm_i v -> f32_imm ~ftz ~o v
    | Operand.Generic s -> (
      match Operand.generic_value s with
      | Some v -> f32_imm ~ftz ~o (Fp32.of_float v)
      | None -> F32_poison (trapf "bad GENERIC operand %S" s))
    | Operand.Cbank { offset; _ } ->
      if o.neg || o.abs || ftz then
        F32_cb_m { off = offset; neg = o.neg; abs = o.abs; ftz }
      else F32_cb offset
    | Operand.Pred _ | Operand.Label _ ->
      F32_poison (trapf "FP32 operand expected, got %s" (Operand.to_string o)))

let f64_mods ~(o : Operand.t) v =
  let v = if o.abs then Fp64.abs v else v in
  F64_imm (if o.neg then Fp64.neg v else v)

(* The reference core reads the pair hi-word first (right-to-left
   argument order), so a pair straddling the end of the file names
   R(n+1) in its trap. *)
let f64_pair_bounds ~nslots n =
  let hi = n + 1 in
  if hi <> Operand.rz && hi >= nslots then
    Some (trapf "register R%d out of range" hi)
  else if n <> Operand.rz && n >= nslots then
    Some (trapf "register R%d out of range" n)
  else None

let decode_f64 ~nslots i k =
  match opnd i k with
  | None -> F64_poison oob
  | Some o -> (
    match o.Operand.base with
    | Operand.Reg n -> (
      match f64_pair_bounds ~nslots n with
      | Some e -> F64_poison e
      | None ->
        if o.neg || o.abs then F64_reg_m { r = n; neg = o.neg; abs = o.abs }
        else F64_reg n)
    | Operand.Imm_f64 v -> f64_mods ~o v
    | Operand.Imm_f32 b -> f64_mods ~o (Fp32.to_float b)
    | Operand.Generic s -> (
      match Operand.generic_value s with
      | Some v -> f64_mods ~o v
      | None -> F64_poison (trapf "bad GENERIC operand %S" s))
    | Operand.Cbank { offset; _ } ->
      F64_cb { off = offset; neg = o.neg; abs = o.abs }
    | Operand.Imm_i _ | Operand.Pred _ | Operand.Label _ ->
      F64_poison (trapf "FP64 operand expected, got %s" (Operand.to_string o)))

let decode_i32 ~nslots i k =
  match opnd i k with
  | None -> I32_poison oob
  | Some o -> (
    match o.Operand.base with
    | Operand.Reg n ->
      if n = Operand.rz then I32_imm 0
      else if n >= nslots then I32_poison (trapf "register R%d out of range" n)
      else I32_reg n
    | Operand.Imm_i v -> I32_imm (canon v)
    | Operand.Imm_f32 b -> I32_imm (canon b)
    | Operand.Cbank { offset; _ } -> I32_cb offset
    | Operand.Imm_f64 _ | Operand.Generic _ | Operand.Pred _
    | Operand.Label _ ->
      I32_poison
        (trapf "integer operand expected, got %s" (Operand.to_string o)))

let decode_pred i k =
  match opnd i k with
  | None -> P_poison oob
  | Some o -> (
    match o.Operand.base with
    (* p outside the 8-wide file: the reference core's Array.get
       raises, so defer the same Invalid_argument to read time. *)
    | Operand.Pred p when p < 0 || p > 7 -> P_poison oob
    | Operand.Pred p -> P_src (p lor (if o.pred_not then 8 else 0))
    | _ ->
      P_poison
        (trapf "predicate operand expected, got %s" (Operand.to_string o)))

let decode_v64 ~nslots i =
  match opnd i 1 with
  | None -> V64_val (F64_poison oob)
  | Some o -> (
    match o.Operand.base with
    | Operand.Reg n -> (
      match f64_pair_bounds ~nslots n with
      | Some e -> V64_val (F64_poison e)
      | None -> V64_pair n)
    | _ -> V64_val (decode_f64 ~nslots i 1))

let no_reg_dest i =
  trapf "instruction %s lacks a register destination" (Instr.sass_string i)

let dst32 ~nslots i =
  match Instr.dest_reg_num i with
  | None -> D_poison (no_reg_dest i)
  | Some d ->
    if d = Operand.rz then D_sink
    else if d >= nslots then D_poison (trapf "register R%d out of range" d)
    else D_reg d

(* Pair destinations write lo then hi, each with its own RZ/range
   check — so the trap names whichever word is out of range first. *)
let dst_pair ~nslots i =
  match Instr.dest_reg_num i with
  | None -> D_poison (no_reg_dest i)
  | Some d ->
    if d <> Operand.rz && d >= nslots then
      D_poison (trapf "register R%d out of range" d)
    else if d + 1 <> Operand.rz && d + 1 >= nslots then
      D_poison (trapf "register R%d out of range" (d + 1))
    else D_reg d

let decode_pdst i =
  if Instr.num_operands i = 0 then PD_poison oob
  else
    match (Instr.get_operand i 0).Operand.base with
    | Operand.Pred p when p < 0 || p > 7 -> PD_poison oob
    | Operand.Pred p -> PD_reg p
    | _ ->
      PD_poison
        (trapf "instruction %s lacks a predicate destination"
           (Instr.sass_string i))

let decode_guard i =
  match i.Instr.guard with
  | None -> G_none
  | Some g -> (
    match g.Operand.base with
    | Operand.Pred p when p < 0 || p > 7 -> G_poison oob
    | Operand.Pred p -> G_p (p lor (if g.pred_not then 8 else 0))
    | _ ->
      G_poison
        (trapf "predicate operand expected, got %s" (Operand.to_string g)))

let decode_bra i =
  match opnd i 0 with
  | None -> U_bra_poison oob
  | Some o -> (
    match o.Operand.base with
    | Operand.Label pc -> U_bra pc
    | _ ->
      U_bra_poison
        (trapf "branch target expected, got %s" (Operand.to_string o)))

let uop_of ~nslots ~ftz (i : Instr.t) =
  let f32 k = decode_f32 ~ftz ~nslots i k in
  let f32raw k = decode_f32 ~ftz:false ~nslots i k in
  let f64 k = decode_f64 ~nslots i k in
  let i32 k = decode_i32 ~nslots i k in
  let pred k = decode_pred i k in
  let d32 () = dst32 ~nslots i in
  let dpair () = dst_pair ~nslots i in
  let dp () = decode_pdst i in
  match i.op with
  | Isa.FADD | Isa.FADD32I -> U_fadd { d = d32 (); a = f32 1; b = f32 2 }
  | Isa.FMUL | Isa.FMUL32I -> U_fmul { d = d32 (); a = f32 1; b = f32 2 }
  | Isa.FFMA | Isa.FFMA32I ->
    U_ffma { d = d32 (); a = f32 1; b = f32 2; c = f32 3 }
  | Isa.MUFU ((Isa.Rcp64h | Isa.Rsq64h) as m) ->
    U_mufu_64h { d = d32 (); m; a = i32 1 }
  | Isa.MUFU m -> U_mufu_f32 { d = d32 (); m; a = f32 1 }
  | Isa.HADD2 -> U_hadd2 { d = d32 (); a = i32 1; b = i32 2 }
  | Isa.HMUL2 -> U_hmul2 { d = d32 (); a = i32 1; b = i32 2 }
  | Isa.HFMA2 -> U_hfma2 { d = d32 (); a = i32 1; b = i32 2; c = i32 3 }
  | Isa.DADD -> U_dadd { d = dpair (); a = f64 1; b = f64 2 }
  | Isa.DMUL -> U_dmul { d = dpair (); a = f64 1; b = f64 2 }
  | Isa.DFMA -> U_dfma { d = dpair (); a = f64 1; b = f64 2; c = f64 3 }
  | Isa.FSEL | Isa.SEL ->
    U_fsel { d = d32 (); a = f32raw 1; b = f32raw 2; p = pred 3 }
  | Isa.FSET c -> U_fset { d = d32 (); c; a = f32 1; b = f32 2 }
  | Isa.FSETP c -> U_fsetp { pd = dp (); c; a = f32 1; b = f32 2 }
  | Isa.FMNMX -> U_fmnmx { d = d32 (); a = f32 1; b = f32 2; p = pred 3 }
  | Isa.DSETP c -> U_dsetp { pd = dp (); c; a = f64 1; b = f64 2 }
  | Isa.PSETP op -> U_psetp { pd = dp (); op; p1 = pred 1; p2 = pred 2 }
  | Isa.FCHK -> U_fchk { pd = dp (); a = f32 1; b = f32 2 }
  | Isa.F2F (Isa.FP32, Isa.FP64) -> U_f32_of_f64 { d = d32 (); a = f64 1 }
  | Isa.F2F (Isa.FP64, Isa.FP32) -> U_f64_of_f32 { d = dpair (); a = f32 1 }
  | Isa.F2F (Isa.FP32, Isa.FP32) -> U_f32_of_f32 { d = d32 (); a = f32 1 }
  | Isa.F2F (Isa.FP64, Isa.FP64) -> U_f64_of_f64 { d = dpair (); a = f64 1 }
  | Isa.F2F (Isa.FP16, Isa.FP32) -> U_f16_of_f32 { d = d32 (); a = f32 1 }
  | Isa.F2F (Isa.FP32, Isa.FP16) -> U_f32_of_f16 { d = d32 (); a = i32 1 }
  | Isa.F2F (Isa.FP16, (Isa.FP16 | Isa.FP64)) | Isa.F2F (Isa.FP64, Isa.FP16)
  | Isa.I2F Isa.FP16 | Isa.F2I Isa.FP16 ->
    U_trap (trapf "unsupported conversion %s" (Isa.opcode_to_string i.op))
  | Isa.I2F Isa.FP32 -> U_i2f32 { d = d32 (); a = i32 1 }
  | Isa.I2F Isa.FP64 -> U_i2f64 { d = dpair (); a = i32 1 }
  | Isa.F2I Isa.FP32 -> U_f2i32 { d = d32 (); a = f32 1 }
  | Isa.F2I Isa.FP64 -> U_f2i64 { d = d32 (); a = f64 1 }
  | Isa.MOV | Isa.MOV32I -> U_mov { d = d32 (); a = i32 1 }
  | Isa.IADD -> U_iadd { d = d32 (); a = i32 1; b = i32 2 }
  | Isa.IMAD -> U_imad { d = d32 (); a = i32 1; b = i32 2; c = i32 3 }
  | Isa.ISETP c -> U_isetp { pd = dp (); c; a = i32 1; b = i32 2 }
  | Isa.SHL -> U_shl { d = d32 (); a = i32 1; b = i32 2 }
  | Isa.SHR -> U_shr { d = d32 (); a = i32 1; b = i32 2 }
  | Isa.LOP_AND -> U_and { d = d32 (); a = i32 1; b = i32 2 }
  | Isa.LOP_OR -> U_or { d = d32 (); a = i32 1; b = i32 2 }
  | Isa.LOP_XOR -> U_xor { d = d32 (); a = i32 1; b = i32 2 }
  | Isa.LDG Isa.W32 -> U_ldg32 { d = d32 (); addr = i32 1 }
  | Isa.LDG Isa.W64 -> U_ldg64 { d = dpair (); addr = i32 1 }
  | Isa.STG Isa.W32 -> U_stg32 { addr = i32 0; v = i32 1 }
  | Isa.STG Isa.W64 -> U_stg64 { addr = i32 0; v = decode_v64 ~nslots i }
  | Isa.LDS Isa.W32 -> U_lds32 { d = d32 (); addr = i32 1 }
  | Isa.LDS Isa.W64 -> U_lds64 { d = dpair (); addr = i32 1 }
  | Isa.STS Isa.W32 -> U_sts32 { addr = i32 0; v = i32 1 }
  | Isa.STS Isa.W64 -> U_sts64 { addr = i32 0; v = decode_v64 ~nslots i }
  | Isa.ATOM_ADD aty ->
    U_atom_add
      { d = d32 (); fp = (aty = Isa.Af32); addr = i32 1; v = i32 2 }
  | Isa.S2R r -> U_s2r { d = d32 (); r }
  | Isa.BRA -> decode_bra i
  | Isa.BAR -> U_bar
  | Isa.EXIT -> U_exit
  | Isa.NOP -> U_nop

let dst = function
  | U_fadd { d; _ } | U_fmul { d; _ } | U_ffma { d; _ } | U_mufu_f32 { d; _ }
  | U_mufu_64h { d; _ } | U_hadd2 { d; _ } | U_hmul2 { d; _ }
  | U_hfma2 { d; _ } | U_fsel { d; _ } | U_fset { d; _ } | U_fmnmx { d; _ }
  | U_f32_of_f64 { d; _ } | U_f32_of_f32 { d; _ } | U_f16_of_f32 { d; _ }
  | U_f32_of_f16 { d; _ } | U_i2f32 { d; _ } | U_f2i32 { d; _ }
  | U_f2i64 { d; _ } | U_mov { d; _ } | U_iadd { d; _ } | U_imad { d; _ }
  | U_shl { d; _ } | U_shr { d; _ } | U_and { d; _ } | U_or { d; _ }
  | U_xor { d; _ } | U_ldg32 { d; _ } | U_lds32 { d; _ }
  | U_atom_add { d; _ } | U_s2r { d; _ } ->
    Some (d, Isa.W32)
  | U_dadd { d; _ } | U_dmul { d; _ } | U_dfma { d; _ } | U_f64_of_f32 { d; _ }
  | U_f64_of_f64 { d; _ } | U_i2f64 { d; _ } | U_ldg64 { d; _ }
  | U_lds64 { d; _ } ->
    Some (d, Isa.W64)
  | U_fsetp _ | U_dsetp _ | U_psetp _ | U_fchk _ | U_isetp _ | U_stg32 _
  | U_stg64 _ | U_sts32 _ | U_sts64 _ | U_bra _ | U_bra_poison _ | U_bar
  | U_exit | U_nop | U_trap _ ->
    None

(* --- register footprint --------------------------------------------- *)

(* An RZ pair base reads as zero, like the 32-bit RZ sources decoded to
   immediates. *)
let pair r = if r = Operand.rz then [] else [ (r, Isa.W64) ]

let f32_regs = function
  | F32_reg r | F32_reg_m { r; _ } -> [ (r, Isa.W32) ]
  | F32_imm _ | F32_cb _ | F32_cb_m _ | F32_poison _ -> []

let f64_regs = function
  | F64_reg r | F64_reg_m { r; _ } -> pair r
  | F64_imm _ | F64_cb _ | F64_poison _ -> []

let i32_regs = function
  | I32_reg r -> [ (r, Isa.W32) ]
  | I32_imm _ | I32_cb _ | I32_poison _ -> []

let v64_regs = function V64_pair r -> pair r | V64_val s -> f64_regs s

let reads = function
  | U_fadd { a; b; _ } | U_fmul { a; b; _ } | U_fsel { a; b; _ }
  | U_fset { a; b; _ } | U_fsetp { a; b; _ } | U_fmnmx { a; b; _ }
  | U_fchk { a; b; _ } ->
    f32_regs a @ f32_regs b
  | U_ffma { a; b; c; _ } -> f32_regs a @ f32_regs b @ f32_regs c
  | U_mufu_f32 { a; _ } | U_f64_of_f32 { a; _ } | U_f32_of_f32 { a; _ }
  | U_f16_of_f32 { a; _ } | U_f2i32 { a; _ } ->
    f32_regs a
  | U_dadd { a; b; _ } | U_dmul { a; b; _ } | U_dsetp { a; b; _ } ->
    f64_regs a @ f64_regs b
  | U_dfma { a; b; c; _ } -> f64_regs a @ f64_regs b @ f64_regs c
  | U_f32_of_f64 { a; _ } | U_f64_of_f64 { a; _ } | U_f2i64 { a; _ } ->
    f64_regs a
  | U_mufu_64h { a; _ } | U_f32_of_f16 { a; _ } | U_i2f32 { a; _ }
  | U_i2f64 { a; _ } | U_mov { a; _ } ->
    i32_regs a
  | U_hadd2 { a; b; _ } | U_hmul2 { a; b; _ } | U_iadd { a; b; _ }
  | U_isetp { a; b; _ } | U_shl { a; b; _ } | U_shr { a; b; _ }
  | U_and { a; b; _ } | U_or { a; b; _ } | U_xor { a; b; _ } ->
    i32_regs a @ i32_regs b
  | U_hfma2 { a; b; c; _ } | U_imad { a; b; c; _ } ->
    i32_regs a @ i32_regs b @ i32_regs c
  | U_stg32 { v; _ } | U_sts32 { v; _ } | U_atom_add { v; _ } -> i32_regs v
  | U_stg64 { v; _ } | U_sts64 { v; _ } -> v64_regs v
  | U_psetp _ | U_ldg32 _ | U_ldg64 _ | U_lds32 _ | U_lds64 _ | U_s2r _
  | U_bra _ | U_bra_poison _ | U_bar | U_exit | U_nop | U_trap _ ->
    []

let writes u = match dst u with Some (D_reg d, w) -> [ (d, w) ] | _ -> []

let words =
  List.concat_map (fun (r, w) -> if w = Isa.W64 then [ r; r + 1 ] else [ r ])

let shares_reg u =
  let rd = words (reads u) in
  List.exists (fun r -> List.mem r rd) (words (writes u))

let program (prog : Program.t) =
  let nslots = prog.Program.n_regs + 2 in
  let ftz = prog.Program.ftz in
  let entries =
    Array.init (Program.length prog) (fun pc ->
        let i = Program.instr prog pc in
        { uop = uop_of ~nslots ~ftz i;
          guard = decode_guard i;
          cost = Isa.base_cost i.Instr.op })
  in
  { prog; entries; nslots }
