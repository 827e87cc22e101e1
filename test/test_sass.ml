(* Tests for the SASS ISA layer: operands, instructions, programs. *)

open Fpx_sass
module Op = Operand

let all_opcodes =
  [ Isa.FADD; Isa.FADD32I; Isa.FMUL; Isa.FMUL32I; Isa.FFMA; Isa.FFMA32I;
    Isa.MUFU Isa.Rcp; Isa.MUFU Isa.Rsq; Isa.MUFU Isa.Sqrt; Isa.MUFU Isa.Ex2;
    Isa.MUFU Isa.Lg2; Isa.MUFU Isa.Sin; Isa.MUFU Isa.Cos;
    Isa.MUFU Isa.Rcp64h; Isa.MUFU Isa.Rsq64h; Isa.DADD; Isa.DMUL; Isa.DFMA;
    Isa.FSEL; Isa.FSET (Isa.cmp Isa.Lt); Isa.FSETP (Isa.cmp Isa.Ge);
    Isa.FMNMX; Isa.DSETP (Isa.cmp Isa.Eq); Isa.PSETP Isa.Pand; Isa.FCHK;
    Isa.SEL; Isa.F2F (Isa.FP32, Isa.FP64); Isa.F2F (Isa.FP64, Isa.FP32);
    Isa.I2F Isa.FP32; Isa.F2I Isa.FP64; Isa.MOV; Isa.MOV32I; Isa.IADD;
    Isa.IMAD; Isa.ISETP (Isa.cmp Isa.Ne); Isa.SHL; Isa.SHR; Isa.LOP_AND;
    Isa.LOP_OR; Isa.LOP_XOR; Isa.LDG Isa.W32; Isa.LDG Isa.W64;
    Isa.STG Isa.W32; Isa.STG Isa.W64; Isa.S2R Isa.Tid_x; Isa.BRA; Isa.EXIT;
    Isa.NOP ]

let test_opcode_classes_disjoint () =
  List.iter
    (fun op ->
      let a = Isa.is_fp32_compute op
      and b = Isa.is_fp64_compute op
      and c = Isa.is_control_flow op in
      Alcotest.(check bool)
        (Printf.sprintf "%s classes disjoint" (Isa.opcode_to_string op))
        false
        ((a && b) || (a && c) || (b && c)))
    all_opcodes

let test_instrumentable_set () =
  (* exactly the Table-1 opcodes are instrumentable *)
  let expected =
    [ Isa.FADD; Isa.FADD32I; Isa.FMUL; Isa.FMUL32I; Isa.FFMA; Isa.FFMA32I;
      Isa.DADD; Isa.DMUL; Isa.DFMA; Isa.FSEL; Isa.FMNMX ]
  in
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Isa.opcode_to_string op ^ " instrumentable")
        true (Isa.is_fp_instrumentable op))
    expected;
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Isa.opcode_to_string op ^ " not instrumentable")
        false (Isa.is_fp_instrumentable op))
    [ Isa.MOV; Isa.IADD; Isa.SEL; Isa.LDG Isa.W32; Isa.BRA; Isa.FCHK;
      Isa.PSETP Isa.Por; Isa.EXIT ]

(* The DIV0 class is Algorithm 1's: Site.plan gives the MUFU reciprocal
   family, and nothing else, a DIV0 check. *)
let test_mufu_rcp_class () =
  let div0 sass =
    match Site.plan (Parse.instruction sass) with
    | Some c -> Site.is_div0 c
    | None -> false
  in
  Alcotest.(check bool) "rcp" true (div0 "MUFU.RCP R1, R2 ;");
  Alcotest.(check bool) "rcp64h" true (div0 "MUFU.RCP64H R1, R2 ;");
  Alcotest.(check bool) "rsq" true (div0 "MUFU.RSQ R1, R2 ;");
  Alcotest.(check bool) "ex2 not" false (div0 "MUFU.EX2 R1, R2 ;");
  Alcotest.(check bool) "fadd not" false (div0 "FADD R1, R2, R3 ;")

let test_eval_cmp () =
  let lt = Isa.cmp Isa.Lt and ltu = Isa.cmp_u Isa.Lt in
  Alcotest.(check bool) "lt ordered" true (Isa.eval_cmp lt (Some (-1)));
  Alcotest.(check bool) "lt unordered false" false (Isa.eval_cmp lt None);
  Alcotest.(check bool) "ltu unordered true" true (Isa.eval_cmp ltu None);
  Alcotest.(check bool) "ne" true (Isa.eval_cmp (Isa.cmp Isa.Ne) (Some 1));
  Alcotest.(check bool) "eq" false (Isa.eval_cmp (Isa.cmp Isa.Eq) (Some 1))

let test_table1_complete () =
  Alcotest.(check int) "15 rows like the paper" 15 (List.length Isa.table1);
  let ctrl =
    List.filter (fun (_, _, c) -> c = `Control_flow) Isa.table1
  in
  Alcotest.(check int) "5 control-flow opcodes" 5 (List.length ctrl)

(* --- Operands ---------------------------------------------------------- *)

let test_operand_render () =
  Alcotest.(check string) "reg" "R7" (Op.to_string (Op.reg 7));
  Alcotest.(check string) "rz" "RZ" (Op.to_string (Op.reg Op.rz));
  Alcotest.(check string) "neg" "-R7" (Op.to_string (Op.reg_neg 7));
  Alcotest.(check string) "abs" "|R7|" (Op.to_string (Op.reg_abs 7));
  Alcotest.(check string) "pt" "PT" (Op.to_string (Op.pred Op.pt));
  Alcotest.(check string) "not pred" "!P3" (Op.to_string (Op.pred_not 3));
  Alcotest.(check string) "cbank" "c[0x0][0x160]"
    (Op.to_string (Op.cbank ~bank:0 ~offset:0x160));
  Alcotest.(check string) "qnan token" "+QNAN"
    (Op.to_string (Op.imm_f64 Float.nan))

(* --- Instructions ------------------------------------------------------ *)

(* The micro-op of a one-instruction program. *)
let uop i =
  (Decode.program (Program.make ~name:"t" [ i ])).Decode.entries.(0).Decode.uop

let test_shared_register () =
  let shares i = Decode.shares_reg (uop i) in
  (* FADD R6, R1, R6 — the paper's example *)
  Alcotest.(check bool) "fadd shares" true
    (shares (Instr.make Isa.FADD [ Op.reg 6; Op.reg 1; Op.reg 6 ]));
  Alcotest.(check bool) "fadd no share" false
    (shares (Instr.make Isa.FADD [ Op.reg 6; Op.reg 1; Op.reg 2 ]));
  (* FP64 pair aliasing: DADD R4, R5, R8 — src pair (R5,R6) overlaps
     dest pair (R4,R5) *)
  Alcotest.(check bool) "dadd pair aliases" true
    (shares (Instr.make Isa.DADD [ Op.reg 4; Op.reg 5; Op.reg 8 ]));
  Alcotest.(check bool) "dadd disjoint pairs" false
    (shares (Instr.make Isa.DADD [ Op.reg 4; Op.reg 8; Op.reg 10 ]));
  (* RZ never aliases *)
  Alcotest.(check bool) "rz no share" false
    (shares (Instr.make Isa.FADD [ Op.reg Op.rz; Op.reg 1; Op.reg Op.rz ]))

let test_instr_accessors () =
  let i = Instr.make Isa.FFMA [ Op.reg 1; Op.reg 88; Op.reg 104; Op.reg 1 ] in
  Alcotest.(check int) "num operands" 4 (Instr.num_operands i);
  Alcotest.(check (option int)) "dest reg" (Some 1) (Instr.dest_reg_num i);
  Alcotest.(check (list (pair int bool)))
    "source regs" [ (88, false); (104, false); (1, false) ]
    (List.map (fun (r, w) -> (r, w = Isa.W64)) (Decode.reads (uop i)));
  Alcotest.(check string) "sass render" "FFMA R1, R88, R104, R1 ;"
    (Instr.sass_string i);
  Alcotest.(check string) "unknown loc" "/unknown_path:0" (Instr.loc_string i)

let test_guard_render () =
  let i =
    Instr.make ~guard:(Op.pred_not 0) Isa.BRA [ Op.label 3 ]
  in
  Alcotest.(check string) "guarded bra" "@!P0 BRA 0x30 ;" (Instr.sass_string i)

(* --- Programs ----------------------------------------------------------- *)

let test_program_make () =
  let p =
    Program.make ~name:"t"
      [ Instr.make Isa.MOV32I [ Op.reg 0; Op.imm_i 1l ];
        Instr.make Isa.FADD [ Op.reg 1; Op.reg 0; Op.reg 0 ] ]
  in
  Alcotest.(check int) "exit appended" 3 (Program.length p);
  Alcotest.(check int) "pc renumbered" 1 (Program.instr p 1).Instr.pc;
  Alcotest.(check int) "n_regs" 2 p.Program.n_regs;
  Alcotest.(check int) "fp instrs" 1 (Program.fp_instr_count p)

let test_program_fp64_regs () =
  let p =
    Program.make ~name:"t64"
      [ Instr.make Isa.DADD [ Op.reg 2; Op.reg 4; Op.reg 6 ] ]
  in
  (* pair registers: R2..R3, R4..R5, R6..R7 *)
  Alcotest.(check int) "n_regs covers pairs" 8 p.Program.n_regs

let test_program_bad_label () =
  Alcotest.check_raises "label out of range"
    (Invalid_argument "Program.make: bad: branch target 9 out of range")
    (fun () ->
      ignore (Program.make ~name:"bad" [ Instr.make Isa.BRA [ Op.label 9 ] ]))

let test_new_opcode_rendering () =
  let check op expect =
    Alcotest.(check string) expect expect (Isa.opcode_to_string op)
  in
  check Isa.BAR "BAR.SYNC";
  check (Isa.LDS Isa.W32) "LDS.E.32";
  check (Isa.STS Isa.W64) "STS.E.64";
  check (Isa.ATOM_ADD Isa.Af32) "RED.ADD.F32";
  check (Isa.ATOM_ADD Isa.Ai32) "RED.ADD.S32";
  check Isa.HADD2 "HADD2";
  check (Isa.S2R Isa.Lane_id) "S2R.SR_LANEID"

let test_new_opcode_costs () =
  Alcotest.(check bool) "barrier costs cycles" true (Isa.base_cost Isa.BAR > 0);
  Alcotest.(check bool) "atomic costlier than shared load" true
    (Isa.base_cost (Isa.ATOM_ADD Isa.Af32) > Isa.base_cost (Isa.LDS Isa.W32));
  Alcotest.(check bool) "shared cheaper than global" true
    (Isa.base_cost (Isa.LDS Isa.W32) < Isa.base_cost (Isa.LDG Isa.W32))

let test_disassemble () =
  let p =
    Program.make ~name:"k" [ Instr.make Isa.NOP [] ]
  in
  let txt = Program.disassemble p in
  Alcotest.(check bool) "has header" true
    (String.length txt > 0 && String.sub txt 0 9 = ".kernel k")

let suite =
  ( "sass",
    [ Alcotest.test_case "opcode classes disjoint" `Quick
        test_opcode_classes_disjoint;
      Alcotest.test_case "instrumentable set" `Quick test_instrumentable_set;
      Alcotest.test_case "mufu rcp class" `Quick test_mufu_rcp_class;
      Alcotest.test_case "eval_cmp" `Quick test_eval_cmp;
      Alcotest.test_case "table1 complete" `Quick test_table1_complete;
      Alcotest.test_case "operand rendering" `Quick test_operand_render;
      Alcotest.test_case "shared dest/src register" `Quick test_shared_register;
      Alcotest.test_case "instr accessors" `Quick test_instr_accessors;
      Alcotest.test_case "guard rendering" `Quick test_guard_render;
      Alcotest.test_case "program make" `Quick test_program_make;
      Alcotest.test_case "fp64 register pairs" `Quick test_program_fp64_regs;
      Alcotest.test_case "bad branch label" `Quick test_program_bad_label;
      Alcotest.test_case "new opcode rendering" `Quick
        test_new_opcode_rendering;
      Alcotest.test_case "new opcode costs" `Quick test_new_opcode_costs;
      Alcotest.test_case "disassemble" `Quick test_disassemble ] )
