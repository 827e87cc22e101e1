(* SASS parser tests: single-instruction parsing, the disassembly
   round-trip over real catalog kernels, and runnable kernel files. *)

module Isa = Fpx_sass.Isa
module Op = Fpx_sass.Operand
module Instr = Fpx_sass.Instr
module Program = Fpx_sass.Program
module Parse = Fpx_sass.Parse

let test_single_instructions () =
  let cases =
    [ ("FADD R1, R2, R3 ;", Isa.FADD);
      ("FFMA R1, R88, R104, R1 ;", Isa.FFMA);
      ("MUFU.RCP R4, R5 ;", Isa.MUFU Isa.Rcp);
      ("MUFU.RCP64H R4, R5 ;", Isa.MUFU Isa.Rcp64h);
      ("DADD R2, R4, R6 ;", Isa.DADD);
      ("HFMA2 R0, R1, R2, R0 ;", Isa.HFMA2);
      ("FSEL R2, R5, R2, !P6 ;", Isa.FSEL);
      ("FSETP.LT.AND P0, R2, R3 ;", Isa.FSETP (Isa.cmp Isa.Lt));
      ("DSETP.GEU.AND P1, R2, R4 ;", Isa.DSETP (Isa.cmp_u Isa.Ge));
      ("PSETP.OR P2, P0, P1 ;", Isa.PSETP Isa.Por);
      ("FCHK P0, R1, R2 ;", Isa.FCHK);
      ("F2F.F32.F64 R1, R2 ;", Isa.F2F (Isa.FP32, Isa.FP64));
      ("LDG.E.64 R4, R2 ;", Isa.LDG Isa.W64);
      ("STG.E.32 R2, R1 ;", Isa.STG Isa.W32);
      ("S2R.SR_TID.X R10 ;", Isa.S2R Isa.Tid_x);
      ("IADD3 R1, R2, 0x4 ;", Isa.IADD);
      ("EXIT ;", Isa.EXIT) ]
  in
  List.iter
    (fun (text, op) ->
      let i = Parse.instruction text in
      Alcotest.(check bool) text true (i.Instr.op = op))
    cases

let test_operand_forms () =
  let i = Parse.instruction "FADD R6, -|R1|, c[0x0][0x160] ;" in
  (match i.Instr.operands with
  | [| _; a; b |] ->
    Alcotest.(check bool) "neg" true a.Op.neg;
    Alcotest.(check bool) "abs" true a.Op.abs;
    Alcotest.(check bool) "cbank" true
      (match b.Op.base with
      | Op.Cbank { bank = 0; offset = 0x160 } -> true
      | _ -> false)
  | _ -> Alcotest.fail "expected two sources");
  let g = Parse.instruction "@!P0 BRA 0x30 ;" in
  Alcotest.(check bool) "guard !P0" true
    (match g.Instr.guard with
    | Some { Op.base = Op.Pred 0; pred_not = true; _ } -> true
    | _ -> false);
  Alcotest.(check bool) "branch target pc 3" true
    (match (Instr.get_operand g 0).Op.base with
    | Op.Label 3 -> true
    | _ -> false);
  let inf = Parse.instruction "FADD RZ, RZ, +INF ;" in
  Alcotest.(check bool) "generic INF" true
    (match (Instr.get_operand inf 2).Op.base with
    | Op.Generic "+INF" -> true
    | _ -> false)

let test_parse_errors () =
  let expect text =
    try
      ignore (Parse.instruction text);
      false
    with Parse.Parse_error _ -> true
  in
  Alcotest.(check bool) "bad mnemonic" true (expect "FROB R1, R2 ;");
  Alcotest.(check bool) "bad operand" true (expect "FADD R1, R2, @x ;");
  Alcotest.(check bool) "bad mufu" true (expect "MUFU.TAN R1, R2 ;");
  (* a branch past the end is an error on the branch's line, against
     the bound Program.make checks after appending a missing EXIT *)
  let error_line text =
    match Parse.program text with
    | _ -> None
    | exception Parse.Parse_error { line; _ } -> Some line
  in
  Alcotest.(check (option int)) "branch past the end" (Some 1)
    (error_line "BRA 0x0900 ;\nEXIT ;");
  Alcotest.(check (option int)) "branch one past EXIT" (Some 2)
    (error_line "NOP ;\nBRA 0x30 ;\nEXIT ;");
  Alcotest.(check (option int)) "branch to the appended EXIT" None
    (error_line "NOP ;\nBRA 0x20 ;")

(* Round-trip: disassemble → parse → disassemble must be a fixpoint,
   and the reparsed program must execute identically. *)
let roundtrip_kernels =
  [ "GRAMSCHM"; "myocyte"; "S3D"; "BlackScholes"; "nbody"; "HPCG";
    "SRU-Example"; "interval" ]

let test_disassembly_roundtrip () =
  List.iter
    (fun name ->
      let w = Fpx_workloads.Catalog.find name in
      List.iter
        (fun k ->
          let prog = Fpx_klang.Compile.compile k in
          let text = Program.disassemble prog in
          let reparsed = Parse.program ~name:prog.Program.name text in
          let text2 = Program.disassemble reparsed in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s fixpoint" name prog.Program.name)
            text text2)
        w.Fpx_workloads.Workload.kernels)
    roundtrip_kernels

let test_reparsed_program_runs_identically () =
  let k = Fpx_workloads.Kernels.black_scholes "bs_rt" in
  let prog = Fpx_klang.Compile.compile k in
  let reparsed =
    Parse.program ~name:"bs_rt" (Program.disassemble prog)
  in
  let run p =
    let dev = Fpx_gpu.Device.create () in
    let mem = dev.Fpx_gpu.Device.memory in
    let n = 32 in
    let call = Fpx_gpu.Memory.alloc_zeroed mem ~bytes:(4 * n) in
    let put = Fpx_gpu.Memory.alloc_zeroed mem ~bytes:(4 * n) in
    let s = Fpx_gpu.Memory.alloc mem ~bytes:(4 * n) in
    let x = Fpx_gpu.Memory.alloc mem ~bytes:(4 * n) in
    let t = Fpx_gpu.Memory.alloc mem ~bytes:(4 * n) in
    Fpx_gpu.Memory.write_f32_array mem ~addr:s
      (Array.init n (fun i -> 20.0 +. float_of_int i));
    Fpx_gpu.Memory.write_f32_array mem ~addr:x
      (Array.init n (fun i -> 25.0 +. float_of_int i));
    Fpx_gpu.Memory.write_f32_array mem ~addr:t (Array.make n 1.0);
    ignore
      (Fpx_gpu.Exec.run ~device:dev ~grid:1 ~block:32
         ~params:
           [ Fpx_gpu.Param.Ptr call; Ptr put; Ptr s; Ptr x; Ptr t;
             F32 (Fpx_num.Fp32.of_float 0.02);
             F32 (Fpx_num.Fp32.of_float 0.3); I32 (Int32.of_int n) ]
         p);
    Fpx_gpu.Memory.read_f32_array mem ~addr:call ~len:n
  in
  Alcotest.(check bool) "identical outputs" true (run prog = run reparsed)

let test_runnable_file () =
  let text =
    ".kernel file_kernel\n\
     .launch 1 32\n\
     .param ptr 128\n\
     .param f32 0.0\n\
     // divide one by the f32 parameter (zero!)\n\
     S2R.SR_TID.X R10 ;\n\
     IMAD R11, R10, 0x4, c[0x0][0x160] ;\n\
     MUFU.RCP R0, c[0x0][0x164] ;\n\
     STG.E.32 R11, R0 ;\n"
  in
  let f = Parse.file text in
  Alcotest.(check int) "grid" 1 f.Parse.grid;
  Alcotest.(check int) "block" 32 f.Parse.block;
  Alcotest.(check int) "params" 2 (List.length f.Parse.params);
  Alcotest.(check string) "name" "file_kernel" f.Parse.prog.Program.name;
  (* run it under the detector: the RCP of the zero parameter is DIV0 *)
  let dev = Fpx_gpu.Device.create () in
  let rt = Fpx_nvbit.Runtime.create dev in
  let det = Gpu_fpx.Detector.create dev in
  Fpx_nvbit.Runtime.attach rt (Gpu_fpx.Detector.tool det);
  let params =
    List.map
      (function
        | Parse.Ptr_bytes n ->
          Fpx_gpu.Param.Ptr (Fpx_gpu.Memory.alloc_zeroed dev.Fpx_gpu.Device.memory ~bytes:n)
        | Parse.F32 x -> Fpx_gpu.Param.F32 (Fpx_num.Fp32.of_float x)
        | Parse.F64 x -> Fpx_gpu.Param.F64 x
        | Parse.I32 x -> Fpx_gpu.Param.I32 x)
      f.Parse.params
  in
  Fpx_nvbit.Runtime.launch rt ~grid:f.Parse.grid ~block:f.Parse.block ~params
    f.Parse.prog;
  Alcotest.(check int) "div0 found" 1
    (Gpu_fpx.Detector.count det ~fmt:Isa.FP32 ~exce:Fpx_tool.Exce.Div0)

let test_runnable_fp64_file () =
  (* mirrors examples/sass/fp64_chain.sass: an FP64 chain through the
     pair-register path — two subnormals, an overflow, and an INF-INF
     NaN stored to memory *)
  let text =
    ".kernel standalone_dchain\n\
     .launch 1 32\n\
     .param ptr 256\n\
     S2R.SR_TID.X R10 ;\n\
     DMUL R2, 1e-200, 1e-120 ;\n\
     DADD R4, R2, R2 ;\n\
     DMUL R6, 1e200, 1e200 ;\n\
     DADD R8, R6, -INF ;\n\
     IMAD R12, R10, 0x8, c[0x0][0x160] ;\n\
     STG.E.64 R12, R8 ;\n"
  in
  let f = Parse.file text in
  let dev = Fpx_gpu.Device.create () in
  let rt = Fpx_nvbit.Runtime.create dev in
  let det = Gpu_fpx.Detector.create dev in
  Fpx_nvbit.Runtime.attach rt (Gpu_fpx.Detector.tool det);
  let out = Fpx_gpu.Memory.alloc_zeroed dev.Fpx_gpu.Device.memory ~bytes:256 in
  Fpx_nvbit.Runtime.launch rt ~grid:f.Parse.grid ~block:f.Parse.block
    ~params:[ Fpx_gpu.Param.Ptr out ] f.Parse.prog;
  let count = Gpu_fpx.Detector.count det in
  Alcotest.(check int) "2 FP64 SUB" 2
    (count ~fmt:Isa.FP64 ~exce:Fpx_tool.Exce.Sub);
  Alcotest.(check int) "1 FP64 INF" 1
    (count ~fmt:Isa.FP64 ~exce:Fpx_tool.Exce.Inf);
  Alcotest.(check int) "1 FP64 NaN" 1
    (count ~fmt:Isa.FP64 ~exce:Fpx_tool.Exce.Nan);
  (* and the NaN really escaped to memory *)
  let v =
    Fpx_gpu.Memory.read_f64_array dev.Fpx_gpu.Device.memory ~addr:out ~len:1
  in
  Alcotest.(check bool) "NaN stored" true (Float.is_nan v.(0))

let suite =
  ( "parse",
    [ Alcotest.test_case "single instructions" `Quick test_single_instructions;
      Alcotest.test_case "operand forms" `Quick test_operand_forms;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "disassembly round-trip" `Quick
        test_disassembly_roundtrip;
      Alcotest.test_case "reparsed program runs identically" `Quick
        test_reparsed_program_runs_identically;
      Alcotest.test_case "runnable .sass file" `Quick test_runnable_file;
      Alcotest.test_case "runnable FP64 .sass file" `Quick
        test_runnable_fp64_file ] )
