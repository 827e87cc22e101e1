(* FP16 extension tests: the half-precision value type, packed H2
   arithmetic in the simulator, and detector/analyzer support (the
   paper reserves E_fp record space for exactly this). *)

open Fpx_num
module Op = Fpx_sass.Operand
module Isa = Fpx_sass.Isa
module Instr = Fpx_sass.Instr
module Program = Fpx_sass.Program
module Gpu = Fpx_gpu

(* deterministic property tests: fixed QCheck seed *)
let qcheck_case t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t


let check_kind = Alcotest.testable Kind.pp Kind.equal

let test_constants () =
  Alcotest.(check (float 1e-9)) "one" 1.0 (Fp16.to_float Fp16.one);
  Alcotest.(check (float 1e-9)) "max" 65504.0 (Fp16.to_float Fp16.max_finite);
  Alcotest.(check (float 1e-12)) "min normal" (ldexp 1.0 (-14))
    (Fp16.to_float Fp16.min_normal);
  Alcotest.(check (float 1e-12)) "min sub" (ldexp 1.0 (-24))
    (Fp16.to_float Fp16.min_subnormal);
  Alcotest.(check bool) "inf" true (Fp16.to_float Fp16.pos_inf = infinity);
  Alcotest.(check bool) "nan" true (Float.is_nan (Fp16.to_float Fp16.qnan))

let test_classify () =
  Alcotest.check check_kind "inf" Kind.Inf (Fp16.classify Fp16.pos_inf);
  Alcotest.check check_kind "nan" Kind.Nan (Fp16.classify Fp16.qnan);
  Alcotest.check check_kind "zero" Kind.Zero (Fp16.classify Fp16.zero);
  Alcotest.check check_kind "sub" Kind.Subnormal
    (Fp16.classify Fp16.min_subnormal);
  Alcotest.check check_kind "normal" Kind.Normal (Fp16.classify Fp16.one);
  Alcotest.check check_kind "neg inf" Kind.Inf (Fp16.classify Fp16.neg_inf)

let test_conversion_cases () =
  let cases =
    [ (1.0, 0x3c00); (2.0, 0x4000); (-2.0, 0xc000); (0.5, 0x3800);
      (65504.0, 0x7bff); (65536.0, 0x7c00) (* overflow -> inf *);
      (ldexp 1.0 (-24), 0x0001); (ldexp 1.0 (-25), 0x0000) (* rounds to 0 *) ]
  in
  List.iter
    (fun (f, bits) ->
      Alcotest.(check int) (Printf.sprintf "%g" f) bits (Fp16.of_float f))
    cases

let prop_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"fp16 roundtrip exact on all bit patterns"
    QCheck.(int_bound 0xffff)
    (fun h ->
      if Fp16.is_nan h then Fp16.is_nan (Fp16.of_float (Fp16.to_float h))
      else Fp16.of_float (Fp16.to_float h) = h)

let prop_round_nearest =
  QCheck.Test.make ~count:1000 ~name:"fp16 conversion rounds to nearest"
    QCheck.(float_range (-60000.0) 60000.0)
    (fun f ->
      let h = Fp16.of_float f in
      let v = Fp16.to_float h in
      (* the error is at most half an ulp of the result's binade *)
      let ulp =
        if Float.abs v >= ldexp 1.0 (-14) then
          ldexp 1.0 (snd (Float.frexp (Float.abs v)) - 11)
        else ldexp 1.0 (-24)
      in
      (* allow the double -> binary32 pre-rounding (<= 2^-24 relative)
         on top of the half-ulp binary16 bound *)
      Float.abs (v -. f) <= (ulp /. 2.0) +. (Float.abs f *. 1.2e-7) +. 1e-12)

let test_pack_unpack () =
  let r = Fp16.pack2 ~lo:0x3c00 ~hi:0x7c00 in
  let lo, hi = Fp16.unpack2 r in
  Alcotest.(check int) "lo" 0x3c00 lo;
  Alcotest.(check int) "hi" 0x7c00 hi

let test_packed_arith () =
  let a = Fp16.pack2 ~lo:(Fp16.of_float 1.5) ~hi:(Fp16.of_float 60000.0) in
  let b = Fp16.pack2 ~lo:(Fp16.of_float 2.5) ~hi:(Fp16.of_float 60000.0) in
  let lo, hi = Fp16.unpack2 (Fp16.add2 a b) in
  Alcotest.(check (float 1e-9)) "lo lane" 4.0 (Fp16.to_float lo);
  (* hi lane overflows binary16 *)
  Alcotest.(check bool) "hi lane inf" true (Fp16.is_inf hi)

(* --- Simulator + detector ------------------------------------------------ *)

let run_h2 op a_bits b_bits =
  let dev = Gpu.Device.create () in
  let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:4 in
  let prog =
    Program.make ~name:"h2"
      [ Instr.make Isa.MOV32I [ Op.reg 1; Op.imm_i a_bits ];
        Instr.make Isa.MOV32I [ Op.reg 2; Op.imm_i b_bits ];
        Instr.make op [ Op.reg 0; Op.reg 1; Op.reg 2 ];
        Instr.make Isa.MOV [ Op.reg 3; Op.cbank ~bank:0 ~offset:0x160 ];
        Instr.make (Isa.STG Isa.W32) [ Op.reg 3; Op.reg 0 ] ]
  in
  ignore (Gpu.Exec.run ~device:dev ~grid:1 ~block:1 ~params:[ Gpu.Param.Ptr out ] prog);
  Gpu.Memory.load_i32 dev.Gpu.Device.memory ~addr:out

let test_hadd2_exec () =
  let a = Fp16.pack2 ~lo:(Fp16.of_float 1.0) ~hi:(Fp16.of_float 2.0) in
  let b = Fp16.pack2 ~lo:(Fp16.of_float 3.0) ~hi:(Fp16.of_float 4.0) in
  let lo, hi = Fp16.unpack2 (run_h2 Isa.HADD2 a b) in
  Alcotest.(check (float 1e-9)) "lo" 4.0 (Fp16.to_float lo);
  Alcotest.(check (float 1e-9)) "hi" 6.0 (Fp16.to_float hi)

let detect_h2 op a b =
  let dev = Gpu.Device.create () in
  let rt = Fpx_nvbit.Runtime.create dev in
  let det = Gpu_fpx.Detector.create dev in
  Fpx_nvbit.Runtime.attach rt (Gpu_fpx.Detector.tool det);
  let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:4 in
  let prog =
    Program.make ~name:"h2det"
      [ Instr.make Isa.MOV32I [ Op.reg 1; Op.imm_i a ];
        Instr.make Isa.MOV32I [ Op.reg 2; Op.imm_i b ];
        Instr.make op [ Op.reg 0; Op.reg 1; Op.reg 2 ];
        Instr.make Isa.MOV [ Op.reg 3; Op.cbank ~bank:0 ~offset:0x160 ];
        Instr.make (Isa.STG Isa.W32) [ Op.reg 3; Op.reg 0 ] ]
  in
  Fpx_nvbit.Runtime.launch rt ~grid:1 ~block:1 ~params:[ Gpu.Param.Ptr out ] prog;
  det

let test_detector_fp16_overflow () =
  let big = Fp16.pack2 ~lo:(Fp16.of_float 60000.0) ~hi:(Fp16.of_float 1.0) in
  let det = detect_h2 Isa.HADD2 big big in
  Alcotest.(check int) "FP16 INF detected" 1
    (Gpu_fpx.Detector.count det ~fmt:Isa.FP16 ~exce:Fpx_tool.Exce.Inf);
  Alcotest.(check int) "no FP32 record" 0
    (Gpu_fpx.Detector.count det ~fmt:Isa.FP32 ~exce:Fpx_tool.Exce.Inf)

let test_detector_fp16_nan () =
  let inf = Fp16.pack2 ~lo:Fp16.pos_inf ~hi:Fp16.zero in
  let ninf = Fp16.pack2 ~lo:Fp16.neg_inf ~hi:Fp16.zero in
  let det = detect_h2 Isa.HADD2 inf ninf in
  Alcotest.(check int) "FP16 NaN detected" 1
    (Gpu_fpx.Detector.count det ~fmt:Isa.FP16 ~exce:Fpx_tool.Exce.Nan)

let test_detector_fp16_subnormal () =
  let tiny = Fp16.pack2 ~lo:(Fp16.of_float 1e-3) ~hi:Fp16.zero in
  let scale = Fp16.pack2 ~lo:(Fp16.of_float 0.02) ~hi:Fp16.zero in
  let det = detect_h2 Isa.HMUL2 tiny scale in
  Alcotest.(check int) "FP16 SUB detected" 1
    (Gpu_fpx.Detector.count det ~fmt:Isa.FP16 ~exce:Fpx_tool.Exce.Sub)

let detect_narrow f32_value =
  (* F2F.F16.F32: the narrowing cast at the heart of loss-scaling bugs *)
  let dev = Gpu.Device.create () in
  let rt = Fpx_nvbit.Runtime.create dev in
  let det = Gpu_fpx.Detector.create dev in
  Fpx_nvbit.Runtime.attach rt (Gpu_fpx.Detector.tool det);
  let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:4 in
  let prog =
    Program.make ~name:"narrow"
      [ Instr.make Isa.MOV32I
          [ Op.reg 1; Op.imm_f32 (Fpx_num.Fp32.of_float f32_value) ];
        Instr.make (Isa.F2F (Isa.FP16, Isa.FP32)) [ Op.reg 0; Op.reg 1 ];
        Instr.make Isa.MOV [ Op.reg 3; Op.cbank ~bank:0 ~offset:0x160 ];
        Instr.make (Isa.STG Isa.W32) [ Op.reg 3; Op.reg 0 ] ]
  in
  Fpx_nvbit.Runtime.launch rt ~grid:1 ~block:1 ~params:[ Gpu.Param.Ptr out ]
    prog;
  det

let test_detector_narrowing_cast () =
  (* 1e6 is a perfectly healthy FP32 value but overflows half range —
     the cast itself is the exception site *)
  let det = detect_narrow 1e6 in
  Alcotest.(check int) "FP16 INF at the cast" 1
    (Gpu_fpx.Detector.count det ~fmt:Isa.FP16 ~exce:Fpx_tool.Exce.Inf);
  (* an in-range value casts cleanly *)
  Alcotest.(check int) "clean cast" 0
    (Gpu_fpx.Detector.total (detect_narrow 123.5));
  (* and a small-but-normal FP32 value lands subnormal in half *)
  let det_sub = detect_narrow 1e-6 in
  Alcotest.(check int) "FP16 SUB at the cast" 1
    (Gpu_fpx.Detector.count det_sub ~fmt:Isa.FP16 ~exce:Fpx_tool.Exce.Sub)

let test_record_encoding_fp16 () =
  let idx = Fpx_tool.Exce.encode ~loc:77 ~fmt:Isa.FP16 Fpx_tool.Exce.Sub in
  let loc, fmt, exce = Fpx_tool.Exce.decode idx in
  Alcotest.(check int) "loc" 77 loc;
  Alcotest.(check bool) "fmt fp16" true (fmt = Isa.FP16);
  Alcotest.(check bool) "exce" true (Fpx_tool.Exce.equal exce Fpx_tool.Exce.Sub)

let suite =
  ( "fp16",
    [ Alcotest.test_case "constants" `Quick test_constants;
      Alcotest.test_case "classify" `Quick test_classify;
      Alcotest.test_case "conversion cases" `Quick test_conversion_cases;
      qcheck_case prop_roundtrip;
      qcheck_case prop_round_nearest;
      Alcotest.test_case "pack/unpack" `Quick test_pack_unpack;
      Alcotest.test_case "packed arithmetic" `Quick test_packed_arith;
      Alcotest.test_case "HADD2 executes" `Quick test_hadd2_exec;
      Alcotest.test_case "detector: FP16 overflow" `Quick
        test_detector_fp16_overflow;
      Alcotest.test_case "detector: FP16 nan" `Quick test_detector_fp16_nan;
      Alcotest.test_case "detector: FP16 subnormal" `Quick
        test_detector_fp16_subnormal;
      Alcotest.test_case "detector: narrowing cast" `Quick
        test_detector_narrowing_cast;
      Alcotest.test_case "FP16 record encoding" `Quick
        test_record_encoding_fp16 ] )
