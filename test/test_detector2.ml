(* Second detector/analyzer suite: white-lists end-to-end, detector vs
   analyzer consistency, FP64 hi-word checking, and report plumbing. *)

open Fpx_klang.Dsl
module Ast = Fpx_klang.Ast
module Isa = Fpx_sass.Isa
module Gpu = Fpx_gpu
module Nvbit = Fpx_nvbit
module D = Gpu_fpx.Detector
module A = Gpu_fpx.Analyzer
module E = Fpx_tool.Exce

let bad_kernel name =
  kernel name [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
    [ let_ "i" Ast.I32 tid;
      store "out" (v "i") (f32 3e38 *: f32 10.0) ]

let run_two_kernels config =
  let dev = Gpu.Device.create () in
  let rt = Nvbit.Runtime.create dev in
  let det = D.create ~config dev in
  Nvbit.Runtime.attach rt (D.tool det);
  let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:256 in
  let p1 = Fpx_klang.Compile.compile (bad_kernel "bad_a") in
  let p2 = Fpx_klang.Compile.compile (bad_kernel "bad_b") in
  Nvbit.Runtime.launch rt ~grid:1 ~block:32 ~params:[ Gpu.Param.Ptr out; I32 32l ] p1;
  Nvbit.Runtime.launch rt ~grid:1 ~block:32 ~params:[ Gpu.Param.Ptr out; I32 32l ] p2;
  det

let test_whitelist_end_to_end () =
  let only_a =
    { D.default_config with
      D.sampling = Gpu_fpx.Sampling.whitelist [ "bad_a" ] }
  in
  let det = run_two_kernels only_a in
  let kernels =
    List.map
      (fun (f : D.finding) -> f.D.entry.Gpu_fpx.Loc_table.kernel)
      (D.findings det)
  in
  Alcotest.(check bool) "bad_a found" true (List.mem "bad_a" kernels);
  Alcotest.(check bool) "bad_b skipped" false (List.mem "bad_b" kernels)

let test_no_whitelist_finds_both () =
  let det = run_two_kernels D.default_config in
  let kernels =
    List.sort_uniq compare
      (List.map
         (fun (f : D.finding) -> f.D.entry.Gpu_fpx.Loc_table.kernel)
         (D.findings det))
  in
  Alcotest.(check (list string)) "both kernels" [ "bad_a"; "bad_b" ] kernels

let test_findings_first_seen_order () =
  let det = run_two_kernels D.default_config in
  match D.findings det with
  | f1 :: f2 :: _ ->
    Alcotest.(check string) "a before b" "bad_a"
      f1.D.entry.Gpu_fpx.Loc_table.kernel;
    Alcotest.(check string) "then b" "bad_b" f2.D.entry.Gpu_fpx.Loc_table.kernel
  | _ -> Alcotest.fail "expected two findings"

(* detector and analyzer must agree about whether a program has
   exceptions at all *)
let test_detector_analyzer_agree () =
  List.iter
    (fun name ->
      let w = Fpx_workloads.Catalog.find name in
      let dm =
        Fpx_harness.Runner.run ~tool:(Fpx_harness.Runner.Detector D.default_config) w
      in
      let am = Fpx_harness.Runner.run ~tool:Fpx_harness.Runner.Analyzer w in
      Alcotest.(check bool)
        (name ^ ": both see exceptions or neither")
        (dm.Fpx_harness.Runner.total_exceptions > 0)
        (am.Fpx_harness.Runner.analyzer_reports <> []))
    [ "GRAMSCHM"; "S3D"; "GEMM"; "nbody"; "HPCG"; "hotspot" ]

let test_mufu64h_hi_word_check () =
  (* a raw RCP64H on a zero hi-word must register as FP64 DIV0 *)
  let module Op = Fpx_sass.Operand in
  let module Instr = Fpx_sass.Instr in
  let prog =
    Fpx_sass.Program.make ~name:"hi64"
      [ Instr.make Isa.MOV32I [ Op.reg 2; Op.imm_i 0l ];
        Instr.make Isa.MOV32I [ Op.reg 3; Op.imm_i 0l ];
        (* dest hi word in R5 (pair R4,R5 by Algorithm 1's d-1 rule) *)
        Instr.make (Isa.MUFU Isa.Rcp64h) [ Op.reg 5; Op.reg 3 ] ]
  in
  let dev = Gpu.Device.create () in
  let rt = Nvbit.Runtime.create dev in
  let det = D.create dev in
  Nvbit.Runtime.attach rt (D.tool det);
  Nvbit.Runtime.launch rt ~grid:1 ~block:1 ~params:[] prog;
  Alcotest.(check int) "fp64 div0" 1 (D.count det ~fmt:Isa.FP64 ~exce:E.Div0)

let test_analyzer_dsetp_comparison () =
  (* a NaN flowing into DSETP must be reported as a Comparison *)
  let k =
    kernel "dsetp_nan" [ ("out", ptr Ast.F64); ("n", scalar Ast.I32) ]
      [ let_ "i" Ast.I32 tid;
        let_ "bad" Ast.F64 (f64 infinity -: f64 infinity);
        store "out" (v "i")
          (select (v "bad" <: f64 1.0) (f64 1.0) (f64 2.0)) ]
  in
  let prog = Fpx_klang.Compile.compile k in
  let dev = Gpu.Device.create () in
  let rt = Nvbit.Runtime.create dev in
  let a = A.create dev in
  Nvbit.Runtime.attach rt (A.tool a);
  let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:(8 * 32) in
  Nvbit.Runtime.launch rt ~grid:1 ~block:32 ~params:[ Gpu.Param.Ptr out; I32 32l ]
    prog;
  Alcotest.(check bool) "comparison seen" true
    (List.exists
       (fun (r : A.report) ->
         r.A.state = A.Comparison
         && String.length r.A.sass >= 5
         && String.sub r.A.sass 0 5 = "DSETP")
       (A.reports a))

let test_detector_counts_are_per_location () =
  (* 8 launches of the same kernel: one location, one finding *)
  let dev = Gpu.Device.create () in
  let rt = Nvbit.Runtime.create dev in
  let det = D.create dev in
  Nvbit.Runtime.attach rt (D.tool det);
  let prog = Fpx_klang.Compile.compile (bad_kernel "rep") in
  let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:256 in
  for _ = 1 to 8 do
    Nvbit.Runtime.launch rt ~grid:4 ~block:64
      ~params:[ Gpu.Param.Ptr out; I32 64l ] prog
  done;
  Alcotest.(check int) "one unique site" 1 (D.total det)

let test_exce_strings () =
  Alcotest.(check (list string)) "names"
    [ "NaN"; "INF"; "SUB"; "DIV0" ]
    (List.map E.to_string E.all)

let test_tool_names () =
  let dev = Gpu.Device.create () in
  Alcotest.(check string) "detector name" "GPU-FPX detector"
    (Fpx_tool.name (D.tool (D.create dev)));
  Alcotest.(check string) "analyzer name" "GPU-FPX analyzer"
    (Fpx_tool.name (A.tool (A.create dev)));
  Alcotest.(check string) "binfpe name" "BinFPE"
    (Fpx_tool.name (Fpx_binfpe.Binfpe.tool (Fpx_binfpe.Binfpe.create dev)));
  Alcotest.(check string) "stack name" "stack(GPU-FPX detector+GPU-FPX analyzer)"
    (Fpx_tool.name
       (Fpx_tool.stack
          [ D.tool (D.create dev); A.tool (A.create dev) ]))

let suite =
  ( "detector2",
    [ Alcotest.test_case "whitelist end-to-end" `Quick
        test_whitelist_end_to_end;
      Alcotest.test_case "no whitelist finds both" `Quick
        test_no_whitelist_finds_both;
      Alcotest.test_case "first-seen order" `Quick
        test_findings_first_seen_order;
      Alcotest.test_case "detector/analyzer agree" `Quick
        test_detector_analyzer_agree;
      Alcotest.test_case "MUFU.RCP64H hi-word check" `Quick
        test_mufu64h_hi_word_check;
      Alcotest.test_case "DSETP comparison report" `Quick
        test_analyzer_dsetp_comparison;
      Alcotest.test_case "counts are per-location" `Quick
        test_detector_counts_are_per_location;
      Alcotest.test_case "exception names" `Quick test_exce_strings;
      Alcotest.test_case "tool names" `Quick test_tool_names ] )
