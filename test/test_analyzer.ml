(* Analyzer tests: the five Table-2 instruction states, compile-time
   exceptional immediates, and report rendering. *)

open Fpx_klang.Dsl
module Ast = Fpx_klang.Ast
module Gpu = Fpx_gpu
module Nvbit = Fpx_nvbit
module A = Gpu_fpx.Analyzer
module Kind = Fpx_num.Kind

let analyze ?(block = 32) ?(params_extra = fun _ -> []) k =
  let prog = Fpx_klang.Compile.compile k in
  let dev = Gpu.Device.create () in
  let rt = Nvbit.Runtime.create dev in
  let a = A.create dev in
  Nvbit.Runtime.attach rt (A.tool a);
  let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:512 in
  Nvbit.Runtime.launch rt ~grid:1 ~block
    ~params:([ Gpu.Param.Ptr out; I32 (Int32.of_int block) ] @ params_extra dev)
    prog;
  A.reports a

let states rs = List.map (fun (r : A.report) -> r.A.state) rs

let test_appearance () =
  let rs =
    analyze
      (kernel "app" [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
         [ let_ "i" Ast.I32 tid;
           store "out" (v "i") (f32 3e38 *: f32 10.0) ])
  in
  Alcotest.(check bool) "appearance reported" true
    (List.mem A.Appearance (states rs))

let test_propagation () =
  let rs =
    analyze
      (kernel "prop" [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
         [ let_ "i" Ast.I32 tid;
           let_ "inf" Ast.F32 (f32 3e38 *: f32 10.0);
           store "out" (v "i") (v "inf" *: f32 0.5) ])
  in
  Alcotest.(check bool) "propagation reported" true
    (List.mem A.Propagation (states rs))

let test_disappearance () =
  (* INF / INF is not exceptional in the dest: the source exception
     disappears inside the flow — footnote 2's example. *)
  let rs =
    analyze
      (kernel "dis" [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
         [ let_ "i" Ast.I32 tid;
           let_ "inf" Ast.F32 (f32 3e38 *: f32 10.0);
           store "out" (v "i") (v "inf" *: f32 0.0) ])
  in
  (* inf * 0 = NaN is appearance+propagation; use a killing FMNMX-free
     pattern instead: inf followed by multiply by zero gives NaN — so
     instead take 1/inf = 0 through a plain FMUL with rcp. *)
  ignore rs;
  let rs2 =
    analyze
      (kernel "dis2" [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
         [ let_ "i" Ast.I32 tid;
           let_ "tiny" Ast.F32 (f32 1e-20 *: f32 1e-20);
           (* subnormal source, normal result *)
           store "out" (v "i") (v "tiny" +: f32 1.0) ])
  in
  Alcotest.(check bool) "disappearance reported" true
    (List.mem A.Disappearance (states rs2))

let test_comparison () =
  let rs =
    analyze
      (kernel "cmp" [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
         [ let_ "i" Ast.I32 tid;
           let_ "nan" Ast.F32 ((f32 3e38 *: f32 10.0) -: (f32 2.9e38 *: f32 11.0));
           store "out" (v "i")
             (select (v "nan" <: f32 1.0) (f32 1.0) (f32 2.0)) ])
  in
  Alcotest.(check bool) "comparison reported" true
    (List.mem A.Comparison (states rs))

(* The paper's "FADD R6, R1, R6" case needs a hand-built SASS program:
   the kernel-language compiler never reuses a source register as the
   destination outside its internal expansions. *)
let shared_reg_reports () =
  let module Op = Fpx_sass.Operand in
  let module Isa = Fpx_sass.Isa in
  let module Instr = Fpx_sass.Instr in
  let inf_bits = Fpx_num.Fp32.to_bits Fpx_num.Fp32.pos_inf in
  let prog =
    Fpx_sass.Program.make ~name:"shared_sass"
      [ Instr.make Isa.MOV32I [ Op.reg 6; Op.imm_i inf_bits ];
        Instr.make Isa.MOV32I
          [ Op.reg 1; Op.imm_i (Fpx_num.Fp32.to_bits Fpx_num.Fp32.one) ];
        Instr.make Isa.FADD [ Op.reg 6; Op.reg 1; Op.reg 6 ] ]
  in
  let dev = Gpu.Device.create () in
  let rt = Nvbit.Runtime.create dev in
  let a = A.create dev in
  Nvbit.Runtime.attach rt (A.tool a);
  Nvbit.Runtime.launch rt ~grid:1 ~block:32 ~params:[] prog;
  A.reports a

let test_shared_register () =
  let rs = shared_reg_reports () in
  Alcotest.(check bool) "shared-register reported" true
    (List.mem A.Shared_register (states rs))

(* RZ reads as +0 and is decoded to an immediate, so it is not one of
   the captured registers: FADD R0, RZ, R1 captures R0 and R1 only. *)
let test_rz_operand_not_captured () =
  let prog =
    Fpx_sass.Parse.program "MOV32I R1, 0x7f800000 ;\nFADD R0, RZ, R1 ;\nEXIT ;"
  in
  let dev = Gpu.Device.create () in
  let rt = Nvbit.Runtime.create dev in
  let a = A.create dev in
  Nvbit.Runtime.attach rt (A.tool a);
  Nvbit.Runtime.launch rt ~grid:1 ~block:32 ~params:[] prog;
  match A.reports a with
  | [ r ] ->
    Alcotest.(check string) "propagation" "PROPAGATION"
      (A.state_to_string r.A.state);
    Alcotest.(check (list string)) "before: R0, R1" [ "ZERO"; "INF" ]
      (List.map Kind.to_string r.A.before);
    Alcotest.(check (list string)) "after: R0, R1" [ "INF"; "INF" ]
      (List.map Kind.to_string r.A.after)
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_clean_kernel_no_reports () =
  let rs =
    analyze
      (kernel "cleank" [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
         [ let_ "i" Ast.I32 tid;
           store "out" (v "i") (fma (f32 2.0) (f32 2.0) (f32 1.0)) ])
  in
  Alcotest.(check int) "no reports" 0 (List.length rs)

let test_compile_time_immediate () =
  (* an INF immediate is flagged at JIT time (Listing 2) *)
  let rs =
    analyze
      (kernel "imm" [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
         [ let_ "i" Ast.I32 tid;
           store "out" (v "i") (f32 0.0 *: f32 infinity) ])
  in
  Alcotest.(check bool) "immediate flagged" true
    (List.exists (fun (r : A.report) -> r.A.compile_time = Some Fpx_tool.Exce.Inf) rs)

let test_render_format () =
  let rs = shared_reg_reports () in
  let shared =
    List.find (fun (r : A.report) -> r.A.state = A.Shared_register) rs
  in
  let lines = A.render shared in
  Alcotest.(check int) "before+after lines" 2 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "prefix" true
        (String.sub l 0 13 = "#GPU-FPX-ANA ");
      Alcotest.(check bool) "registers sentence" true
        (let needle = "registers in total" in
         let rec has i =
           i + String.length needle <= String.length l
           && (String.sub l i (String.length needle) = needle || has (i + 1))
         in
         has 0))
    lines

let test_max_reports_per_site () =
  (* the same site reports at most twice *)
  let k =
    kernel "rep" [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
      [ let_ "i" Ast.I32 tid;
        let_ "acc" Ast.F32 (f32 0.0);
        for_ "j" (i32 0) (i32 10)
          [ set "acc" (v "acc" +: (f32 3e38 *: f32 10.0)) ];
        store "out" (v "i") (v "acc") ]
  in
  let prog = Fpx_klang.Compile.compile k in
  let dev = Gpu.Device.create () in
  let rt = Nvbit.Runtime.create dev in
  let a = A.create dev in
  Nvbit.Runtime.attach rt (A.tool a);
  let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:512 in
  Nvbit.Runtime.launch rt ~grid:1 ~block:32 ~params:[ Gpu.Param.Ptr out; I32 32l ]
    prog;
  (* count per (state, sass) duplicates *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (r : A.report) ->
      let key = (r.A.state, r.A.sass) in
      Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0))
    (A.reports a);
  Hashtbl.iter
    (fun _ n -> Alcotest.(check bool) "bounded per site" true (n <= 2))
    tbl

let test_state_counts_sum () =
  let k =
    kernel "sums" [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
      [ let_ "i" Ast.I32 tid;
        let_ "inf" Ast.F32 (f32 3e38 *: f32 10.0);
        store "out" (v "i") (v "inf" *: f32 0.5) ]
  in
  let prog = Fpx_klang.Compile.compile k in
  let dev = Gpu.Device.create () in
  let rt = Nvbit.Runtime.create dev in
  let a = A.create dev in
  Nvbit.Runtime.attach rt (A.tool a);
  let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:512 in
  Nvbit.Runtime.launch rt ~grid:1 ~block:32 ~params:[ Gpu.Param.Ptr out; I32 32l ]
    prog;
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 (A.state_counts a) in
  Alcotest.(check int) "counts sum to reports" (List.length (A.reports a)) total

let test_table2_structural () =
  Alcotest.(check int) "five states" 5 (List.length A.table2);
  Alcotest.(check int) "all_states matches" 5 (List.length A.all_states)

(* The analyze sweep report over the whole catalog, precise and
   fast-math: one MD5 each (the same bytes `fpx_run sweep --tool
   analyze` prints). A change to the capture plan, the state
   classification or the escape tracking that moves a digest changed a
   report. *)
let test_catalog_pin () =
  List.iter
    (fun (mode, digest) ->
      let ms =
        Fpx_harness.Sweep.run ~jobs:1 ~mode ~tool:Fpx_harness.Runner.Analyzer
          Fpx_workloads.Catalog.evaluated
      in
      Alcotest.(check string) "analyze sweep digest" digest
        (Digest.to_hex (Digest.string (Fpx_harness.Sweep.report_json ms))))
    [ (Fpx_klang.Mode.precise, "cc72c7cdc983db0be861f411fcae795f");
      (Fpx_klang.Mode.fast_math, "79dde1d8df989ad90a935ecc5b09a662") ]

let suite =
  ( "analyzer",
    [ Alcotest.test_case "appearance" `Quick test_appearance;
      Alcotest.test_case "propagation" `Quick test_propagation;
      Alcotest.test_case "disappearance" `Quick test_disappearance;
      Alcotest.test_case "comparison" `Quick test_comparison;
      Alcotest.test_case "shared register" `Quick test_shared_register;
      Alcotest.test_case "clean kernel silent" `Quick
        test_clean_kernel_no_reports;
      Alcotest.test_case "compile-time immediate" `Quick
        test_compile_time_immediate;
      Alcotest.test_case "render format" `Quick test_render_format;
      Alcotest.test_case "max reports per site" `Quick
        test_max_reports_per_site;
      Alcotest.test_case "state counts sum" `Quick test_state_counts_sum;
      Alcotest.test_case "table 2 structural" `Quick test_table2_structural;
      Alcotest.test_case "catalog byte pin" `Quick test_catalog_pin;
      Alcotest.test_case "RZ operand not captured" `Quick
        test_rz_operand_not_captured ] )
