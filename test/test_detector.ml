(* Detector tests: Algorithm 1 injection choices, Algorithm 2 dedup via
   the global table, Algorithm 3 sampling, the exception-record
   encoding, and the BinFPE comparison claims. *)

open Fpx_klang.Dsl
module Ast = Fpx_klang.Ast
module Isa = Fpx_sass.Isa
module Gpu = Fpx_gpu
module Nvbit = Fpx_nvbit
module D = Gpu_fpx.Detector
module E = Fpx_tool.Exce

(* deterministic property tests: fixed QCheck seed *)
let qcheck_case t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t


(* --- Exception-record encoding (Figure 3) ------------------------------ *)

let test_encode_decode () =
  List.iter
    (fun exce ->
      List.iter
        (fun fmt ->
          List.iter
            (fun loc ->
              let idx = E.encode ~loc ~fmt exce in
              let loc', fmt', exce' = E.decode idx in
              Alcotest.(check int) "loc" loc loc';
              Alcotest.(check bool) "fmt" true (fmt = fmt');
              Alcotest.(check bool) "exce" true (E.equal exce exce'))
            [ 0; 1; 1000; E.max_loc ])
        [ Isa.FP32; Isa.FP64 ])
    E.all

let prop_encode_in_table =
  QCheck.Test.make ~count:500 ~name:"record index within the 4MB table"
    QCheck.(pair (int_bound E.max_loc) (int_bound 7))
    (fun (loc, sel) ->
      let exce = List.nth E.all (sel mod 4) in
      let fmt = if sel >= 4 then Isa.FP64 else Isa.FP32 in
      let idx = E.encode ~loc ~fmt exce in
      idx >= 0 && idx < E.table_slots)

let prop_encode_injective =
  QCheck.Test.make ~count:500 ~name:"distinct records encode distinctly"
    QCheck.(pair (pair (int_bound E.max_loc) (int_bound 7))
              (pair (int_bound E.max_loc) (int_bound 7)))
    (fun ((l1, s1), (l2, s2)) ->
      let mk l s =
        E.encode ~loc:l
          ~fmt:(if s >= 4 then Isa.FP64 else Isa.FP32)
          (List.nth E.all (s mod 4))
      in
      if (l1, s1) = (l2, s2) then true else mk l1 s1 <> mk l2 s2)

(* --- Global table -------------------------------------------------------- *)

let test_global_table () =
  let gt = Gpu_fpx.Global_table.create () in
  Alcotest.(check bool) "first set" true (Gpu_fpx.Global_table.test_and_set gt 42);
  Alcotest.(check bool) "second set" false (Gpu_fpx.Global_table.test_and_set gt 42);
  Alcotest.(check bool) "mem" true (Gpu_fpx.Global_table.mem gt 42);
  Alcotest.(check int) "cardinal" 1 (Gpu_fpx.Global_table.cardinal gt);
  Gpu_fpx.Global_table.clear gt;
  Alcotest.(check int) "cleared" 0 (Gpu_fpx.Global_table.cardinal gt)

let test_loc_table () =
  let t = Gpu_fpx.Loc_table.create () in
  let e = { Gpu_fpx.Loc_table.kernel = "k"; pc = 3; loc = "k.cu:1"; sass = "FADD" } in
  let i1 = Gpu_fpx.Loc_table.intern t e in
  let i2 = Gpu_fpx.Loc_table.intern t e in
  Alcotest.(check int) "stable intern" i1 i2;
  let e2 = { e with Gpu_fpx.Loc_table.pc = 4 } in
  Alcotest.(check bool) "new pc new index" true (Gpu_fpx.Loc_table.intern t e2 <> i1);
  Alcotest.(check string) "lookup" "k" (Gpu_fpx.Loc_table.entry t i1).Gpu_fpx.Loc_table.kernel

(* --- Sampling (Algorithm 3) -------------------------------------------- *)

let test_sampling_always () =
  let s = Gpu_fpx.Sampling.always in
  List.iter
    (fun i ->
      Alcotest.(check bool) "always" true
        (Gpu_fpx.Sampling.should_instrument s ~kernel:"k" ~invocation:i))
    [ 0; 1; 5; 63 ]

let test_sampling_every_k () =
  let s = Gpu_fpx.Sampling.every 16 in
  List.iter
    (fun (i, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "invocation %d" i)
        expect
        (Gpu_fpx.Sampling.should_instrument s ~kernel:"k" ~invocation:i))
    [ (0, true); (1, false); (15, false); (16, true); (32, true); (33, false) ]

let test_sampling_whitelist () =
  let s = Gpu_fpx.Sampling.whitelist [ "a"; "b" ] in
  Alcotest.(check bool) "listed" true
    (Gpu_fpx.Sampling.should_instrument s ~kernel:"a" ~invocation:7);
  Alcotest.(check bool) "unlisted" false
    (Gpu_fpx.Sampling.should_instrument s ~kernel:"z" ~invocation:0)

(* --- End-to-end detection ------------------------------------------------ *)

(* A kernel that produces a chosen exception at a known site. *)
let kernel_for = function
  | `Inf32 ->
    kernel "k_inf" [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
      [ let_ "i" Ast.I32 tid;
        store "out" (v "i") (f32 3e38 +: f32 3e38) ]
  | `Nan32 ->
    kernel "k_nan" [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
      [ let_ "i" Ast.I32 tid;
        store "out" (v "i") ((f32 3e38 +: f32 3e38) -: (f32 3e38 +: f32 2.9e38)) ]
  | `Sub32 ->
    kernel "k_sub" [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
      [ let_ "i" Ast.I32 tid;
        store "out" (v "i") (f32 1e-20 *: f32 1e-20) ]
  | `Div032 ->
    kernel "k_div0" [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
      [ let_ "i" Ast.I32 tid;
        store "out" (v "i") (f32 1.0 /: f32 0.0) ]
  | `Inf64 ->
    kernel "k_inf64" [ ("out", ptr Ast.F64); ("n", scalar Ast.I32) ]
      [ let_ "i" Ast.I32 tid;
        store "out" (v "i") (f64 1e308 +: f64 1e308) ]
  | `Sub64 ->
    kernel "k_sub64" [ ("out", ptr Ast.F64); ("n", scalar Ast.I32) ]
      [ let_ "i" Ast.I32 tid;
        store "out" (v "i") (f64 1e-200 *: f64 1e-120) ]
  | `Div064 ->
    kernel "k_div064" [ ("out", ptr Ast.F64); ("n", scalar Ast.I32) ]
      [ let_ "i" Ast.I32 tid;
        store "out" (v "i") (f64 1.0 /: f64 0.0) ]

let detect ?(config = D.default_config) ?(launches = 1) which =
  let dev = Gpu.Device.create () in
  let rt = Nvbit.Runtime.create dev in
  let det = D.create ~config dev in
  Nvbit.Runtime.attach rt (D.tool det);
  let k = kernel_for which in
  let prog = Fpx_klang.Compile.compile k in
  let elt = match which with `Inf64 | `Sub64 | `Div064 -> 8 | _ -> 4 in
  let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:(elt * 32) in
  for _ = 1 to launches do
    Nvbit.Runtime.launch rt ~grid:1 ~block:32
      ~params:[ Gpu.Param.Ptr out; I32 32l ] prog
  done;
  (det, Nvbit.Runtime.totals rt)

let test_detects_each_kind () =
  let checks =
    [ (`Inf32, Isa.FP32, E.Inf); (`Nan32, Isa.FP32, E.Nan);
      (`Sub32, Isa.FP32, E.Sub); (`Div032, Isa.FP32, E.Div0);
      (`Inf64, Isa.FP64, E.Inf); (`Sub64, Isa.FP64, E.Sub);
      (`Div064, Isa.FP64, E.Div0) ]
  in
  List.iter
    (fun (which, fmt, exce) ->
      let det, _ = detect which in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s detected"
           (Isa.fp_format_to_string fmt) (E.to_string exce))
        true
        (D.count det ~fmt ~exce >= 1))
    checks

let test_no_false_positives () =
  let dev = Gpu.Device.create () in
  let rt = Nvbit.Runtime.create dev in
  let det = D.create dev in
  Nvbit.Runtime.attach rt (D.tool det);
  let k =
    kernel "clean" [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
      [ let_ "i" Ast.I32 tid;
        store "out" (v "i") (fma (f32 2.0) (f32 3.0) (f32 1.0)) ]
  in
  let prog = Fpx_klang.Compile.compile k in
  let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:(4 * 32) in
  Nvbit.Runtime.launch rt ~grid:1 ~block:32
    ~params:[ Gpu.Param.Ptr out; I32 32l ] prog;
  Alcotest.(check int) "no findings" 0 (D.total det)

let test_gt_dedup_across_launches () =
  (* repeated launches of the same exceptional kernel: records crossed
     the channel only once with GT, every launch without it *)
  let det_gt, stats_gt = detect ~launches:8 `Inf32 in
  let no_gt = { D.default_config with D.use_gt = false } in
  let det_no, stats_no = detect ~config:no_gt ~launches:8 `Inf32 in
  Alcotest.(check int) "same unique findings" (D.total det_gt) (D.total det_no);
  Alcotest.(check bool) "GT transfers fewer records" true
    (stats_gt.Gpu.Stats.records_pushed < stats_no.Gpu.Stats.records_pushed);
  (* one record per unique site with GT *)
  Alcotest.(check int) "records = unique sites" (D.total det_gt)
    stats_gt.Gpu.Stats.records_pushed

let test_gt_cardinal_matches () =
  let det, _ = detect ~launches:3 `Nan32 in
  Alcotest.(check int) "gt cardinal = findings" (D.total det) (D.gt_cardinal det)

let test_sampling_misses_nothing_on_repeats () =
  (* a kernel whose exceptions occur on every invocation: 1-in-4
     sampling still finds them (paper: no exceptions lost on CuMF) *)
  let config = { D.default_config with D.sampling = Gpu_fpx.Sampling.every 4 } in
  let det_s, stats_s = detect ~config ~launches:8 `Div032 in
  let det_f, stats_f = detect ~launches:8 `Div032 in
  Alcotest.(check int) "same findings" (D.total det_f) (D.total det_s);
  Alcotest.(check bool) "sampling cheaper" true
    (Gpu.Stats.total_cycles stats_s < Gpu.Stats.total_cycles stats_f)

let test_log_line_format () =
  let det, _ = detect `Nan32 in
  let lines = D.log_lines det in
  Alcotest.(check bool) "has log lines" true (lines <> []);
  List.iter
    (fun line ->
      Alcotest.(check bool) "prefix" true
        (String.length line > 20 && String.sub line 0 9 = "#GPU-FPX "))
    lines;
  let mentions needle line =
    let ln = String.length needle in
    let rec has i =
      i + ln <= String.length line
      && (String.sub line i ln = needle || has (i + 1))
    in
    has 0
  in
  Alcotest.(check bool) "some line mentions NaN" true
    (List.exists (mentions "NaN") lines)

(* --- BinFPE comparison --------------------------------------------------- *)

let detector_total k =
  let prog = Fpx_klang.Compile.compile k in
  let dev = Gpu.Device.create () in
  let rt = Nvbit.Runtime.create dev in
  let det = D.create dev in
  Nvbit.Runtime.attach rt (D.tool det);
  let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:256 in
  Nvbit.Runtime.launch rt ~grid:1 ~block:32
    ~params:[ Gpu.Param.Ptr out; I32 32l ] prog;
  det

let binfpe_total k =
  let prog = Fpx_klang.Compile.compile k in
  let dev = Gpu.Device.create () in
  let rt = Nvbit.Runtime.create dev in
  let b = Fpx_binfpe.Binfpe.create dev in
  Nvbit.Runtime.attach rt (Fpx_binfpe.Binfpe.tool b);
  let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:256 in
  Nvbit.Runtime.launch rt ~grid:1 ~block:32
    ~params:[ Gpu.Param.Ptr out; I32 32l ] prog;
  b

let test_binfpe_agrees_on_arithmetic () =
  (* pure arithmetic exceptions: both tools find the same number of
     unique sites *)
  let k = kernel_for `Nan32 in
  let nd = D.total (detector_total k) in
  let nb = List.length (Fpx_binfpe.Binfpe.findings (binfpe_total k)) in
  Alcotest.(check int) "same sites" nd nb

let test_binfpe_misses_fmnmx () =
  (* a NaN that only ever lands in an FMNMX destination: GPU-FPX checks
     the Table-1 control-flow opcodes, BinFPE does not *)
  let k =
    kernel "fmnmx_only" [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
      [ let_ "i" Ast.I32 tid;
        store "out" (v "i") (min_ (f32 Float.nan) (f32 Float.nan)) ]
  in
  let det = detector_total k in
  let nb = List.length (Fpx_binfpe.Binfpe.findings (binfpe_total k)) in
  Alcotest.(check bool) "GPU-FPX sees it" true
    (D.count det ~fmt:Isa.FP32 ~exce:E.Nan >= 1);
  Alcotest.(check int) "BinFPE misses it" 0 nb

let test_binfpe_transfer_volume () =
  (* BinFPE ships every destination value: far more records *)
  let k = kernel_for `Sub32 in
  let prog = Fpx_klang.Compile.compile k in
  let run_tool attach =
    let dev = Gpu.Device.create () in
    let rt = Nvbit.Runtime.create dev in
    attach rt dev;
    let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:128 in
    Nvbit.Runtime.launch rt ~grid:1 ~block:32
      ~params:[ Gpu.Param.Ptr out; I32 32l ] prog;
    (Nvbit.Runtime.totals rt).Gpu.Stats.records_pushed
  in
  let fpx =
    run_tool (fun rt dev -> Nvbit.Runtime.attach rt (D.tool (D.create dev)))
  in
  let bin =
    run_tool (fun rt dev ->
        Nvbit.Runtime.attach rt (Fpx_binfpe.Binfpe.tool (Fpx_binfpe.Binfpe.create dev)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "binfpe %d >> fpx %d" bin fpx)
    true
    (bin > 10 * fpx)

let test_guarded_off_lanes_not_checked () =
  (* a guarded-off FP instruction executes on no lane, so its (would-be
     exceptional) destination must not be checked — the mechanism behind
     predication-masked exceptions like HPCG's *)
  let module Op = Fpx_sass.Operand in
  let module Instr = Fpx_sass.Instr in
  let module Program = Fpx_sass.Program in
  let big = Fpx_num.Fp32.of_float 3e38 in
  let mk ~guard =
    Program.make ~name:"guarded"
      [ Instr.make (Isa.S2R Isa.Tid_x) [ Op.reg 10 ];
        (* tid < 0 is false on every lane *)
        Instr.make (Isa.ISETP (Isa.cmp Isa.Lt))
          [ Op.pred 0; Op.reg 10; Op.imm_i 0l ];
        Instr.make ~guard Isa.FADD
          [ Op.reg 0; Op.imm_f32 big; Op.imm_f32 big ] ]
  in
  let run prog =
    let dev = Gpu.Device.create () in
    let rt = Nvbit.Runtime.create dev in
    let det = D.create dev in
    Nvbit.Runtime.attach rt (D.tool det);
    Nvbit.Runtime.launch rt ~grid:1 ~block:32 ~params:[] prog;
    D.total det
  in
  Alcotest.(check int) "guarded off: no record" 0
    (run (mk ~guard:(Op.pred 0)));
  Alcotest.(check int) "guard inverted: overflow found" 1
    (run (mk ~guard:(Op.pred_not 0)))

(* --- CheckExce (Algorithm 2): one classifier for the detector and BinFPE *)

let test_classify_table () =
  let show = function None -> "-" | Some e -> E.to_string e in
  let case name want ~fmt ~div0 lo hi =
    Alcotest.(check string) name (show want)
      (show (E.classify ~fmt ~div0 lo hi))
  in
  (* (name, FP32 bits, FP64 (lo, hi) words, plain class, DIV0 class) *)
  List.iter
    (fun (name, b32, (lo64, hi64), plain, div0) ->
      case ("fp32 " ^ name) plain ~fmt:Isa.FP32 ~div0:false b32 0l;
      case ("fp32 div0 " ^ name) div0 ~fmt:Isa.FP32 ~div0:true b32 0l;
      case ("fp64 " ^ name) plain ~fmt:Isa.FP64 ~div0:false lo64 hi64;
      case ("fp64 div0 " ^ name) div0 ~fmt:Isa.FP64 ~div0:true lo64 hi64)
    [ ("nan", 0x7fc00000l, (0l, 0x7ff80000l), Some E.Nan, Some E.Div0);
      ("inf", 0xff800000l, (0l, 0xfff00000l), Some E.Inf, Some E.Div0);
      ("subnormal", 0x00000001l, (1l, 0l), Some E.Sub, None);
      ("zero", 0x80000000l, (0l, 0l), None, None);
      ("normal", 0x3f800000l, (0l, 0x3ff00000l), None, None) ];
  (* FP16 packs two values; the worse half decides *)
  case "fp16 nan in the high half only" (Some E.Nan) ~fmt:Isa.FP16
    ~div0:false 0x7e003c00l 0l;
  case "fp16 inf over a subnormal" (Some E.Inf) ~fmt:Isa.FP16 ~div0:false
    0x7c000001l 0l;
  case "fp16 both normal" None ~fmt:Isa.FP16 ~div0:false 0x3c003c00l 0l;
  (* the FP32 reading of the packed NaN/1.0 word is a normal number *)
  case "fp32 reading of the fp16 word" None ~fmt:Isa.FP32 ~div0:false
    0x7e003c00l 0l

(* Without GT dedup the detector allocates no global table: a no-GT
   detector is a few thousand words, not the 1 MiB (131 K words) table.
   The device it reads is not part of the count. *)
let test_no_gt_allocates_no_table () =
  let det =
    D.create ~config:{ D.default_config with D.use_gt = false }
      (Gpu.Device.create ())
  in
  let words = Obj.reachable_words (Obj.repr det) in
  Alcotest.(check bool)
    (Printf.sprintf "%d reachable words" words)
    true (words < 10_000)

let suite =
  ( "detector",
    [ Alcotest.test_case "record encode/decode" `Quick test_encode_decode;
      qcheck_case prop_encode_in_table;
      qcheck_case prop_encode_injective;
      Alcotest.test_case "global table" `Quick test_global_table;
      Alcotest.test_case "loc table" `Quick test_loc_table;
      Alcotest.test_case "sampling: always" `Quick test_sampling_always;
      Alcotest.test_case "sampling: every k" `Quick test_sampling_every_k;
      Alcotest.test_case "sampling: whitelist" `Quick test_sampling_whitelist;
      Alcotest.test_case "detects every kind" `Quick test_detects_each_kind;
      Alcotest.test_case "no false positives" `Quick test_no_false_positives;
      Alcotest.test_case "GT dedups across launches" `Quick
        test_gt_dedup_across_launches;
      Alcotest.test_case "GT cardinal" `Quick test_gt_cardinal_matches;
      Alcotest.test_case "sampling keeps repeated exceptions" `Quick
        test_sampling_misses_nothing_on_repeats;
      Alcotest.test_case "log line format" `Quick test_log_line_format;
      Alcotest.test_case "BinFPE agrees on arithmetic" `Quick
        test_binfpe_agrees_on_arithmetic;
      Alcotest.test_case "BinFPE misses control-flow opcodes" `Quick
        test_binfpe_misses_fmnmx;
      Alcotest.test_case "BinFPE transfer volume" `Quick
        test_binfpe_transfer_volume;
      Alcotest.test_case "guarded-off lanes not checked" `Quick
        test_guarded_off_lanes_not_checked;
      Alcotest.test_case "CheckExce classify table" `Quick
        test_classify_table;
      Alcotest.test_case "no GT without use_gt" `Quick
        test_no_gt_allocates_no_table ] )
