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
  let e = { Gpu_fpx.Loc_table.kernel = "k"; pc = 3; loc = "k.cu:1" } in
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
      case ("fp32 " ^ name) plain ~fmt:Isa.FP32 ~div0:false b32 0;
      case ("fp32 div0 " ^ name) div0 ~fmt:Isa.FP32 ~div0:true b32 0;
      case ("fp64 " ^ name) plain ~fmt:Isa.FP64 ~div0:false lo64 hi64;
      case ("fp64 div0 " ^ name) div0 ~fmt:Isa.FP64 ~div0:true lo64 hi64)
    [ ("nan", 0x7fc00000, (0, 0x7ff80000), Some E.Nan, Some E.Div0);
      ("inf", 0xff800000, (0, 0xfff00000), Some E.Inf, Some E.Div0);
      ("subnormal", 0x00000001, (1, 0), Some E.Sub, None);
      ("zero", 0x80000000, (0, 0), None, None);
      ("normal", 0x3f800000, (0, 0x3ff00000), None, None) ];
  (* FP16 packs two values; the worse half decides *)
  case "fp16 nan in the high half only" (Some E.Nan) ~fmt:Isa.FP16
    ~div0:false 0x7e003c00 0;
  case "fp16 inf over a subnormal" (Some E.Inf) ~fmt:Isa.FP16 ~div0:false
    0x7c000001 0;
  case "fp16 both normal" None ~fmt:Isa.FP16 ~div0:false 0x3c003c00 0;
  (* the FP32 reading of the packed NaN/1.0 word is a normal number *)
  case "fp32 reading of the fp16 word" None ~fmt:Isa.FP32 ~div0:false
    0x7e003c00 0

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

(* The GT backs its slots in chunks on first use: a fresh table is a
   few hundred words, and marks on either side of a chunk boundary and
   in the last slot behave like any other. *)
let test_gt_backed_on_use () =
  let module G = Gpu_fpx.Global_table in
  let gt = G.create () in
  let words = Obj.reachable_words (Obj.repr gt) in
  Alcotest.(check bool)
    (Printf.sprintf "fresh GT: %d reachable words < 1024" words)
    true (words < 1024);
  let last = Fpx_tool.Exce.table_slots - 1 in
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "%d unset" i) false (G.mem gt i);
      Alcotest.(check bool) (Printf.sprintf "%d first set" i) true
        (G.test_and_set gt i);
      Alcotest.(check bool) (Printf.sprintf "%d second set" i) false
        (G.test_and_set gt i))
    [ 4095; 4096; last ];
  Alcotest.(check bool) "neighbour untouched" false (G.mem gt 4097);
  Alcotest.(check int) "cardinal" 3 (G.cardinal gt);
  G.reset gt 4096;
  G.reset gt 4097;
  Alcotest.(check bool) "reset clears" false (G.mem gt 4096);
  Alcotest.(check int) "reset of an empty slot is a no-op" 2 (G.cardinal gt);
  Alcotest.(check bool) "set again after reset" true (G.test_and_set gt 4096)

(* --- A hooked, exception-free warp step allocates nothing ------------ *)

(* Each trip of the loop is one instrumented warp step (FADD R3 += 1,
   never exceptional) and three plain ones; the trip count is the
   kernel's I32 parameter. *)
let alloc_loop =
  let module Op = Fpx_sass.Operand in
  let module Instr = Fpx_sass.Instr in
  Fpx_sass.Program.make ~name:"alloc_loop"
    [ Instr.make Isa.FADD [ Op.reg 3; Op.reg 3; Op.imm_f32 Fpx_num.Fp32.one ];
      Instr.make Isa.IADD [ Op.reg 1; Op.reg 1; Op.imm_i 1l ];
      Instr.make (Isa.ISETP (Isa.cmp Isa.Lt))
        [ Op.pred 0; Op.reg 1; Op.cbank ~bank:0 ~offset:0x160 ];
      Instr.make ~guard:(Op.pred 0) Isa.BRA [ Op.label 0 ] ]

(* Minor words 1,000 extra trips cost: a 2,000-trip launch minus a
   1,000-trip one, after a 2,000-trip warm-up (which also grows the
   tool's channel). Everything paid once per launch cancels. *)
let words_per_1000_hooked_steps tool =
  let dev = Gpu.Device.create () in
  let d = Fpx_sass.Decode.program alloc_loop in
  let b = Fpx_tool.Inject.create dev alloc_loop in
  Fpx_tool.instrument tool alloc_loop b;
  let hooks = Fpx_tool.Inject.build b in
  let launch trips =
    Fpx_tool.on_launch_begin tool (Gpu.Stats.create ());
    let stats =
      Gpu.Exec.run_decoded ~hooks ~device:dev ~grid:1 ~block:32
        ~params:[ Gpu.Param.I32 (Int32.of_int trips) ] d
    in
    Fpx_tool.on_drain tool stats ~kernel:"alloc_loop"
  in
  let words trips =
    let w0 = Gc.minor_words () in
    launch trips;
    Gc.minor_words () -. w0
  in
  launch 2000;
  let w1 = words 1000 in
  let w2 = words 2000 in
  int_of_float (w2 -. w1)

let test_detector_step_allocates_nothing () =
  let dev = Gpu.Device.create () in
  let det = D.create dev in
  Alcotest.(check int) "minor words per 1,000 hooked steps" 0
    (words_per_1000_hooked_steps (D.tool det));
  Alcotest.(check int) "no findings" 0 (D.total det)

let test_binfpe_step_allocates_nothing () =
  let module Binfpe = Fpx_binfpe.Binfpe in
  let bin = Binfpe.create (Gpu.Device.create ()) in
  Alcotest.(check int) "minor words per 1,000 hooked steps" 0
    (words_per_1000_hooked_steps (Binfpe.tool bin));
  Alcotest.(check int) "every lane's value received" (32 * 5000)
    (Binfpe.records_received bin)

(* --- Stacked tools keep their own channel packets ---------------------- *)

(* R3 starts at 0 and grows by 1 a trip, so FMUL's R3 * INF is NaN on
   every lane of the first trip and INF after it. The detector without
   GT pushes a record per lane there; BinFPE pushes one per lane at all
   four FP instructions, so its first-trip NaN records sit at queue
   positions the detector's queue reaches two trips later. A buffer the
   two channels shared would lose BinFPE its NaN records. *)
let flood_loop =
  let module Op = Fpx_sass.Operand in
  let module Instr = Fpx_sass.Instr in
  let one = Op.imm_f32 Fpx_num.Fp32.one in
  Fpx_sass.Program.make ~name:"flood_loop"
    [ Instr.make Isa.FADD [ Op.reg 5; Op.reg 5; one ];
      Instr.make Isa.FADD [ Op.reg 6; Op.reg 6; one ];
      Instr.make Isa.FMUL
        [ Op.reg 4; Op.reg 3; Op.imm_f32 (Fpx_num.Fp32.of_float infinity) ];
      Instr.make Isa.FADD [ Op.reg 3; Op.reg 3; one ];
      Instr.make Isa.IADD [ Op.reg 1; Op.reg 1; Op.imm_i 1l ];
      Instr.make (Isa.ISETP (Isa.cmp Isa.Lt))
        [ Op.pred 0; Op.reg 1; Op.cbank ~bank:0 ~offset:0x160 ];
      Instr.make ~guard:(Op.pred 0) Isa.BRA [ Op.label 0 ] ]

(* (trips, block) per launch, one warp each, some partial: backlogs
   that grow the buffers and then hand them back and forth through the
   domain's spare between the two channels. *)
let flood_launches = [ (3, 32); (200, 20); (7, 32); (90, 13) ]

let run_flood dev tool =
  let d = Fpx_sass.Decode.program flood_loop in
  let b = Fpx_tool.Inject.create dev flood_loop in
  Fpx_tool.instrument tool flood_loop b;
  let hooks = Fpx_tool.Inject.build b in
  List.iter
    (fun (trips, block) ->
      Fpx_tool.on_launch_begin tool (Gpu.Stats.create ());
      let stats =
        Gpu.Exec.run_decoded ~hooks ~device:dev ~grid:1 ~block
          ~params:[ Gpu.Param.I32 (Int32.of_int trips) ] d
      in
      Fpx_tool.on_drain tool stats ~kernel:"flood_loop")
    flood_launches

let test_stack_keeps_packets () =
  let module Binfpe = Fpx_binfpe.Binfpe in
  let config = { D.default_config with D.use_gt = false } in
  let results ~stacked ~order =
    let dev = Gpu.Device.create () in
    let det = D.create ~config dev and bin = Binfpe.create dev in
    let tools = [ D.tool det; Binfpe.tool bin ] in
    let tools = if order then tools else List.rev tools in
    if stacked then run_flood dev (Fpx_tool.stack tools)
    else List.iter (fun t -> run_flood (Gpu.Device.create ()) t) tools;
    ( (D.log_lines det, D.records_seen det),
      (Binfpe.records_received bin, List.length (Binfpe.findings bin)) )
  in
  let alone = results ~stacked:false ~order:true in
  let records =
    List.fold_left (fun n (trips, block) -> n + (4 * block * trips)) 0
      flood_launches
  in
  Alcotest.(check int) "BinFPE received every lane's four values" records
    (fst (snd alone));
  Alcotest.(check (pair int int)) "NaN and INF, found by both" (2, 2)
    (snd (fst alone), snd (snd alone));
  List.iter
    (fun order ->
      Alcotest.(check bool)
        (if order then "detector first" else "BinFPE first")
        true
        (results ~stacked:true ~order = alone))
    [ true; false ]

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
        test_no_gt_allocates_no_table;
      Alcotest.test_case "gt backed on use" `Quick test_gt_backed_on_use;
      Alcotest.test_case "hooked step allocates nothing" `Quick
        test_detector_step_allocates_nothing;
      Alcotest.test_case "BinFPE hooked step allocates nothing" `Quick
        test_binfpe_step_allocates_nothing;
      Alcotest.test_case "stack: each tool drains its own packets" `Quick
        test_stack_keeps_packets ] )
