(* Simulator semantics: per-opcode behaviour, predication, divergence,
   FP64 register pairs, memory, special registers, watchdog. *)

open Fpx_sass
open Fpx_gpu
module Op = Operand
module Fp32 = Fpx_num.Fp32
module Fp64 = Fpx_num.Fp64

(* Run a single-warp program that stores one f32 result per lane into
   out[lane]; returns the array. Parameter 0 is the out pointer. *)
let run_lanes ?(block = 32) instrs =
  let dev = Device.create () in
  let out = Memory.alloc_zeroed dev.Device.memory ~bytes:(4 * block) in
  let prologue =
    [ Instr.make (Isa.S2R Isa.Tid_x) [ Op.reg 10 ];
      (* address = tid*4 + out_base *)
      Instr.make Isa.IMAD
        [ Op.reg 11; Op.reg 10; Op.imm_i 4l; Op.cbank ~bank:0 ~offset:0x160 ] ]
  in
  let prog = Program.make ~name:"t" (prologue @ instrs) in
  ignore
    (Exec.run ~device:dev ~grid:1 ~block ~params:[ Param.Ptr out ] prog);
  Memory.read_f32_array dev.Device.memory ~addr:out ~len:block

let store_r0 = Instr.make (Isa.STG Isa.W32) [ Op.reg 11; Op.reg 0 ]

let feq = Alcotest.float 1e-6

let test_fadd () =
  let r =
    run_lanes
      [ Instr.make Isa.FADD
          [ Op.reg 0; Op.imm_f32 (Fp32.of_float 1.5);
            Op.imm_f32 (Fp32.of_float 2.25) ];
        store_r0 ]
  in
  Alcotest.check feq "1.5+2.25" 3.75 r.(0)

let test_neg_abs_modifiers () =
  let r =
    run_lanes
      [ Instr.make Isa.MOV32I
          [ Op.reg 1; Op.imm_i (Fp32.to_bits (Fp32.of_float (-3.0))) ];
        Instr.make Isa.FADD [ Op.reg 0; Op.reg_abs 1; Op.reg_neg 1 ];
        store_r0 ]
  in
  (* |−3| + −(−3) = 6 *)
  Alcotest.check feq "abs+neg" 6.0 r.(0)

let test_ffma_fused () =
  (* fused: round once. (1 + 2^-23) * (1 - 2^-23) + (-1) = -2^-46 exactly
     with fma; separate mul+add would give 0. *)
  let a = Fp32.of_float (1.0 +. ldexp 1.0 (-23)) in
  let b = Fp32.of_float (1.0 -. ldexp 1.0 (-23)) in
  let r =
    run_lanes
      [ Instr.make Isa.FFMA
          [ Op.reg 0; Op.imm_f32 a; Op.imm_f32 b;
            Op.imm_f32 (Fp32.of_float (-1.0)) ];
        store_r0 ]
  in
  Alcotest.(check bool) "fused non-zero" true
    (r.(0) <> 0.0 && Float.abs r.(0) < 1e-13)

let test_mufu_rcp_div0 () =
  let r =
    run_lanes
      [ Instr.make (Isa.MUFU Isa.Rcp) [ Op.reg 0; Op.imm_f32 Fp32.zero ];
        store_r0 ]
  in
  Alcotest.(check bool) "rcp(0)=inf" true (Float.is_integer r.(0) = false || r.(0) = infinity);
  Alcotest.(check bool) "is inf" true (r.(0) = infinity)

let test_fsel () =
  let r =
    run_lanes
      [ (* P0 = (tid < 16) *)
        Instr.make (Isa.ISETP (Isa.cmp Isa.Lt))
          [ Op.pred 0; Op.reg 10; Op.imm_i 16l ];
        Instr.make Isa.FSEL
          [ Op.reg 0; Op.imm_f32 (Fp32.of_float 1.0);
            Op.imm_f32 (Fp32.of_float 2.0); Op.pred 0 ];
        store_r0 ]
  in
  Alcotest.check feq "lane0 selected 1" 1.0 r.(0);
  Alcotest.check feq "lane31 selected 2" 2.0 r.(31)

let test_fmnmx_nan () =
  (* FMNMX with one NaN operand returns the other operand *)
  let r =
    run_lanes
      [ Instr.make Isa.FMNMX
          [ Op.reg 0; Op.imm_f32 Fp32.qnan; Op.imm_f32 (Fp32.of_float 7.0);
            Op.pred Op.pt ];
        store_r0 ]
  in
  Alcotest.check feq "min(nan,7)=7" 7.0 r.(0)

let test_fsetp_nan_false () =
  (* if a < b with a NaN: predicate false -> select the else value *)
  let r =
    run_lanes
      [ Instr.make (Isa.FSETP (Isa.cmp Isa.Lt))
          [ Op.pred 0; Op.imm_f32 Fp32.qnan; Op.imm_f32 (Fp32.of_float 5.0) ];
        Instr.make Isa.FSEL
          [ Op.reg 0; Op.imm_f32 (Fp32.of_float 1.0);
            Op.imm_f32 (Fp32.of_float 2.0); Op.pred 0 ];
        store_r0 ]
  in
  Alcotest.check feq "nan<5 is false" 2.0 r.(0)

let test_fp64_pair () =
  (* DADD writes a register pair; F2F.F32.F64 narrows it back. *)
  let lo, hi = Fp64.to_words 2.5 in
  let r =
    run_lanes
      [ Instr.make Isa.MOV32I [ Op.reg 2; Op.imm_i lo ];
        Instr.make Isa.MOV32I [ Op.reg 3; Op.imm_i hi ];
        Instr.make Isa.DADD [ Op.reg 4; Op.reg 2; Op.imm_f64 0.75 ];
        Instr.make (Isa.F2F (Isa.FP32, Isa.FP64)) [ Op.reg 0; Op.reg 4 ];
        store_r0 ]
  in
  Alcotest.check feq "2.5+0.75" 3.25 r.(0)

let test_dsetp_pairs () =
  let lo, hi = Fp64.to_words 4.0 in
  let r =
    run_lanes
      [ Instr.make Isa.MOV32I [ Op.reg 2; Op.imm_i lo ];
        Instr.make Isa.MOV32I [ Op.reg 3; Op.imm_i hi ];
        Instr.make (Isa.DSETP (Isa.cmp Isa.Gt))
          [ Op.pred 1; Op.reg 2; Op.imm_f64 3.0 ];
        Instr.make Isa.FSEL
          [ Op.reg 0; Op.imm_f32 Fp32.one; Op.imm_f32 Fp32.zero; Op.pred 1 ];
        store_r0 ]
  in
  Alcotest.check feq "4>3" 1.0 r.(0)

let test_psetp () =
  let r =
    run_lanes
      [ Instr.make (Isa.ISETP (Isa.cmp Isa.Lt))
          [ Op.pred 0; Op.reg 10; Op.imm_i 8l ];
        Instr.make (Isa.ISETP (Isa.cmp Isa.Ge))
          [ Op.pred 1; Op.reg 10; Op.imm_i 4l ];
        (* P2 = P0 && P1: lanes 4..7 *)
        Instr.make (Isa.PSETP Isa.Pand) [ Op.pred 2; Op.pred 0; Op.pred 1 ];
        Instr.make Isa.FSEL
          [ Op.reg 0; Op.imm_f32 Fp32.one; Op.imm_f32 Fp32.zero; Op.pred 2 ];
        store_r0 ]
  in
  Alcotest.check feq "lane3 out" 0.0 r.(3);
  Alcotest.check feq "lane5 in" 1.0 r.(5);
  Alcotest.check feq "lane8 out" 0.0 r.(8)

let test_branch_divergence () =
  (* lanes < 8 take one path, others another; min-PC reconverges. The
     program computes 10 for low lanes, 20 for high lanes, then adds 1
     to everyone after reconvergence. *)
  let instrs =
    [ Instr.make (Isa.ISETP (Isa.cmp Isa.Lt))
        [ Op.pred 0; Op.reg 10; Op.imm_i 8l ];
      Instr.make ~guard:(Op.pred_not 0) Isa.BRA [ Op.label 6 ] (* to else *);
      Instr.make Isa.MOV32I [ Op.reg 0; Op.imm_i (Fp32.to_bits (Fp32.of_float 10.0)) ];
      Instr.make Isa.BRA [ Op.label 7 ] (* to join *);
      Instr.make Isa.NOP [];
      Instr.make Isa.NOP [];
      (* pc 6: else *)
      Instr.make Isa.MOV32I [ Op.reg 0; Op.imm_i (Fp32.to_bits (Fp32.of_float 20.0)) ];
      (* pc 7: join *)
      Instr.make Isa.FADD [ Op.reg 0; Op.reg 0; Op.imm_f32 Fp32.one ];
      Instr.make (Isa.STG Isa.W32) [ Op.reg 11; Op.reg 0 ] ]
  in
  (* note: labels refer to pcs AFTER the 2-instruction prologue *)
  let instrs =
    List.map
      (fun (i : Instr.t) ->
        { i with
          Instr.operands =
            Array.map
              (fun (o : Op.t) ->
                match o.Op.base with
                | Op.Label l -> { o with Op.base = Op.Label (l + 2) }
                | _ -> o)
              i.Instr.operands })
      instrs
  in
  let r = run_lanes instrs in
  Alcotest.check feq "low lane" 11.0 r.(0);
  Alcotest.check feq "high lane" 21.0 r.(31)

let test_s2r_and_global_tid () =
  let dev = Device.create () in
  let out = Memory.alloc_zeroed dev.Device.memory ~bytes:(4 * 128) in
  let prog =
    Program.make ~name:"tid"
      [ Instr.make (Isa.S2R Isa.Tid_x) [ Op.reg 0 ];
        Instr.make (Isa.S2R Isa.Ctaid_x) [ Op.reg 1 ];
        Instr.make (Isa.S2R Isa.Ntid_x) [ Op.reg 2 ];
        Instr.make Isa.IMAD [ Op.reg 3; Op.reg 1; Op.reg 2; Op.reg 0 ];
        Instr.make Isa.IMAD
          [ Op.reg 4; Op.reg 3; Op.imm_i 4l; Op.cbank ~bank:0 ~offset:0x160 ];
        Instr.make (Isa.STG Isa.W32) [ Op.reg 4; Op.reg 3 ] ]
  in
  ignore (Exec.run ~device:dev ~grid:2 ~block:64 ~params:[ Param.Ptr out ] prog);
  let ints = Memory.read_i32_array dev.Device.memory ~addr:out ~len:128 in
  Alcotest.(check int32) "gtid 0" 0l ints.(0);
  Alcotest.(check int32) "gtid 90" 90l ints.(90);
  Alcotest.(check int32) "gtid 127" 127l ints.(127)

let test_fp64_memory () =
  let dev = Device.create () in
  let buf = Memory.alloc_zeroed dev.Device.memory ~bytes:16 in
  Memory.store_f64 dev.Device.memory ~addr:buf 6.25;
  let prog =
    Program.make ~name:"ld64"
      [ Instr.make Isa.MOV [ Op.reg 2; Op.cbank ~bank:0 ~offset:0x160 ];
        Instr.make (Isa.LDG Isa.W64) [ Op.reg 4; Op.reg 2 ];
        Instr.make Isa.DMUL [ Op.reg 6; Op.reg 4; Op.imm_f64 2.0 ];
        Instr.make Isa.IADD [ Op.reg 3; Op.reg 2; Op.imm_i 8l ];
        Instr.make (Isa.STG Isa.W64) [ Op.reg 3; Op.reg 6 ] ]
  in
  ignore (Exec.run ~device:dev ~grid:1 ~block:1 ~params:[ Param.Ptr buf ] prog);
  Alcotest.check (Alcotest.float 1e-12) "12.5"
    12.5
    (Memory.load_f64 dev.Device.memory ~addr:(buf + 8))

let test_watchdog () =
  let prog =
    Program.make ~name:"loop" [ Instr.make Isa.BRA [ Op.label 0 ] ]
  in
  let dev = Device.create () in
  Alcotest.(check bool) "watchdog trips" true
    (try
       ignore
         (Exec.run ~max_dyn_instrs:1000 ~device:dev ~grid:1 ~block:32
            ~params:[] prog);
       false
     with Exec.Trap _ -> true)

let test_memory_fault () =
  let dev = Device.create () in
  let prog =
    Program.make ~name:"oob"
      [ Instr.make Isa.MOV32I [ Op.reg 0; Op.imm_i 0x7ffffff0l ];
        Instr.make (Isa.LDG Isa.W32) [ Op.reg 1; Op.reg 0 ] ]
  in
  Alcotest.(check bool) "fault trapped" true
    (try
       ignore (Exec.run ~device:dev ~grid:1 ~block:1 ~params:[] prog);
       false
     with Exec.Trap msg ->
       String.length msg >= 27
       && String.sub msg 0 27 = "global access out of bounds")

(* Every Exec.Trap path carries a stable message prefix so the harness
   (and fpx_run's exit-code mapping) can classify aborts. *)
let expect_trap ~prefix ?(block = 1) ?max_dyn_instrs prog =
  let dev = Device.create () in
  let trapped =
    try
      ignore
        (Exec.run ?max_dyn_instrs ~device:dev ~grid:1 ~block ~params:[] prog);
      None
    with Exec.Trap msg -> Some msg
  in
  match trapped with
  | None -> Alcotest.failf "expected a trap with prefix %S" prefix
  | Some msg ->
    let n = String.length prefix in
    Alcotest.(check string)
      (Printf.sprintf "prefix of %S" msg)
      prefix
      (if String.length msg >= n then String.sub msg 0 n else msg)

let test_trap_watchdog () =
  expect_trap ~prefix:"watchdog:" ~block:32 ~max_dyn_instrs:100
    (Program.make ~name:"loop" [ Instr.make Isa.BRA [ Op.label 0 ] ])

let test_trap_malformed_operand () =
  (* a predicate where FADD expects an FP32 source *)
  expect_trap ~prefix:"FP32 operand expected"
    (Program.make ~name:"badop"
       [ Instr.make Isa.FADD [ Op.reg 0; Op.pred 1; Op.imm_f32 Fp32.one ] ]);
  (* a predicate where IADD expects an integer source *)
  expect_trap ~prefix:"integer operand expected"
    (Program.make ~name:"badint"
       [ Instr.make Isa.IADD [ Op.reg 0; Op.pred 1; Op.imm_i 1l ] ])

let test_trap_global_oob () =
  expect_trap ~prefix:"global access out of bounds"
    (Program.make ~name:"goob"
       [ Instr.make Isa.MOV32I [ Op.reg 0; Op.imm_i 0x7ffffff0l ];
         Instr.make (Isa.STG Isa.W32) [ Op.reg 0; Op.reg 1 ] ])

let test_trap_shared_oob () =
  expect_trap ~prefix:"shared load out of bounds"
    (Program.make ~name:"slo"
       [ Instr.make Isa.MOV32I [ Op.reg 0; Op.imm_i 0x7ffffff0l ];
         Instr.make (Isa.LDS Isa.W32) [ Op.reg 1; Op.reg 0 ] ]);
  expect_trap ~prefix:"shared store out of bounds"
    (Program.make ~name:"sso"
       [ Instr.make Isa.MOV32I [ Op.reg 0; Op.imm_i 0x7ffffff0l ];
         Instr.make (Isa.STS Isa.W32) [ Op.reg 0; Op.reg 1 ] ])

let test_ftz_program () =
  (* same FMUL, ftz vs not: subnormal result flushed under ftz *)
  let tiny = Fp32.of_float 1e-20 in
  let body =
    [ Instr.make (Isa.S2R Isa.Tid_x) [ Op.reg 10 ];
      Instr.make Isa.IMAD
        [ Op.reg 11; Op.reg 10; Op.imm_i 4l; Op.cbank ~bank:0 ~offset:0x160 ];
      Instr.make Isa.FMUL [ Op.reg 0; Op.imm_f32 tiny; Op.imm_f32 tiny ];
      store_r0 ]
  in
  let run ftz =
    let dev = Device.create () in
    let out = Memory.alloc_zeroed dev.Device.memory ~bytes:(4 * 32) in
    let prog = Program.make ~ftz ~name:"ftz" body in
    ignore (Exec.run ~device:dev ~grid:1 ~block:32 ~params:[ Param.Ptr out ] prog);
    (Memory.read_f32_array dev.Device.memory ~addr:out ~len:1).(0)
  in
  Alcotest.(check bool) "precise keeps subnormal" true (run false > 0.0);
  Alcotest.check feq "ftz flushes" 0.0 (run true)

let test_stats_counting () =
  let dev = Device.create () in
  let prog =
    Program.make ~name:"count"
      [ Instr.make Isa.NOP []; Instr.make Isa.NOP [] ]
  in
  let st = Exec.run ~device:dev ~grid:2 ~block:64 ~params:[] prog in
  (* 2 blocks x 2 warps x 3 instrs (2 NOP + EXIT) *)
  Alcotest.(check int) "dyn instrs" 12 st.Stats.dyn_instrs;
  Alcotest.(check int) "launches" 1 st.Stats.launches

let test_hooks_fire () =
  let dev = Device.create () in
  let prog =
    Program.make ~name:"hooked"
      [ Instr.make Isa.FADD [ Op.reg 0; Op.imm_f32 Fp32.one; Op.imm_f32 Fp32.one ] ]
  in
  let before = ref 0 and after = ref 0 and lanes_seen = ref 0 in
  let hooks = Exec.no_hooks prog in
  hooks.Exec.before.(0) <-
    [ { Exec.fixed_cost = 7; fn = (fun _ _ -> incr before) } ];
  hooks.Exec.after.(0) <-
    [ { Exec.fixed_cost = 7;
        fn =
          (fun _ api ->
            incr after;
            lanes_seen := List.length api.Exec.executing_lanes) } ];
  let st = Exec.run ~hooks ~device:dev ~grid:1 ~block:32 ~params:[] prog in
  Alcotest.(check int) "before fired" 1 !before;
  Alcotest.(check int) "after fired" 1 !after;
  Alcotest.(check int) "32 executing lanes" 32 !lanes_seen;
  Alcotest.(check int) "cost charged" 14 st.Stats.tool_cycles

let test_hook_guard_lanes () =
  (* guarded instruction: only guard-true lanes are 'executing' *)
  let dev = Device.create () in
  let prog =
    Program.make ~name:"guarded"
      [ Instr.make (Isa.S2R Isa.Tid_x) [ Op.reg 1 ];
        Instr.make (Isa.ISETP (Isa.cmp Isa.Lt))
          [ Op.pred 0; Op.reg 1; Op.imm_i 5l ];
        Instr.make ~guard:(Op.pred 0) Isa.FADD
          [ Op.reg 0; Op.imm_f32 Fp32.one; Op.imm_f32 Fp32.one ] ]
  in
  let lanes = ref [] in
  let hooks = Exec.no_hooks prog in
  hooks.Exec.after.(2) <-
    [ { Exec.fixed_cost = 0;
        fn = (fun _ api -> lanes := api.Exec.executing_lanes) } ];
  ignore (Exec.run ~hooks ~device:dev ~grid:1 ~block:32 ~params:[] prog);
  Alcotest.(check (list int)) "guard-true lanes" [ 0; 1; 2; 3; 4 ] !lanes

(* Each block starts from zeroed shared memory and registers, although
   the executor reuses one segment and one set of warp states for all
   blocks of a launch: every lane stores shared[tid] + R7 before writing
   7 and 9 there, so block 1 stores 16 if block 0's state survives. *)
let test_blocks_start_clean () =
  let dev = Device.create () in
  let out = Memory.alloc_zeroed dev.Device.memory ~bytes:(4 * 128) in
  let prog =
    Program.make ~name:"clean"
      [ Instr.make (Isa.S2R Isa.Tid_x) [ Op.reg 0 ];
        Instr.make (Isa.S2R Isa.Ctaid_x) [ Op.reg 1 ];
        Instr.make (Isa.S2R Isa.Ntid_x) [ Op.reg 2 ];
        Instr.make Isa.IMAD [ Op.reg 3; Op.reg 1; Op.reg 2; Op.reg 0 ];
        Instr.make Isa.IADD [ Op.reg 4; Op.reg 0; Op.reg 0 ];
        Instr.make Isa.IADD [ Op.reg 4; Op.reg 4; Op.reg 4 ];
        Instr.make (Isa.LDS Isa.W32) [ Op.reg 5; Op.reg 4 ];
        Instr.make Isa.IADD [ Op.reg 6; Op.reg 5; Op.reg 7 ];
        Instr.make Isa.IMAD
          [ Op.reg 8; Op.reg 3; Op.imm_i 4l; Op.cbank ~bank:0 ~offset:0x160 ];
        Instr.make (Isa.STG Isa.W32) [ Op.reg 8; Op.reg 6 ];
        Instr.make Isa.MOV32I [ Op.reg 9; Op.imm_i 7l ];
        Instr.make (Isa.STS Isa.W32) [ Op.reg 4; Op.reg 9 ];
        Instr.make Isa.MOV32I [ Op.reg 7; Op.imm_i 9l ] ]
  in
  ignore (Exec.run ~device:dev ~grid:2 ~block:64 ~params:[ Param.Ptr out ] prog);
  Alcotest.(check (array int32)) "all zero" (Array.make 128 0l)
    (Memory.read_i32_array dev.Device.memory ~addr:out ~len:128)

let suite =
  ( "exec",
    [ Alcotest.test_case "fadd" `Quick test_fadd;
      Alcotest.test_case "neg/abs modifiers" `Quick test_neg_abs_modifiers;
      Alcotest.test_case "ffma is fused" `Quick test_ffma_fused;
      Alcotest.test_case "mufu.rcp div0" `Quick test_mufu_rcp_div0;
      Alcotest.test_case "fsel" `Quick test_fsel;
      Alcotest.test_case "fmnmx nan" `Quick test_fmnmx_nan;
      Alcotest.test_case "fsetp nan ordered false" `Quick test_fsetp_nan_false;
      Alcotest.test_case "fp64 register pair" `Quick test_fp64_pair;
      Alcotest.test_case "dsetp pairs" `Quick test_dsetp_pairs;
      Alcotest.test_case "psetp" `Quick test_psetp;
      Alcotest.test_case "branch divergence reconverges" `Quick
        test_branch_divergence;
      Alcotest.test_case "s2r / global tid" `Quick test_s2r_and_global_tid;
      Alcotest.test_case "fp64 memory" `Quick test_fp64_memory;
      Alcotest.test_case "watchdog" `Quick test_watchdog;
      Alcotest.test_case "memory fault" `Quick test_memory_fault;
      Alcotest.test_case "trap: watchdog prefix" `Quick test_trap_watchdog;
      Alcotest.test_case "trap: malformed operand" `Quick
        test_trap_malformed_operand;
      Alcotest.test_case "trap: global oob prefix" `Quick test_trap_global_oob;
      Alcotest.test_case "trap: shared oob prefix" `Quick test_trap_shared_oob;
      Alcotest.test_case "program ftz" `Quick test_ftz_program;
      Alcotest.test_case "stats counting" `Quick test_stats_counting;
      Alcotest.test_case "hooks fire with costs" `Quick test_hooks_fire;
      Alcotest.test_case "hooks see guard-true lanes" `Quick
        test_hook_guard_lanes;
      Alcotest.test_case "blocks start clean" `Quick test_blocks_start_clean ] )
