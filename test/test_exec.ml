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

(* The lanes of an executing mask, ascending. *)
let lanes_of_mask m = List.filter (fun l -> (m lsr l) land 1 = 1) (List.init 32 Fun.id)

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

(* A device whose fault plan injects nothing and only caps each
   launch's step budget: how production bounds a run. *)
let budget_device n =
  Device.create
    ~fault:
      (Fpx_fault.Fault.of_spec
         (Fpx_fault.Fault.spec ~sites:[] ~rate:0.0 ~budget:n ~seed:0 ()))
    ()

let test_watchdog () =
  let prog =
    Program.make ~name:"loop" [ Instr.make Isa.BRA [ Op.label 0 ] ]
  in
  let dev = budget_device 1000 in
  Alcotest.(check bool) "watchdog trips" true
    (try
       ignore (Exec.run ~device:dev ~grid:1 ~block:32 ~params:[] prog);
       false
     with Exec.Watchdog _ -> true)

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
let expect_trap ~prefix ?(block = 1) prog =
  let dev = Device.create () in
  let trapped =
    try
      ignore (Exec.run ~device:dev ~grid:1 ~block ~params:[] prog);
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

(* The step watchdog is not a trap: it raises Exec.Watchdog, which the
   harness reports as a hang, with a message naming kernel and budget. *)
let test_trap_watchdog () =
  let dev = budget_device 100 in
  match
    Exec.run ~device:dev ~grid:1 ~block:32 ~params:[]
      (Program.make ~name:"loop" [ Instr.make Isa.BRA [ Op.label 0 ] ])
  with
  | _ -> Alcotest.fail "expected the step watchdog"
  | exception Exec.Watchdog msg ->
    Alcotest.(check string) "message" "watchdog: kernel loop exceeded 100 instrs"
      msg

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
            lanes_seen := lanes_of_mask api.Exec.executing |> List.length) } ];
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
        fn = (fun _ api -> lanes := lanes_of_mask api.Exec.executing) } ];
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

(* --- Converged and diverged warps, against the reference core ------- *)

(* Everything a launch shows: the memory digest, the step and cycle
   counts, every hook firing as (pc, warp, executing mask) in firing
   order, the "simt" trace instants, and the divergent-step counter. *)
type observed = {
  digest : string;
  dyn_instrs : int;
  base_cycles : int;
  tool_cycles : int;
  fired : (int * int * int) list;
  instants : (int * string * float * (string * Fpx_obs.Span.arg) list) list;
  divergent_steps : int option;
  out : int32 array;
}

type engine =
  ?hooks:Exec.hooks -> device:Device.t -> grid:int -> block:int ->
  params:Param.t list -> Program.t -> Stats.t

(* Kernels below start with the [run_lanes] prologue: R10 = tid,
   R11 = &out[global tid]; pc 2 is the first body instruction. *)
let prologue =
  [ Instr.make (Isa.S2R Isa.Tid_x) [ Op.reg 10 ];
    Instr.make Isa.IMAD
      [ Op.reg 11; Op.reg 10; Op.imm_i 4l; Op.cbank ~bank:0 ~offset:0x160 ] ]

let observe ~(run : engine) ?(obs = false) ~grid ~block ~hooked body =
  let prog = Program.make ~name:"simt" (prologue @ body) in
  let sink = if obs then Fpx_obs.Sink.create () else Fpx_obs.Sink.null in
  let dev = Device.create ~obs:sink () in
  let n = grid * block in
  let out = Memory.alloc_zeroed dev.Device.memory ~bytes:(4 * n) in
  let fired = ref [] in
  let hooks = Exec.no_hooks prog in
  List.iter
    (fun pc ->
      hooks.Exec.after.(pc) <-
        [ { Exec.fixed_cost = 3;
            fn =
              (fun _ api ->
                fired := (pc, api.Exec.warp_index, api.Exec.executing) :: !fired)
          } ])
    hooked;
  let st = run ~hooks ~device:dev ~grid ~block ~params:[ Param.Ptr out ] prog in
  let instants, divergent_steps =
    match Fpx_obs.Sink.active sink with
    | None -> ([], None)
    | Some a ->
      ( List.filter_map
          (fun (sp : Fpx_obs.Span.span) ->
            if sp.Fpx_obs.Span.cat = "simt" then
              Some (sp.track, sp.name, sp.t0, sp.args)
            else None)
          (Fpx_obs.Span.spans a.Fpx_obs.Sink.trace),
        Fpx_obs.Metrics.counter_value a.Fpx_obs.Sink.metrics
          "fpx_warp_divergent_steps_total" )
  in
  {
    digest = Memory.digest dev.Device.memory;
    dyn_instrs = st.Stats.dyn_instrs;
    base_cycles = st.Stats.base_cycles;
    tool_cycles = st.Stats.tool_cycles;
    fired = List.rev !fired;
    instants;
    divergent_steps;
    out = Memory.read_i32_array dev.Device.memory ~addr:out ~len:n;
  }

(* Run both engines; they must agree on everything observed. Returns
   the decoded engine's view. *)
let against_oracle ?obs ?(grid = 1) ?(block = 32) ~hooked body =
  let r = observe ~run:Fpx_oracle.Exec_ref.run ?obs ~grid ~block ~hooked body in
  let d = observe ~run:Exec.run ?obs ~grid ~block ~hooked body in
  Alcotest.(check string) "memory digest" r.digest d.digest;
  Alcotest.(check int) "dyn instrs" r.dyn_instrs d.dyn_instrs;
  Alcotest.(check int) "base cycles" r.base_cycles d.base_cycles;
  Alcotest.(check int) "tool cycles" r.tool_cycles d.tool_cycles;
  Alcotest.(check (list (triple int int int))) "hook masks" r.fired d.fired;
  Alcotest.(check bool) "simt instants" true (r.instants = d.instants);
  Alcotest.(check (option int)) "divergent steps" r.divergent_steps
    d.divergent_steps;
  d

let mov32 r v = Instr.make Isa.MOV32I [ Op.reg r; Op.imm_i v ]
let bra ?guard pc = Instr.make ?guard Isa.BRA [ Op.label pc ]

let setp c r v =
  Instr.make (Isa.ISETP (Isa.cmp c)) [ Op.pred r; Op.reg 10; Op.imm_i v ]

let stg = Instr.make (Isa.STG Isa.W32) [ Op.reg 11; Op.reg 0 ]

(* Lanes 0-7 take pc 6, 8-15 pc 8, 16-31 pc 10; the inner paths join
   at 9, everyone at 11. *)
let nested =
  [ (* 2 *) setp Isa.Lt 0 16l;
    (* 3 *) bra ~guard:(Op.pred_not 0) 10;
    (* 4 *) setp Isa.Lt 1 8l;
    (* 5 *) bra ~guard:(Op.pred_not 1) 8;
    (* 6 *) mov32 0 1l;
    (* 7 *) bra 9;
    (* 8 *) mov32 0 2l;
    (* 9 *) bra 11;
    (* 10 *) mov32 0 3l;
    (* 11 *) Instr.make Isa.IADD [ Op.reg 0; Op.reg 0; Op.imm_i 100l ];
    (* 12 *) stg ]

let test_nested_divergence_reconverges () =
  let d = against_oracle ~hooked:[ 6; 8; 9; 10; 11 ] nested in
  Alcotest.(check (list (triple int int int))) "each path once, then 32 lanes"
    [ (6, 0, 0xff); (8, 0, 0xff00); (9, 0, 0xffff); (10, 0, 0xffff0000);
      (11, 0, 0xffffffff) ]
    d.fired;
  Alcotest.(check (array int32)) "per-path results"
    (Array.init 32 (fun l -> if l < 8 then 101l else if l < 16 then 102l else 103l))
    d.out

let test_partial_exit_then_divergence () =
  let d =
    against_oracle ~hooked:[ 6; 8; 9 ]
      [ (* 2 *) setp Isa.Ge 0 24l;
        (* 3 *) Instr.make ~guard:(Op.pred 0) Isa.EXIT [];
        (* 4 *) setp Isa.Lt 1 4l;
        (* 5 *) bra ~guard:(Op.pred 1) 8;
        (* 6 *) mov32 0 5l;
        (* 7 *) bra 9;
        (* 8 *) mov32 0 7l;
        (* 9 *) stg ]
  in
  Alcotest.(check (list (triple int int int))) "exited lanes never execute"
    [ (6, 0, 0x00fffff0); (8, 0, 0xf); (9, 0, 0x00ffffff) ]
    d.fired;
  Alcotest.(check (array int32)) "survivors store, exited lanes do not"
    (Array.init 32 (fun l -> if l < 4 then 7l else if l < 24 then 5l else 0l))
    d.out

(* Two warps: warp 1 diverges (tids 32-39 vs 40-63) and reconverges
   before the barrier; after it each thread reads its partner's
   (tid xor 32) shared word. *)
let test_barrier_after_reconvergence () =
  let d =
    against_oracle ~block:64 ~hooked:[ 7; 13 ]
      [ (* 2 *) setp Isa.Lt 0 40l;
        (* 3 *) bra ~guard:(Op.pred_not 0) 6;
        (* 4 *) mov32 1 1l;
        (* 5 *) bra 7;
        (* 6 *) mov32 1 2l;
        (* 7 *) Instr.make Isa.IADD [ Op.reg 1; Op.reg 1; Op.reg 10 ];
        (* 8 *) Instr.make Isa.SHL [ Op.reg 2; Op.reg 10; Op.imm_i 2l ];
        (* 9 *) Instr.make (Isa.STS Isa.W32) [ Op.reg 2; Op.reg 1 ];
        (* 10 *) Instr.make Isa.BAR [];
        (* 11 *) Instr.make Isa.LOP_XOR [ Op.reg 3; Op.reg 10; Op.imm_i 32l ];
        (* 12 *) Instr.make Isa.SHL [ Op.reg 4; Op.reg 3; Op.imm_i 2l ];
        (* 13 *) Instr.make (Isa.LDS Isa.W32) [ Op.reg 0; Op.reg 4 ];
        (* 14 *) stg ]
  in
  Alcotest.(check (list (triple int int int))) "both warps whole at the join"
    [ (7, 0, 0xffffffff); (7, 1, 0xffffffff); (13, 0, 0xffffffff);
      (13, 1, 0xffffffff) ]
    d.fired;
  Alcotest.(check (array int32)) "partner's word"
    (Array.init 64 (fun t ->
         let p = t lxor 32 in
         Int32.of_int (p + if p < 40 then 1 else 2)))
    d.out

let test_uniform_branches_do_not_diverge () =
  let d =
    against_oracle ~obs:true ~hooked:[ 3; 5 ]
      [ (* 2 *) setp Isa.Ge 0 0l;
        (* 3 *) bra ~guard:(Op.pred 0) 5;
        (* 4 *) mov32 0 9l;
        (* 5 *) bra ~guard:(Op.pred_not 0) 7;
        (* 6 *) mov32 0 1l;
        (* 7 *) stg ]
  in
  Alcotest.(check (list (triple int int int))) "taken by all, then by none"
    [ (3, 0, 0xffffffff); (5, 0, 0) ] d.fired;
  Alcotest.(check int) "no simt instant" 0 (List.length d.instants);
  Alcotest.(check (option int)) "no divergent step" (Some 0) d.divergent_steps;
  Alcotest.(check (array int32)) "fell through" (Array.make 32 1l) d.out

(* Two blocks of 48 threads: each block's first warp diverges and
   reconverges once; its second warp (16 live lanes, tids 32-47) takes
   the outer else path together and never diverges. *)
let test_divergence_instants_match_oracle () =
  let d = against_oracle ~obs:true ~grid:2 ~block:48 ~hooked:[ 11 ] nested in
  let count name =
    List.length (List.filter (fun (_, n, _, _) -> n = name) d.instants)
  in
  Alcotest.(check int) "one divergence per first warp" 2 (count "warp_diverge");
  Alcotest.(check int) "one reconvergence per first warp" 2
    (count "warp_reconverge");
  Alcotest.(check (list (triple int int int))) "whole warps at the join"
    [ (11, 0, 0xffffffff); (11, 1, 0xffff); (11, 2, 0xffffffff);
      (11, 3, 0xffff) ]
    d.fired;
  Alcotest.(check bool) "divergent steps counted" true
    (match d.divergent_steps with Some n -> n > 0 | None -> false)

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
      Alcotest.test_case "blocks start clean" `Quick test_blocks_start_clean;
      Alcotest.test_case "nested divergence reconverges" `Quick
        test_nested_divergence_reconverges;
      Alcotest.test_case "partial exit, then divergence" `Quick
        test_partial_exit_then_divergence;
      Alcotest.test_case "barrier after reconvergence" `Quick
        test_barrier_after_reconvergence;
      Alcotest.test_case "uniform branches do not diverge" `Quick
        test_uniform_branches_do_not_diverge;
      Alcotest.test_case "divergence instants match the oracle" `Quick
        test_divergence_instants_match_oracle ] )
