(* Differential testing of the two-stage execution core: the decoded
   engine must be observably identical to the reference interpreter
   (Fpx_oracle.Exec_ref, test/oracle/) — memory digests, detector logs,
   Stats accounting, trap messages —
   over the fuzz generator's full opcode coverage, under architectural
   fault injection, and on the poison paths for malformed operands. *)

open Fpx_sass
open Fpx_gpu
module Op = Operand
module Fp32 = Fpx_num.Fp32
module Det = Gpu_fpx.Detector
module Fault = Fpx_fault.Fault
module Repro = Fpx_fuzz.Repro
module Sassgen = Fpx_fuzz.Sassgen

let qcheck_case t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xdec0de |]) t

(* Everything either engine can show the outside world from one launch. *)
type outcome = {
  digest : string;
  log : string list;
  dyn_instrs : int;
  base_cycles : int;
  tool_cycles : int;
  records_pushed : int;
  shmem_hwm : int;
  trap : string option;
}

(* An engine is its launch entry point. *)
type engine =
  ?hooks:Exec.hooks -> device:Device.t -> grid:int -> block:int ->
  params:Param.t list -> Program.t -> Stats.t

let decoded : engine = Exec.run
let reference : engine = Fpx_oracle.Exec_ref.run

(* One launch the way the NVBit runtime drives it — the Instr_flip
   mutation at JIT time, the tool's hooks built with Inject, the run,
   then the drain — with the engine the only moving part. *)
let launch ~(run : engine) dev tool ~grid ~block ~params prog =
  let kernel = prog.Program.name in
  let prog =
    match
      Option.bind (Fault.active dev.Device.fault) (fun a ->
          Fault.arch_instr_flip a ~kernel)
    with
    | None -> prog
    | Some (pc, sel) -> (
      match Mutate.instr_flip prog ~pc ~sel with
      | Ok p -> p
      | Error msg -> raise (Exec.Trap ("decode-fail: " ^ msg)))
  in
  match tool with
  | None -> run ~device:dev ~grid ~block ~params prog
  | Some tool ->
    let b = Fpx_tool.Inject.create dev prog in
    Fpx_tool.instrument tool prog b;
    let pre = Stats.create () in
    Fpx_tool.on_launch_begin tool pre;
    let stats =
      run ~hooks:(Fpx_tool.Inject.build b) ~device:dev ~grid ~block ~params
        prog
    in
    Stats.add stats pre;
    Fpx_tool.on_drain tool stats ~kernel;
    stats

let run_case ~run ?fault ?(detector = false) (c : Repro.t) =
  let fault =
    match fault with Some s -> Fault.of_spec s | None -> Fault.none
  in
  let dev = Device.create ~fault () in
  let det = if detector then Some (Det.create dev) else None in
  let mem = dev.Device.memory in
  let params =
    List.map
      (function
        | Parse.Ptr_bytes n -> Param.Ptr (Memory.alloc_zeroed mem ~bytes:n)
        | Parse.F32 v -> Param.F32 (Fp32.of_float v)
        | Parse.F64 v -> Param.F64 v
        | Parse.I32 v -> Param.I32 v)
      c.Repro.params
  in
  let st, trap =
    match
      launch ~run dev (Option.map Det.tool det) ~grid:c.Repro.grid
        ~block:c.Repro.block ~params c.Repro.prog
    with
    | st -> (st, None)
    | exception Exec.Trap m -> (Stats.create (), Some ("Trap: " ^ m))
    | exception Exec.Watchdog m -> (Stats.create (), Some ("Watchdog: " ^ m))
    | exception Invalid_argument m ->
      (Stats.create (), Some ("Invalid_argument: " ^ m))
  in
  {
    digest = Memory.digest mem;
    log = (match det with Some d -> Det.log_lines d | None -> []);
    dyn_instrs = st.Stats.dyn_instrs;
    base_cycles = st.Stats.base_cycles;
    tool_cycles = st.Stats.tool_cycles;
    records_pushed = st.Stats.records_pushed;
    shmem_hwm = st.Stats.shmem_hwm;
    trap;
  }

let outcome = Alcotest.testable (fun ppf o ->
    Format.fprintf ppf
      "digest=%s dyn=%d base=%d tool=%d rec=%d hwm=%d trap=%s log=%d lines"
      o.digest o.dyn_instrs o.base_cycles o.tool_cycles o.records_pushed
      o.shmem_hwm
      (Option.value o.trap ~default:"-")
      (List.length o.log))
    ( = )

let check_same ?fault ?detector what c =
  let r = run_case ~run:reference ?fault ?detector c in
  let d = run_case ~run:decoded ?fault ?detector c in
  Alcotest.check outcome what r d

(* --- generator-driven differential ------------------------------------ *)

let arb_case =
  QCheck.map
    (fun id -> Sassgen.case ~seed:77 ~id)
    QCheck.(int_range 0 2000)
  |> QCheck.set_print (fun c -> Repro.render c)

let same ?fault ?(detector = false) c =
  run_case ~run:reference ?fault ~detector c
  = run_case ~run:decoded ?fault ~detector c

let prop_bare =
  QCheck.Test.make ~count:150 ~name:"decoded = reference, bare" arb_case
    (fun c -> same c)

let prop_detector =
  QCheck.Test.make ~count:150 ~name:"decoded = reference, under detector"
    arb_case (fun c -> same ~detector:true c)

let prop_reg_flip =
  (* Random architectural register flips — including out-of-range lane,
     reg and bit coordinates, which both engines must fold identically
     (lane mod warp-size, reg mod file-slots, bit mod 32). *)
  QCheck.Test.make ~count:80 ~name:"decoded = reference, under Reg_flip"
    QCheck.(
      pair (int_range 0 2000)
        (quad (int_range 0 400) (int_range 0 99) (int_range 0 300)
           (int_range 0 99)))
    (fun (id, (at_dyn, lane, reg, bit)) ->
      let c = Sassgen.case ~seed:77 ~id in
      let fault =
        Fault.spec ~sites:[] ~rate:0.0
          ~arch:(Fault.Reg_flip { at_dyn; lane; reg; bit })
          ~seed:id ()
      in
      same ~fault ~detector:true c)

(* --- targeted flip-coordinate cases ----------------------------------- *)

(* One warp: every lane computes lane*4+base, stores lane+1.5 to global
   and lane*2 to shared, barriers, reads a neighbour's shared word back
   out. Touches registers, shared memory and global memory so any flip
   lands somewhere digest-visible. *)
let flip_prog =
  Program.make ~name:"flipk"
    [ Instr.make (Isa.S2R Isa.Tid_x) [ Op.reg 10 ];
      Instr.make Isa.IMAD
        [ Op.reg 11; Op.reg 10; Op.imm_i 4l; Op.cbank ~bank:0 ~offset:0x160 ];
      Instr.make Isa.IMAD
        [ Op.reg 12; Op.reg 10; Op.imm_i 4l; Op.imm_i 0l ];
      Instr.make (Isa.I2F Isa.FP32) [ Op.reg 0; Op.reg 10 ];
      Instr.make Isa.FADD [ Op.reg 1; Op.reg 0; Op.imm_f32 (Fp32.of_float 1.5) ];
      Instr.make Isa.FADD [ Op.reg 2; Op.reg 0; Op.reg 0 ];
      Instr.make (Isa.STS Isa.W32) [ Op.reg 12; Op.reg 2 ];
      Instr.make Isa.BAR [];
      Instr.make Isa.IADD [ Op.reg 13; Op.reg 12; Op.imm_i 4l ];
      Instr.make (Isa.LDS Isa.W32) [ Op.reg 3; Op.reg 13 ];
      Instr.make Isa.FADD [ Op.reg 1; Op.reg 1; Op.reg 3 ];
      Instr.make (Isa.STG Isa.W32) [ Op.reg 11; Op.reg 1 ] ]

let flip_case =
  {
    Repro.id = 0;
    seed = 0;
    origin = Repro.Sass_gen;
    prog = flip_prog;
    grid = 2;
    block = 64;
    params = [ Parse.Ptr_bytes (4 * 128) ];
    budget = None;
  }

let arch_case name arch =
  let fault = Fault.spec ~sites:[] ~rate:0.0 ~arch ~seed:7 () in
  Alcotest.test_case name `Quick (fun () ->
      check_same ~fault ~detector:true name flip_case)

let reg_flip_cases =
  [ arch_case "reg flip in-range"
      (Fault.Reg_flip { at_dyn = 40; lane = 5; reg = 1; bit = 12 });
    (* reg past the file: both engines fold with [reg mod (n_regs+2)] *)
    arch_case "reg flip out-of-range reg"
      (Fault.Reg_flip { at_dyn = 40; lane = 5; reg = 213; bit = 12 });
    (* lane past the warp: folded with [lane land 31] *)
    arch_case "reg flip out-of-range lane"
      (Fault.Reg_flip { at_dyn = 40; lane = 77; reg = 1; bit = 12 });
    (* bit past the word: folded with [bit land 31] *)
    arch_case "reg flip out-of-range bit"
      (Fault.Reg_flip { at_dyn = 40; lane = 5; reg = 1; bit = 63 });
    arch_case "shmem flip in-range"
      (Fault.Shmem_flip { at_dyn = 50; word = 9; bit = 3 });
    (* word wraps over the shared segment *)
    arch_case "shmem flip out-of-range word"
      (Fault.Shmem_flip { at_dyn = 50; word = 123_457; bit = 3 });
    arch_case "instr flip"
      (Fault.Instr_flip { kernel = "flipk"; pc = 4; sel = 9 }) ]

(* --- poison determinism ----------------------------------------------- *)

(* A malformed operand (predicate where a float is expected) decodes to
   a poison descriptor: inert while its instruction is guarded off,
   raising the reference core's exact trap once dynamically read. *)
let poison_prog ~armed =
  (* P6 is never set, so @P6 guards the malformed FADD off. *)
  let guard = if armed then None else Some (Op.pred 6) in
  Program.make ~name:"poisoned"
    [ Instr.make (Isa.S2R Isa.Tid_x) [ Op.reg 10 ];
      Instr.make Isa.IMAD
        [ Op.reg 11; Op.reg 10; Op.imm_i 4l; Op.cbank ~bank:0 ~offset:0x160 ];
      Instr.make ?guard Isa.FADD [ Op.reg 0; Op.pred 3; Op.imm_f32 Fp32.one ];
      Instr.make (Isa.STG Isa.W32) [ Op.reg 11; Op.reg 0 ] ]

let poison_case ~armed =
  {
    Repro.id = 0;
    seed = 0;
    origin = Repro.Sass_gen;
    prog = poison_prog ~armed;
    grid = 1;
    block = 32;
    params = [ Parse.Ptr_bytes (4 * 32) ];
    budget = None;
  }

let test_poison_dormant () =
  let c = poison_case ~armed:false in
  let d = run_case ~run:decoded c in
  Alcotest.(check (option string)) "guarded-off poison is inert" None d.trap;
  check_same "dormant poison" c

let test_poison_armed () =
  let c = poison_case ~armed:true in
  let r = run_case ~run:reference c in
  let d = run_case ~run:decoded c in
  Alcotest.(check bool) "reference traps" true (r.trap <> None);
  Alcotest.check outcome "armed poison" r d

(* --- register footprint ------------------------------------------------ *)

let uop_of text =
  (Decode.program (Parse.program text)).Decode.entries.(0).Decode.uop

let footprint =
  Alcotest.(
    list
      (pair int
         (testable
            (fun ppf w ->
              Format.pp_print_string ppf
                (match w with Isa.W32 -> "W32" | Isa.W64 -> "W64"))
            ( = ))))

(* (instruction, reads, writes); a W64 entry is a register pair *)
let footprint_rows =
  Isa.
    [ ("DADD R4, R6, R8 ;", [ (6, W64); (8, W64) ], [ (4, W64) ]);
      ("DSETP.GT.AND P0, R2, R4 ;", [ (2, W64); (4, W64) ], []);
      ("F2F.F64.F32 R2, R5 ;", [ (5, W32) ], [ (2, W64) ]);
      ("F2F.F32.F64 R5, R2 ;", [ (2, W64) ], [ (5, W32) ]);
      ("I2F.F64 R2, R5 ;", [ (5, W32) ], [ (2, W64) ]);
      ("LDG.E.64 R4, R2 ;", [], [ (4, W64) ]);
      ("STG.E.64 R12, R8 ;", [ (8, W64) ], []);
      ("STG.E.32 R41, R5 ;", [ (5, W32) ], []);
      ("MUFU.RCP64H R5, R3 ;", [ (3, W32) ], [ (5, W32) ]);
      ("HFMA2 R1, R2, R3, R4 ;", [ (2, W32); (3, W32); (4, W32) ],
       [ (1, W32) ]);
      ("ATOM.ADD.F32 R1, R2, R3 ;", [ (3, W32) ], [ (1, W32) ]);
      ("FSEL R1, R2, R3, P0 ;", [ (2, W32); (3, W32) ], [ (1, W32) ]);
      ("BRA 0x0 ;", [], []);
      ("FADD R0, RZ, R1 ;", [ (1, W32) ], [ (0, W32) ]);
      ("FADD RZ, R1, R2 ;", [ (1, W32); (2, W32) ], []) ]

let test_footprint () =
  List.iter
    (fun (text, reads, writes) ->
      let u = uop_of text in
      Alcotest.check footprint (text ^ " reads") reads (Decode.reads u);
      Alcotest.check footprint (text ^ " writes") writes (Decode.writes u))
    footprint_rows

(* A store's address is not a write: R5 is only ever written by an
   instrumented FADD, even though the first store addresses through it. *)
let test_escape_oracle_addresses () =
  let c =
    Repro.of_file
      (Parse.file
         "FADD R5, R1, R2 ;\nFADD R7, R1, R2 ;\nSTG.E.32 R5, R7 ;\n\
          STG.E.32 R8, R5 ;\nEXIT ;")
  in
  Alcotest.(check bool) "oracle applies" true (Repro.escape_oracle_applies c)

let suite =
  ( "decode",
    [ qcheck_case prop_bare;
      qcheck_case prop_detector;
      qcheck_case prop_reg_flip;
      Alcotest.test_case "poison dormant = inert" `Quick test_poison_dormant;
      Alcotest.test_case "poison armed = same trap" `Quick test_poison_armed;
      Alcotest.test_case "register footprint" `Quick test_footprint;
      Alcotest.test_case "escape oracle ignores store addresses" `Quick
        test_escape_oracle_addresses ]
    @ reg_flip_cases )
