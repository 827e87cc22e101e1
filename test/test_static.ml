(* The static analysis subsystem: CFG construction, the abstract value
   domain checked against the concrete Fp32 semantics, instrumentation
   pruning, the linter's fates, and golden disasm/DOT renderings of the
   standalone example kernels. Also the Flow.chains edge cases the
   dynamic summaries rely on. *)

module Isa = Fpx_sass.Isa
module Op = Fpx_sass.Operand
module Instr = Fpx_sass.Instr
module Program = Fpx_sass.Program
module Parse = Fpx_sass.Parse
module Cfg = Fpx_static.Cfg
module Av = Fpx_static.Absval
module Absint = Fpx_static.Absint
module Prune = Fpx_static.Prune
module Lint = Fpx_static.Lint
module Fp32 = Fpx_num.Fp32
module Kind = Fpx_num.Kind
module Analyzer = Gpu_fpx.Analyzer
module Flow = Gpu_fpx.Flow

let qcheck_case t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

(* --- file plumbing ---------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* dune runtest executes from the test build dir (deps are copied next
   to the executable); a manual `dune exec test/main.exe` from the
   project root sees the source tree instead. *)
let golden_path name =
  let local = Filename.concat "golden" name in
  if Sys.file_exists local then local
  else Filename.concat "test" local

let example_path name =
  let build = Filename.concat "../examples/sass" name in
  if Sys.file_exists build then build
  else Filename.concat "examples/sass" name

(* Set FPX_GOLDEN_REGEN=1 and run `dune exec test/main.exe -- test
   static` from the project root to rewrite the golden files. *)
let check_golden name actual =
  let path = golden_path name in
  if Sys.getenv_opt "FPX_GOLDEN_REGEN" <> None then begin
    let oc = open_out_bin path in
    output_string oc actual;
    close_out oc
  end
  else
    Alcotest.(check string)
      (Printf.sprintf "matches golden %s" name)
      (read_file path) actual

let parse_example name =
  let f = Parse.file (read_file (example_path name)) in
  f.Parse.prog

let cfg prog = Cfg.build (Fpx_sass.Decode.program prog)

let test_golden_disasm () =
  List.iter
    (fun (sass, golden) ->
      check_golden golden (Program.disassemble (parse_example sass)))
    [ ("zero_pivot.sass", "zero_pivot.disasm.txt");
      ("fp64_chain.sass", "fp64_chain.disasm.txt") ]

let test_golden_dot () =
  List.iter
    (fun (sass, golden) ->
      let prog = parse_example sass in
      check_golden golden (Cfg.to_dot (cfg prog)))
    [ ("zero_pivot.sass", "zero_pivot.cfg.dot");
      ("fp64_chain.sass", "fp64_chain.cfg.dot") ]

(* --- CFG structure ---------------------------------------------------- *)

(*   0  FSETP P0, R0, R2
     1  @P0 BRA 0x40        taken -> pc 4, fall -> pc 2
     2  FADD R4, R0, R2
     3  BRA 0x50            unconditional -> pc 5
     4  FMUL R4, R0, R2
     5  STG R6, R4
     6  EXIT *)
let branchy =
  Program.make ~name:"branchy"
    [ Instr.make (Isa.FSETP (Isa.cmp Isa.Lt)) [ Op.pred 0; Op.reg 0; Op.reg 2 ];
      Instr.make ~guard:(Op.pred 0) Isa.BRA [ Op.label 4 ];
      Instr.make Isa.FADD [ Op.reg 4; Op.reg 0; Op.reg 2 ];
      Instr.make Isa.BRA [ Op.label 5 ];
      Instr.make Isa.FMUL [ Op.reg 4; Op.reg 0; Op.reg 2 ];
      Instr.make (Isa.STG Isa.W32) [ Op.reg 6; Op.reg 4 ];
      Instr.make Isa.EXIT [] ]

let test_cfg_blocks () =
  let g = cfg branchy in
  Alcotest.(check int) "4 blocks" 4 (Array.length g.Cfg.blocks);
  let b0 = g.Cfg.blocks.(0) in
  Alcotest.(check (pair int int)) "entry spans 0-1" (0, 1)
    (b0.Cfg.first, b0.Cfg.last);
  (* taken edge first: @P0 BRA targets pc 4 (block 2), falls to pc 2
     (block 1) *)
  Alcotest.(check (list int)) "entry succs, taken first" [ 2; 1 ]
    b0.Cfg.succs;
  let b1 = g.Cfg.blocks.(1) in
  Alcotest.(check (list int)) "unconditional BRA: one succ" [ 3 ]
    b1.Cfg.succs;
  let b3 = g.Cfg.blocks.(3) in
  Alcotest.(check (list int)) "EXIT block: no succs" [] b3.Cfg.succs;
  let preds_of b =
    Array.to_list g.Cfg.blocks
    |> List.filter (fun p -> List.mem b p.Cfg.succs)
    |> List.map (fun p -> p.Cfg.id)
  in
  Alcotest.(check (list int)) "join preds ascending" [ 1; 2 ] (preds_of 3);
  Alcotest.(check int) "block_of_pc follows spans" 2 g.Cfg.block_of_pc.(4);
  Alcotest.(check int) "entry is block 0" 0 (Cfg.entry g).Cfg.id

let test_cfg_rpo () =
  let g = cfg branchy in
  let rpo = Cfg.reverse_postorder g in
  Alcotest.(check int) "rpo covers all blocks" (Array.length g.Cfg.blocks)
    (List.length rpo);
  Alcotest.(check int) "rpo starts at entry" 0 (List.hd rpo);
  (* every block appears exactly once *)
  Alcotest.(check (list int)) "rpo is a permutation" [ 0; 1; 2; 3 ]
    (List.sort compare rpo)

let test_cfg_constant_guard_edges () =
  (* @!PT can never be true: the taken edge must be filtered out *)
  let p =
    Program.make ~name:"deadbranch"
      [ Instr.make ~guard:(Op.pred_not Op.pt) Isa.BRA [ Op.label 2 ];
        Instr.make Isa.FADD [ Op.reg 4; Op.reg 0; Op.reg 2 ];
        Instr.make Isa.EXIT [] ]
  in
  let g = cfg p in
  let b0 = g.Cfg.blocks.(0) in
  Alcotest.(check int) "only the fall-through survives" 1
    (List.length b0.Cfg.succs);
  let fall = List.hd b0.Cfg.succs in
  Alcotest.(check int) "fall-through block starts at pc 1" 1
    g.Cfg.blocks.(fall).Cfg.first

let test_cfg_poisoned_branch () =
  (* BRA R3 traps when taken: no taken edge, and a fall-through only
     when the guard may be false *)
  let entry_succs src =
    let g = cfg (Parse.program src) in
    List.map (fun b -> g.Cfg.blocks.(b).Cfg.first) (Cfg.entry g).Cfg.succs
  in
  Alcotest.(check (list int)) "unguarded: no successors" []
    (entry_succs "BRA R3 ;\nMUFU.RCP R0, R1 ;\nEXIT ;");
  Alcotest.(check (list int)) "guarded: fall-through only" [ 1 ]
    (entry_succs "@P0 BRA R3 ;\nMUFU.RCP R0, R1 ;\nEXIT ;")

let test_cfg_unreachable_block () =
  (* an unguarded BRA jumps over pc 1; the skipped block is unreachable
     and the analysis must mark it so *)
  let p =
    Program.make ~name:"skipped"
      [ Instr.make Isa.BRA [ Op.label 2 ];
        Instr.make (Isa.MUFU Isa.Rcp) [ Op.reg 2; Op.reg 0 ];
        Instr.make Isa.EXIT [] ]
  in
  let a = Absint.analyze p in
  Alcotest.(check bool) "dead MUFU is unreachable" false
    (Absint.fact a 1).Absint.reachable;
  let pr = Prune.analyze p in
  Alcotest.(check int) "one instrumentable site" 1 (Prune.n_sites pr);
  Alcotest.(check bool) "unreachable site is provably clean" true
    (Prune.is_clean pr 1)

(* --- abstract values vs concrete Fp32 --------------------------------- *)

let interesting32 =
  [ Fp32.zero; Fp32.neg_zero; Fp32.one; Fp32.of_float (-1.0);
    Fp32.of_float 3.5; Fp32.of_float (-0.5); Fp32.pos_inf; Fp32.neg_inf;
    Fp32.qnan; Fp32.max_finite; Fp32.min_subnormal; Fp32.min_normal;
    Fp32.of_float 1e20; Fp32.of_float (-1e-20) ]

let gen_bits32 =
  let open QCheck.Gen in
  oneof
    [ oneofl interesting32;
      map Int32.of_int (int_range Int32.(to_int min_int) Int32.(to_int max_int)) ]

let arb_bits_quad =
  QCheck.make
    ~print:(fun (a, b, c, d) ->
      Printf.sprintf "%08lx %08lx %08lx %08lx" a b c d)
    QCheck.Gen.(quad gen_bits32 gen_bits32 gen_bits32 gen_bits32)

(* membership of a concrete bit pattern in an abstract value *)
let contains (av : Av.t) bits =
  let k = Fp32.classify bits in
  Av.may (Av.cls_of_kind k) av.Av.cls
  &&
  match k with
  | Kind.Zero | Kind.Inf | Kind.Nan -> true
  | Kind.Subnormal | Kind.Normal ->
    let m = Float.abs (Fp32.to_float bits) in
    m >= (av.Av.lo *. (1. -. 1e-5))
    && m <= (av.Av.hi *. (1. +. 1e-5))

let soundness_prop name concrete abstract =
  QCheck.Test.make ~count:2000 ~name arb_bits_quad
    (fun (x, x', y, y') ->
      let a = Av.join (Av.of_const32 x) (Av.of_const32 x') in
      let b = Av.join (Av.of_const32 y) (Av.of_const32 y') in
      let r = abstract a b in
      List.for_all
        (fun (cx, cy) -> contains r (concrete cx cy))
        [ (x, y); (x, y'); (x', y); (x', y') ])

let prop_add_sound =
  soundness_prop "abstract add over-approximates Fp32.add" Fp32.add
    (Av.add Av.W32 ~ftz:false)

let prop_mul_sound =
  soundness_prop "abstract mul over-approximates Fp32.mul" Fp32.mul
    (Av.mul Av.W32 ~ftz:false)

let prop_minmax_sound =
  soundness_prop "abstract FMNMX over-approximates Fp32.min_nv" Fp32.min_nv
    (fun a b -> Av.minmax_nv ~ftz:false ~is_min:true a b)

let prop_fma_sound =
  QCheck.Test.make ~count:2000
    ~name:"abstract fma over-approximates Fp32.fma"
    arb_bits_quad
    (fun (x, y, z, z') ->
      let a = Av.of_const32 x and b = Av.of_const32 y in
      let c = Av.join (Av.of_const32 z) (Av.of_const32 z') in
      let r = Av.fma Av.W32 ~ftz:false a b c in
      contains r (Fp32.fma x y z) && contains r (Fp32.fma x y z'))

let prop_join_monotone =
  QCheck.Test.make ~count:2000 ~name:"join is an upper bound"
    arb_bits_quad
    (fun (x, x', _, _) ->
      let a = Av.of_const32 x and b = Av.of_const32 x' in
      let j = Av.join a b in
      contains j x && contains j x'
      && Av.equal (Av.join j j) j)

let test_widen_terminates () =
  (* widening pushes moved bounds to their extreme: re-widening with an
     ever-growing value must reach a fixpoint immediately *)
  let a = Av.of_const32 Fp32.one in
  let b = Av.of_const32 (Fp32.of_float 2.0) in
  let w = Av.widen a (Av.join a b) in
  let w' = Av.widen w (Av.join w (Av.of_const32 (Fp32.of_float 1e30))) in
  Alcotest.(check bool) "second widen is stable" true
    (Av.equal w' (Av.widen w' w'))

(* --- pruning ---------------------------------------------------------- *)

let test_prune_clean_program () =
  (* constant arithmetic on 1.0 and 2.0: both FP sites provably clean *)
  let p =
    Program.make ~name:"constprop"
      [ Instr.make Isa.MOV32I [ Op.reg 0; Op.imm_i (Fp32.to_bits Fp32.one) ];
        Instr.make Isa.MOV32I
          [ Op.reg 2; Op.imm_i (Fp32.to_bits (Fp32.of_float 2.0)) ];
        Instr.make Isa.FADD [ Op.reg 4; Op.reg 0; Op.reg 2 ];
        Instr.make (Isa.MUFU Isa.Rcp) [ Op.reg 6; Op.reg 0 ];
        Instr.make (Isa.STG Isa.W32) [ Op.reg 8; Op.reg 4 ];
        Instr.make Isa.EXIT [] ]
  in
  let pr = Prune.analyze p in
  Alcotest.(check int) "two sites" 2 (Prune.n_sites pr);
  Alcotest.(check int) "both provably clean" 2 (Prune.n_clean pr);
  Alcotest.(check bool) "FADD pruned" true (Prune.is_clean pr 2);
  Alcotest.(check bool) "MUFU.RCP of 1.0 pruned" true (Prune.is_clean pr 3);
  Alcotest.(check bool) "STG is not a site" false (Prune.is_clean pr 4)

let test_prune_zero_pivot () =
  let pr = Prune.analyze (parse_example "zero_pivot.sass") in
  Alcotest.(check int) "two sites" 2 (Prune.n_sites pr);
  Alcotest.(check int) "nothing pruned" 0 (Prune.n_clean pr)

let test_prune_firing_masks () =
  let p =
    Program.make ~name:"masks"
      [ Instr.make (Isa.MUFU Isa.Rcp) [ Op.reg 2; Op.reg 0 ];
        Instr.make Isa.FADD [ Op.reg 4; Op.reg 2; Op.reg 2 ];
        Instr.make Isa.HADD2 [ Op.reg 6; Op.reg 0; Op.reg 0 ];
        Instr.make Isa.MOV [ Op.reg 8; Op.reg 4 ];
        Instr.make Isa.EXIT [] ]
  in
  let pr = Prune.analyze p in
  Alcotest.(check (option int)) "RCP fires on DIV0 classes"
    (Some Av.m_div0) (Prune.firing_mask pr 0);
  Alcotest.(check (option int)) "FADD fires on NaN/Inf/Sub"
    (Some Av.m_exce) (Prune.firing_mask pr 1);
  Alcotest.(check (option int)) "MOV is off-plan" None
    (Prune.firing_mask pr 3);
  (* packed FP16 halves are untracked: never pruned, whatever the data *)
  Alcotest.(check bool) "HADD2 never pruned" false (Prune.is_clean pr 2)

(* --- lint fates -------------------------------------------------------- *)

let find_sass substr (rep : Lint.report) =
  match
    List.find_opt
      (fun (f : Lint.finding) ->
        (* substring match on the rendered instruction *)
        let s = f.Lint.sass and n = String.length substr in
        let rec scan i =
          i + n <= String.length s
          && (String.sub s i n = substr || scan (i + 1))
        in
        scan 0)
      rep.Lint.findings
  with
  | Some f -> f
  | None -> Alcotest.failf "no finding mentions %s" substr

let test_lint_zero_pivot () =
  let rep = Lint.lint (parse_example "zero_pivot.sass") in
  Alcotest.(check int) "two sites" 2 rep.Lint.n_sites;
  Alcotest.(check int) "nothing clean" 0 rep.Lint.n_clean;
  let rcp = find_sass "MUFU.RCP" rep in
  Alcotest.(check bool) "RCP flagged as DIV0" true rcp.Lint.div0;
  Alcotest.(check bool) "destination may be Inf or NaN" true
    (Av.may Av.m_div0 rcp.Lint.kinds);
  Alcotest.(check string) "reciprocal survives to the store"
    (Flow.fate_to_string Flow.Surviving)
    (Lint.fate_to_string rcp.Lint.fate)

let test_lint_killed () =
  (* a subnormal product that is consumed and never escapes *)
  let p =
    Program.make ~name:"absorbed"
      [ Instr.make Isa.DMUL
          [ Op.reg 2; Op.imm_f64 1e-200; Op.imm_f64 1e-120 ];
        Instr.make Isa.DADD [ Op.reg 4; Op.reg 2; Op.reg 2 ];
        Instr.make Isa.EXIT [] ]
  in
  let rep = Lint.lint p in
  let f = find_sass "DMUL" rep in
  Alcotest.(check string) "taint dies in arithmetic"
    (Flow.fate_to_string Flow.Killed)
    (Lint.fate_to_string f.Lint.fate)

let test_lint_guarded () =
  (* a reciprocal of unknown data whose only consumer is a compare *)
  let p =
    Program.make ~name:"guarded"
      [ Instr.make (Isa.LDG Isa.W32) [ Op.reg 0; Op.reg 8 ];
        Instr.make (Isa.MUFU Isa.Rcp) [ Op.reg 2; Op.reg 0 ];
        Instr.make (Isa.FSETP (Isa.cmp Isa.Lt))
          [ Op.pred 0; Op.reg 2; Op.reg 4 ];
        Instr.make Isa.EXIT [] ]
  in
  let rep = Lint.lint p in
  let f = find_sass "MUFU.RCP" rep in
  Alcotest.(check string) "taint ends at the guard"
    (Flow.fate_to_string Flow.Guarded)
    (Lint.fate_to_string f.Lint.fate);
  Alcotest.(check (option int)) "sink is the FSETP" (Some 2) f.Lint.sink_pc

let test_lint_lines () =
  let rep = Lint.lint (parse_example "zero_pivot.sass") in
  let text = String.concat "\n" (Lint.to_lines rep) in
  let has s =
    let n = String.length s in
    let rec scan i =
      i + n <= String.length text
      && (String.sub text i n = s || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "names the kernel" true (has "standalone_trsv");
  Alcotest.(check bool) "reports DIV0" true (has "DIV0");
  Alcotest.(check bool) "uses the flow vocabulary" true
    (has (Flow.fate_to_string Flow.Surviving));
  (* malformed kernels get a report too: a missing source reads as ⊤, a
     predicate past P7 is not written *)
  List.iter
    (fun (src, header) ->
      match Lint.to_lines (Lint.lint (Parse.program src)) with
      | first :: _ -> Alcotest.(check string) src header first
      | [] -> Alcotest.fail (src ^ ": empty report"))
    [ ( "FADD R0, R1 ;\nEXIT ;",
        "kernel [parsed_kernel]: 1 instrumentable sites, 0 provably clean, \
         1 flagged" );
      ( "FSETP.GT.AND P9, R1, R2 ;\nEXIT ;",
        "kernel [parsed_kernel]: 0 instrumentable sites, 0 provably clean, \
         0 flagged" );
      (* a BRA with no target, or a register target, traps when taken:
         the code after an unguarded one is unreachable *)
      ( "BRA ;\nEXIT ;",
        "kernel [parsed_kernel]: 0 instrumentable sites, 0 provably clean, \
         0 flagged" );
      ( "BRA R3 ;\nMUFU.RCP R0, R1 ;\nEXIT ;",
        "kernel [parsed_kernel]: 1 instrumentable sites, 1 provably clean, \
         0 flagged" ) ];
  (* a finding's format is its check's, as the detector reports it: the
     narrowing F2F.F16.F32 gets the packed FP16 check *)
  match Lint.lint (Parse.program "F2F.F16.F32 R0, R1 ;\nEXIT ;") with
  | { Lint.findings = [ f ]; _ } ->
    Alcotest.(check string) "F2F.F16.F32 is an FP16 site" "FP16"
      (Isa.fp_format_to_string f.Lint.fmt)
  | _ -> Alcotest.fail "F2F.F16.F32: expected one finding"

(* Every kernel of the 151 catalog programs, compiled precise and
   fast-math, linted and rendered: one MD5 over the whole text. The
   header lines carry n_sites/n_clean, so this also pins every Prune
   verdict count. A refactor of the analysis must keep the digest; only
   an intended report change may move it. *)
let test_lint_catalog_pin () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun mode ->
      List.iter
        (fun (w : Fpx_workloads.Workload.t) ->
          List.iter
            (fun k ->
              let prog = Fpx_klang.Compile.compile ~mode k in
              List.iter
                (fun l ->
                  Buffer.add_string buf l;
                  Buffer.add_char buf '\n')
                (Lint.to_lines (Lint.lint prog)))
            w.Fpx_workloads.Workload.kernels)
        Fpx_workloads.Catalog.evaluated)
    [ Fpx_klang.Mode.precise; Fpx_klang.Mode.fast_math ];
  Alcotest.(check string)
    "catalog lint digest" "94e114ef52d14c85e8f0d51dd0ec1e27"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* --- Flow.chains edge cases ------------------------------------------- *)

let rep ?(before = [ Kind.Nan; Kind.Normal ]) ?(after = [ Kind.Nan ]) state
    kernel =
  { Analyzer.state; kernel; loc = "f.cu:1"; sass = "FADD R0, R1, R2 ;";
    before; after; compile_time = None }

let test_chains_empty () =
  Alcotest.(check int) "no chains from no reports" 0
    (List.length (Flow.chains []));
  Alcotest.(check string) "summary says so" "no exception flows observed\n"
    (Flow.summarise [])

let test_chains_interleaved () =
  (* two kernels' reports interleave chronologically; each must fold
     into its own chain *)
  let stream =
    [ rep Analyzer.Appearance "ka";
      rep Analyzer.Appearance "kb";
      rep Analyzer.Propagation "ka";
      rep Analyzer.Disappearance ~after:[ Kind.Normal ] "kb";
      rep Analyzer.Disappearance ~after:[ Kind.Normal ] "ka" ]
  in
  match Flow.chains stream with
  | [ c1; c2 ] ->
    (* kb closes first (its Disappearance arrives before ka's) *)
    Alcotest.(check string) "first closed chain is kb" "kb"
      c1.Flow.origin.Analyzer.kernel;
    Alcotest.(check int) "kb chain: one hop" 1 (List.length c1.Flow.hops);
    Alcotest.(check string) "second chain is ka" "ka"
      c2.Flow.origin.Analyzer.kernel;
    Alcotest.(check int) "ka chain: two hops" 2 (List.length c2.Flow.hops);
    List.iter
      (fun c ->
        Alcotest.(check string) "both die"
          (Flow.fate_to_string Flow.Killed)
          (Flow.fate_to_string c.Flow.fate))
      [ c1; c2 ]
  | cs -> Alcotest.failf "expected 2 chains, got %d" (List.length cs)

let test_chains_guarded_then_reappears () =
  (* a chain deselected by a clean comparison must close as Guarded, and
     a later Appearance in the same kernel opens a fresh chain rather
     than extending the dead one *)
  let stream =
    [ rep Analyzer.Appearance "k";
      rep Analyzer.Comparison ~after:[ Kind.Normal; Kind.Nan ] "k";
      rep Analyzer.Appearance "k";
      rep Analyzer.Propagation "k" ]
  in
  match Flow.chains stream with
  | [ c1; c2 ] ->
    Alcotest.(check string) "first chain guarded"
      (Flow.fate_to_string Flow.Guarded)
      (Flow.fate_to_string c1.Flow.fate);
    Alcotest.(check int) "guard is the only hop" 1 (List.length c1.Flow.hops);
    Alcotest.(check string) "reappearance survives"
      (Flow.fate_to_string Flow.Surviving)
      (Flow.fate_to_string c2.Flow.fate);
    Alcotest.(check int) "second chain carries the propagation" 1
      (List.length c2.Flow.hops)
  | cs -> Alcotest.failf "expected 2 chains, got %d" (List.length cs)

(* --- GENERIC tokens ------------------------------------------------------ *)

(* Every token Parse turns into a Generic operand means one value to
   Decode (whose micro-ops both the executor and the abstract
   interpreter run) and to the analyzer's JIT-time check, and survives
   the float_token / generic_value round trip. FSEL reads it as FP32,
   F2F.F32.F64 as FP64. *)
let test_generic_tokens () =
  let module D = Fpx_sass.Decode in
  let bits = Int64.bits_of_float in
  List.iter
    (fun tok ->
      let v = Option.get (Op.generic_value tok) in
      let f32 = Fp32.of_float v in
      Alcotest.(check int64) (tok ^ ": token round trip") (bits v)
        (bits (Option.get (Op.generic_value (Op.float_token v))));
      let prog =
        Parse.program
          (Printf.sprintf "FSEL R0, %s, RZ, PT ;\nF2F.F32.F64 R1, %s ;" tok tok)
      in
      let kind = if Float.is_nan v then Fpx_tool.Exce.Nan else Fpx_tool.Exce.Inf in
      let a = Absint.analyze prog in
      List.iter
        (fun pc ->
          let i = Program.instr prog pc in
          (* "-INF" parses as a negated "INF" *)
          let o = Instr.get_operand i 1 in
          let parsed =
            match o.Op.base with
            | Op.Generic s ->
              Option.map
                (fun x -> bits (if o.Op.neg then Float.neg x else x))
                (Op.generic_value s)
            | _ -> None
          in
          Alcotest.(check (option int64)) (tok ^ ": parsed Generic value")
            (Some (bits v)) parsed;
          Alcotest.(check bool) (tok ^ ": analyzer class") true
            (Analyzer.compile_e_type i = Some kind);
          Alcotest.(check (option int32)) (tok ^ ": absint constant") (Some f32)
            (Absint.fact a pc).Absint.dest32.Av.const32)
        [ 0; 1 ];
      let d = D.program prog in
      (match d.D.entries.(0).D.uop with
      | D.U_fsel { a = D.F32_imm b; _ } ->
        Alcotest.(check int32) (tok ^ ": decoded FP32 bits") f32 (Int32.of_int b)
      | _ -> Alcotest.fail (tok ^ ": FSEL source did not decode to an immediate"));
      match d.D.entries.(1).D.uop with
      | D.U_f32_of_f64 { a = D.F64_imm x; _ } ->
        Alcotest.(check int64) (tok ^ ": decoded FP64 bits") (bits v) (bits x)
      | _ -> Alcotest.fail (tok ^ ": F2F source did not decode to an immediate"))
    [ "+INF"; "INF"; "-INF"; "+QNAN"; "QNAN"; "-QNAN" ]

let suite =
  ( "static",
    [ Alcotest.test_case "golden disasm" `Quick test_golden_disasm;
      Alcotest.test_case "golden cfg dot" `Quick test_golden_dot;
      Alcotest.test_case "cfg blocks and edges" `Quick test_cfg_blocks;
      Alcotest.test_case "cfg reverse postorder" `Quick test_cfg_rpo;
      Alcotest.test_case "cfg constant guard edges" `Quick
        test_cfg_constant_guard_edges;
      Alcotest.test_case "cfg poisoned branch" `Quick test_cfg_poisoned_branch;
      Alcotest.test_case "cfg unreachable block" `Quick
        test_cfg_unreachable_block;
      qcheck_case prop_add_sound;
      qcheck_case prop_mul_sound;
      qcheck_case prop_minmax_sound;
      qcheck_case prop_fma_sound;
      qcheck_case prop_join_monotone;
      Alcotest.test_case "widening stabilises" `Quick test_widen_terminates;
      Alcotest.test_case "generic tokens agree across layers" `Quick
        test_generic_tokens;
      Alcotest.test_case "prune: constant program" `Quick
        test_prune_clean_program;
      Alcotest.test_case "prune: zero pivot keeps its sites" `Quick
        test_prune_zero_pivot;
      Alcotest.test_case "prune: firing masks" `Quick test_prune_firing_masks;
      Alcotest.test_case "lint: zero pivot" `Quick test_lint_zero_pivot;
      Alcotest.test_case "lint: killed fate" `Quick test_lint_killed;
      Alcotest.test_case "lint: guarded fate" `Quick test_lint_guarded;
      Alcotest.test_case "lint: rendering" `Quick test_lint_lines;
      Alcotest.test_case "flow chains: empty stream" `Quick test_chains_empty;
      Alcotest.test_case "flow chains: interleaved kernels" `Quick
        test_chains_interleaved;
      Alcotest.test_case "flow chains: guarded then reappears" `Quick
        test_chains_guarded_then_reappears;
      Alcotest.test_case "lint: catalog byte pin" `Quick
        test_lint_catalog_pin ] )
