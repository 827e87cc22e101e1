(* Cross-cutting properties: opcode classification consistency, random
   instruction parse round-trips, packed-FP16 lane independence, and
   renderer sanity. *)

module Isa = Fpx_sass.Isa
module Op = Fpx_sass.Operand
module Instr = Fpx_sass.Instr
module Parse = Fpx_sass.Parse
module Fp16 = Fpx_num.Fp16

(* deterministic property tests: fixed QCheck seed *)
let qcheck_case t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t


let arb_opcode = Gen_qcheck.arb_opcode

let prop_format_consistency =
  QCheck.Test.make ~count:500
    ~name:"fp_format_of_opcode agrees with the compute classes" arb_opcode
    (fun op ->
      (match Isa.fp_format_of_opcode op with
      | Some Isa.FP64 ->
        Isa.is_fp64_compute op || Isa.is_control_flow op
      | Some Isa.FP16 -> Isa.is_fp16_compute op
      | Some Isa.FP32 ->
        Isa.is_fp32_compute op || Isa.is_control_flow op
      | None ->
        (not (Isa.is_fp32_compute op))
        && (not (Isa.is_fp64_compute op))
        && not (Isa.is_fp16_compute op)))

let prop_instrumentable_has_format =
  QCheck.Test.make ~count:500 ~name:"instrumentable opcodes carry a format"
    arb_opcode (fun op ->
      if Isa.is_fp_instrumentable op then
        Isa.fp_format_of_opcode op <> None
      else true)

let prop_mnemonic_parses_back =
  QCheck.Test.make ~count:500 ~name:"mnemonics survive a parse round-trip"
    arb_opcode (fun op ->
      (* rebuild a syntactically valid instruction for the opcode *)
      let operands =
        match op with
        | Isa.EXIT | Isa.NOP | Isa.BAR -> []
        | Isa.BRA -> [ Op.label 0 ]
        | Isa.ATOM_ADD _ -> [ Op.reg 0; Op.reg 2; Op.reg 4 ]
        | Isa.FFMA | Isa.FFMA32I | Isa.DFMA | Isa.HFMA2 | Isa.IMAD ->
          [ Op.reg 0; Op.reg 2; Op.reg 4; Op.reg 6 ]
        | Isa.FSEL | Isa.SEL | Isa.FMNMX ->
          [ Op.reg 0; Op.reg 2; Op.reg 4; Op.pred 1 ]
        | Isa.FSETP _ | Isa.DSETP _ | Isa.ISETP _ | Isa.FCHK ->
          [ Op.pred 0; Op.reg 2; Op.reg 4 ]
        | Isa.PSETP _ -> [ Op.pred 0; Op.pred 1; Op.pred 2 ]
        | Isa.MUFU _ | Isa.MOV | Isa.MOV32I | Isa.S2R _
        | Isa.F2F _ | Isa.I2F _ | Isa.F2I _ | Isa.LDG _ | Isa.LDS _
        | Isa.STS _ ->
          [ Op.reg 0; Op.reg 2 ]
        | _ -> [ Op.reg 0; Op.reg 2; Op.reg 4 ]
      in
      let i = Instr.make op operands in
      let parsed = Parse.instruction (Instr.sass_string i) in
      parsed.Instr.op = op
      && Instr.sass_string parsed = Instr.sass_string i)

let prop_fp16_lanes_independent =
  QCheck.Test.make ~count:500 ~name:"packed fp16 lanes do not interact"
    QCheck.(pair (pair (int_bound 0x7bff) (int_bound 0x7bff))
              (pair (int_bound 0x7bff) (int_bound 0x7bff)))
    (fun ((alo, ahi), (blo, bhi)) ->
      let a = Fp16.pack2 ~lo:alo ~hi:ahi and b = Fp16.pack2 ~lo:blo ~hi:bhi in
      let rlo, rhi = Fp16.unpack2 (Fp16.mul2 a b) in
      rlo = Fp16.mul alo blo && rhi = Fp16.mul ahi bhi)

let prop_fp16_classify_matches_value =
  QCheck.Test.make ~count:1000 ~name:"fp16 classify matches value range"
    QCheck.(int_bound 0xffff)
    (fun h ->
      let v = Fp16.to_float h in
      let k = Fp16.classify h in
      if Float.is_nan v then k = Fpx_num.Kind.Nan
      else if Float.abs v = Float.infinity then k = Fpx_num.Kind.Inf
      else if v = 0.0 then k = Fpx_num.Kind.Zero
      else if Float.abs v < Fp16.to_float Fp16.min_normal then
        k = Fpx_num.Kind.Subnormal
      else k = Fpx_num.Kind.Normal)

(* --- whole-program round-trip: Parse of Program.disassemble must
   rebuild an equivalent program, for any operand modifier nesting the
   renderer can produce ------------------------------------------------- *)

let gen_rt_program =
  let open QCheck.Gen in
  let reg = map (fun n -> 2 * n) (int_bound 7) in
  let fp32_src =
    let* r = reg in
    oneofl
      [ Op.reg r; Op.reg_neg r; Op.reg_abs r;
        { (Op.reg_abs r) with Op.neg = true };
        Op.cbank ~bank:0 ~offset:(0x160 + (4 * r)) ]
  in
  let pred_src =
    let* p = int_bound 6 in
    oneofl
      [ Op.pred p; Op.pred_not p;
        (* the renderer nests pred_not outside neg: "!-P0" *)
        { (Op.pred_not p) with Op.neg = true } ]
  in
  let guard =
    let* p = int_bound 6 in
    oneofl [ None; Some (Op.pred p); Some (Op.pred_not p) ]
  in
  let body_instr n_later =
    let* g = guard in
    let* d = reg in
    let* a = fp32_src in
    let* b = fp32_src in
    let* ps = pred_src in
    let* lbl = int_bound (max 0 (n_later - 1)) in
    oneofl
      [ Instr.make ?guard:g Isa.FADD [ Op.reg d; a; b ];
        Instr.make ?guard:g Isa.FFMA [ Op.reg d; a; b; Op.reg d ];
        Instr.make ?guard:g (Isa.MUFU Isa.Rcp) [ Op.reg d; a ];
        Instr.make ?guard:g Isa.DADD
          [ Op.reg d; Op.reg ((d + 8) land 14); Op.imm_f64 1.5 ];
        Instr.make ?guard:g Isa.FMNMX [ Op.reg d; a; b; ps ];
        Instr.make ?guard:g (Isa.FSETP (Isa.cmp Isa.Lt))
          [ Op.pred 0; a; b ];
        Instr.make ?guard:g (Isa.PSETP Isa.Pand) [ Op.pred 1; ps; ps ];
        Instr.make ?guard:g Isa.MOV32I [ Op.reg d; Op.imm_i 0x41l ];
        Instr.make ?guard:g (Isa.LDG Isa.W32) [ Op.reg d; Op.reg 8 ];
        Instr.make ?guard:g (Isa.STG Isa.W32) [ Op.reg 8; a ];
        Instr.make ?guard:g Isa.BRA [ Op.label lbl ];
        Instr.make Isa.NOP [] ]
  in
  let* n = int_range 1 10 in
  let* body = flatten_l (List.init n (fun _ -> body_instr n)) in
  return (Fpx_sass.Program.make ~name:"rt" body)

let arb_rt_program =
  QCheck.make ~print:Fpx_sass.Program.disassemble gen_rt_program

let prop_program_round_trip =
  QCheck.Test.make ~count:300
    ~name:"programs survive a disassemble/parse round-trip" arb_rt_program
    (fun p ->
      let text = Fpx_sass.Program.disassemble p in
      let p' = Parse.program ~name:"rt" text in
      Fpx_sass.Program.disassemble p' = text
      && Fpx_sass.Program.length p' = Fpx_sass.Program.length p)

let test_pred_not_neg_round_trip () =
  (* regression: "!-P1" — the renderer nests pred_not outside neg, so
     the parser must strip the modifiers outermost-first *)
  let i =
    Instr.make (Isa.PSETP Isa.Pand)
      [ Op.pred 0; { (Op.pred_not 1) with Op.neg = true }; Op.pred 2 ]
  in
  let parsed = Parse.instruction (Instr.sass_string i) in
  Alcotest.(check string) "round-trips" (Instr.sass_string i)
    (Instr.sass_string parsed)

(* --- parser robustness: run-sass consumes untrusted text files, so
   Parse may reject input only through its typed Parse_error ------------ *)

let token_soup =
  [ "FADD"; "MUFU.RCP"; "R0"; "R255"; "RZ"; "PT"; "!P7"; "-R3"; "|R4|";
    "c[0x0][0x160]"; "0x30"; ";"; ","; "@P0"; "@!P1"; "/*0010*/"; "3.5";
    "-1e38"; "+QNAN"; "+INF"; ".kernel"; ".launch"; ".param"; "ptr"; "f32";
    "i32"; "BRA"; "EXIT"; "garbage"; "STG.E.32"; "[R2]"; "2 32"; "//x";
    "FFMA"; ""; "\t"; "DADD" ]

let gen_fuzz_text =
  let open QCheck.Gen in
  let line =
    map (String.concat " ") (list_size (int_bound 8) (oneofl token_soup))
  in
  map (String.concat "\n") (list_size (int_bound 12) line)

(* Mutations of a valid listing: drop, duplicate or garble one line. *)
let valid_listing =
  let p =
    Fpx_sass.Program.make ~name:"victim"
      [ Instr.make Isa.MOV32I [ Op.reg 0; Op.imm_i 7l ];
        Instr.make Isa.FADD [ Op.reg 1; Op.reg 0; Op.reg 0 ];
        Instr.make (Isa.MUFU Isa.Rcp) [ Op.reg 2; Op.reg 1 ];
        Instr.make Isa.BRA [ Op.label 4 ];
        Instr.make (Isa.STG Isa.W32) [ Op.reg 4; Op.reg 2 ] ]
  in
  Fpx_sass.Program.disassemble p

let gen_mutated =
  let open QCheck.Gen in
  let lines = String.split_on_char '\n' valid_listing in
  let n = List.length lines in
  let* i = int_bound (n - 1) in
  let* mutation = int_bound 2 in
  let* junk = oneofl token_soup in
  let mutated =
    List.concat
      (List.mapi
         (fun j l ->
           if j <> i then [ l ]
           else
             match mutation with
             | 0 -> [] (* drop *)
             | 1 -> [ l; l ] (* duplicate *)
             | _ -> [ l ^ " " ^ junk ] (* garble *))
         lines)
  in
  return (String.concat "\n" mutated)

let parses_or_rejects_cleanly txt =
  match Parse.program ~name:"fuzz" txt with
  | (_ : Fpx_sass.Program.t) -> true
  | exception Parse.Parse_error _ -> true

let prop_parser_total_on_soup =
  QCheck.Test.make ~count:300 ~name:"parser rejects token soup cleanly"
    (QCheck.make ~print:(fun s -> s) gen_fuzz_text)
    parses_or_rejects_cleanly

let prop_parser_total_on_mutations =
  QCheck.Test.make ~count:300
    ~name:"parser survives mutations of valid listings"
    (QCheck.make ~print:(fun s -> s) gen_mutated)
    parses_or_rejects_cleanly

let test_ascii_table_alignment () =
  let t =
    Fpx_harness.Ascii.table ~header:[ "a"; "bb" ]
      [ [ "ccc"; "d" ]; [ "e"; "ffff" ] ]
  in
  let lines = String.split_on_char '\n' t |> List.filter (( <> ) "") in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  (* all rows share the same width *)
  match lines with
  | first :: rest ->
    List.iter
      (fun l ->
        Alcotest.(check bool) "aligned" true
          (String.length l <= String.length first + 2))
      rest
  | [] -> Alcotest.fail "empty table"

let test_ascii_scatter_bounds () =
  let s =
    Fpx_harness.Ascii.scatter ~title:"t" ~xlabel:"x" ~ylabel:"y"
      [ (1.0, 1.0); (100.0, 10.0); (2.0, 2000.0) ]
  in
  Alcotest.(check bool) "non-empty" true (String.length s > 100);
  Alcotest.(check bool) "has points" true (String.contains s 'o')

let test_ascii_histogram () =
  let h =
    Fpx_harness.Ascii.histogram ~title:"t" ~labels:[ "a"; "b" ]
      [ ("s1", [ 3; 0 ]); ("s2", [ 1; 2 ]) ]
  in
  Alcotest.(check bool) "bars drawn" true (String.contains h '#')

let suite =
  ( "props",
    [ qcheck_case prop_format_consistency;
      qcheck_case prop_instrumentable_has_format;
      qcheck_case prop_mnemonic_parses_back;
      qcheck_case prop_program_round_trip;
      Alcotest.test_case "!-P round-trip" `Quick
        test_pred_not_neg_round_trip;
      qcheck_case prop_fp16_lanes_independent;
      qcheck_case prop_fp16_classify_matches_value;
      qcheck_case prop_parser_total_on_soup;
      qcheck_case prop_parser_total_on_mutations;
      Alcotest.test_case "ascii table alignment" `Quick
        test_ascii_table_alignment;
      Alcotest.test_case "ascii scatter" `Quick test_ascii_scatter_bounds;
      Alcotest.test_case "ascii histogram" `Quick test_ascii_histogram ] )
