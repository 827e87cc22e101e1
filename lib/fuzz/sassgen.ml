module Isa = Fpx_sass.Isa
module Op = Fpx_sass.Operand
module Instr = Fpx_sass.Instr
module Program = Fpx_sass.Program
module Parse = Fpx_sass.Parse
module Prng = Fpx_fault.Fault.Prng

(* Constant pools straddle every hazard boundary: overflow (FADD of two
   near-max values), underflow (products of tiny normals), division and
   log of zero, and invalid (0 * INF reached transitively). *)
let f32_hazards =
  [| 0.0; -0.0; 1.0; -1.0; 0.5; 2.0; 3.0e38; -3.0e38; 1.5e-39; 1.0e-45;
     65504.0; 1.0e20; -6.0e-39; 255.0 |]

let f64_hazards =
  [| 0.0; 1.0; -1.0; 0.5; 1.0e308; -1.0e308; 5.0e-324; 2.2e-308;
     1.0e-300; 3.0; -2.0 |]

(* Packed half pairs (hi:lo): 65504 is FP16 max, 0x0400 the smallest
   normal, 0x0001 a subnormal, 0xFBFF = -65504. *)
let half_pool =
  [| 0x3C00_3C00l; 0x7BFF_0400l; 0x0001_3C00l; 0xFBFF_3C00l; 0l |]

let int_pool = [| 0l; 1l; 2l; -1l; 7l; 1000l; 0x7FFFFFFFl |]

(* Register map. Keeping roles in fixed ranges means deleted
   instructions never orphan an address computation: the prologue always
   establishes tid and both element addresses.

     R0..R7    FP32 scratch
     R16/18/20 FP64 pairs (hi words 17/19/21)
     R40       tid.x     R41 tid*4+out   R42 tid*8+out
     R43/R44   integer scratch *)
let n_f32_scratch = 8
let pairs = [| 16; 18; 20 |]
let r_tid = 40
let r_addr4 = 41
let r_addr8 = 42
let int_scratch = [| 43; 44 |]

let f32_dst p = Op.reg (Prng.int p n_f32_scratch)

(* Modifiers only on register sources: a negated immediate would render
   as "-0.5" and parse back as a plain negative immediate, breaking the
   render/parse fixpoint the corpus depends on. *)
let f32_reg p =
  let o = Op.reg (Prng.int p n_f32_scratch) in
  let o = if Prng.bool p 0.15 then { o with Op.neg = true } else o in
  if Prng.bool p 0.1 then { o with Op.abs = true } else o

let f32_src p =
  match Prng.int p 8 with
  | 0 | 1 | 2 | 3 | 4 -> f32_reg p
  | 5 | 6 -> Op.imm_f64 (Prng.pick p f32_hazards)
  | _ -> Op.cbank ~bank:0 ~offset:0x164

let pair_dst p = Op.reg (Prng.pick p pairs)

let f64_reg p =
  let o = Op.reg (Prng.pick p pairs) in
  if Prng.bool p 0.15 then { o with Op.neg = true } else o

let f64_src p =
  match Prng.int p 4 with
  | 0 | 1 | 2 -> f64_reg p
  | _ -> Op.imm_f64 (Prng.pick p f64_hazards)

let int_dst p = Op.reg (Prng.pick p int_scratch)

let int_src p =
  match Prng.int p 4 with
  | 0 -> Op.reg r_tid
  | 1 | 2 -> Op.reg (Prng.pick p int_scratch)
  | _ -> Op.imm_i (Prng.pick p int_pool)

let pred_dst p = Op.pred (Prng.int p 3)

let pred_src p =
  if Prng.bool p 0.25 then Op.pred Op.pt
  else
    let o = Op.pred (Prng.int p 3) in
    if Prng.bool p 0.35 then { o with Op.pred_not = true } else o

let half_src p =
  if Prng.bool p 0.3 then Op.imm_i (Prng.pick p half_pool)
  else Op.reg (Prng.int p n_f32_scratch)

let gen_cmp p =
  let c =
    Prng.pick p [| Isa.Lt; Isa.Le; Isa.Gt; Isa.Ge; Isa.Eq; Isa.Ne |]
  in
  if Prng.bool p 0.3 then Isa.cmp_u c else Isa.cmp c

(* Weighted opcode table. Draw order within a builder is made explicit
   with lets so a case is a deterministic function of its stream. *)
let table : (int * (Prng.t -> Instr.t)) list =
  [
    ( 6,
      fun p ->
        let op = if Prng.bool p 0.5 then Isa.FADD else Isa.FMUL in
        let d = f32_dst p in
        let a = f32_src p in
        let b = f32_src p in
        Instr.make op [ d; a; b ] );
    ( 3,
      fun p ->
        let d = f32_dst p in
        let a = f32_src p in
        let b = f32_src p in
        let c = f32_src p in
        Instr.make Isa.FFMA [ d; a; b; c ] );
    ( 2,
      fun p ->
        let op = if Prng.bool p 0.5 then Isa.FADD32I else Isa.FMUL32I in
        let d = f32_dst p in
        let a = f32_reg p in
        let k = Op.imm_f64 (Prng.pick p f32_hazards) in
        Instr.make op [ d; a; k ] );
    ( 1,
      fun p ->
        let d = f32_dst p in
        let a = f32_reg p in
        let k = Op.imm_f64 (Prng.pick p f32_hazards) in
        let c = f32_reg p in
        Instr.make Isa.FFMA32I [ d; a; k; c ] );
    ( 3,
      fun p ->
        let m =
          Prng.pick p
            [| Isa.Rcp; Isa.Rsq; Isa.Sqrt; Isa.Ex2; Isa.Lg2; Isa.Sin;
               Isa.Cos |]
        in
        let d = f32_dst p in
        let a = f32_src p in
        Instr.make (Isa.MUFU m) [ d; a ] );
    ( 1,
      fun p ->
        let m = if Prng.bool p 0.5 then Isa.Rcp64h else Isa.Rsq64h in
        let d = Prng.pick p pairs + 1 in
        let s = Prng.pick p pairs + 1 in
        Instr.make (Isa.MUFU m) [ Op.reg d; Op.reg s ] );
    ( 4,
      fun p ->
        let op = if Prng.bool p 0.5 then Isa.DADD else Isa.DMUL in
        let d = pair_dst p in
        let a = f64_src p in
        let b = f64_src p in
        Instr.make op [ d; a; b ] );
    ( 2,
      fun p ->
        let d = pair_dst p in
        let a = f64_src p in
        let b = f64_src p in
        let c = f64_src p in
        Instr.make Isa.DFMA [ d; a; b; c ] );
    ( 2,
      fun p ->
        let op = if Prng.bool p 0.5 then Isa.HADD2 else Isa.HMUL2 in
        let d = f32_dst p in
        let a = half_src p in
        let b = half_src p in
        Instr.make op [ d; a; b ] );
    ( 1,
      fun p ->
        let d = f32_dst p in
        let a = half_src p in
        let b = half_src p in
        let c = half_src p in
        Instr.make Isa.HFMA2 [ d; a; b; c ] );
    ( 2,
      fun p ->
        let d = f32_dst p in
        let a = f32_reg p in
        let b = f32_src p in
        let q = pred_src p in
        Instr.make Isa.FSEL [ d; a; b; q ] );
    ( 2,
      fun p ->
        let d = f32_dst p in
        let a = f32_src p in
        let b = f32_src p in
        let q = pred_src p in
        Instr.make Isa.FMNMX [ d; a; b; q ] );
    ( 2,
      fun p ->
        let c = gen_cmp p in
        let d = f32_dst p in
        let a = f32_src p in
        let b = f32_src p in
        Instr.make (Isa.FSET c) [ d; a; b ] );
    ( 2,
      fun p ->
        let c = gen_cmp p in
        let d = pred_dst p in
        let a = f32_src p in
        let b = f32_src p in
        Instr.make (Isa.FSETP c) [ d; a; b ] );
    ( 2,
      fun p ->
        let c = gen_cmp p in
        let d = pred_dst p in
        let a = f64_src p in
        let b = f64_src p in
        Instr.make (Isa.DSETP c) [ d; a; b ] );
    ( 1,
      fun p ->
        let c = gen_cmp p in
        let d = pred_dst p in
        let a = int_src p in
        let b = int_src p in
        Instr.make (Isa.ISETP c) [ d; a; b ] );
    ( 1,
      fun p ->
        let b = Prng.pick p [| Isa.Pand; Isa.Por; Isa.Pxor |] in
        let d = pred_dst p in
        let x = pred_src p in
        let y = pred_src p in
        Instr.make (Isa.PSETP b) [ d; x; y ] );
    ( 1,
      fun p ->
        let d = pred_dst p in
        let a = f32_src p in
        let b = f32_src p in
        Instr.make Isa.FCHK [ d; a; b ] );
    ( 2,
      fun p ->
        (match Prng.int p 5 with
        | 0 ->
          let d = f32_dst p in
          let s = f64_reg p in
          Instr.make (Isa.F2F (Isa.FP32, Isa.FP64)) [ d; s ]
        | 1 ->
          let d = pair_dst p in
          let s = f32_reg p in
          Instr.make (Isa.F2F (Isa.FP64, Isa.FP32)) [ d; s ]
        | 2 ->
          let d = f32_dst p in
          let s = f32_src p in
          Instr.make (Isa.F2F (Isa.FP32, Isa.FP32)) [ d; s ]
        | 3 ->
          let d = f32_dst p in
          let s = f32_reg p in
          Instr.make (Isa.F2F (Isa.FP16, Isa.FP32)) [ d; s ]
        | _ ->
          let d = f32_dst p in
          let s = f32_reg p in
          Instr.make (Isa.F2F (Isa.FP32, Isa.FP16)) [ d; s ]) );
    ( 1,
      fun p ->
        if Prng.bool p 0.5 then
          let d = f32_dst p in
          let s = int_src p in
          Instr.make (Isa.I2F Isa.FP32) [ d; s ]
        else
          let d = pair_dst p in
          let s = int_src p in
          Instr.make (Isa.I2F Isa.FP64) [ d; s ] );
    ( 1,
      fun p ->
        (* F2I of a NaN writes the indefinite-integer pattern; the
           destination stays in integer scratch so the escape oracle's
           provenance check is not tripped by design. *)
        if Prng.bool p 0.5 then
          let d = int_dst p in
          let s = f32_reg p in
          Instr.make (Isa.F2I Isa.FP32) [ d; s ]
        else
          let d = int_dst p in
          let s = f64_reg p in
          Instr.make (Isa.F2I Isa.FP64) [ d; s ] );
    ( 2,
      fun p ->
        if Prng.bool p 0.7 then
          let d = f32_dst p in
          Instr.make (Isa.LDG Isa.W32) [ d; Op.reg r_addr4 ]
        else
          let d = pair_dst p in
          Instr.make (Isa.LDG Isa.W64) [ d; Op.reg r_addr8 ] );
    ( 2,
      fun p ->
        if Prng.bool p 0.7 then
          let s = f32_reg p in
          Instr.make (Isa.STG Isa.W32) [ Op.reg r_addr4; s ]
        else
          let s = Op.reg (Prng.pick p pairs) in
          Instr.make (Isa.STG Isa.W64) [ Op.reg r_addr8; s ] );
    ( 1,
      fun p ->
        if Prng.bool p 0.5 then
          let d = int_dst p in
          let a = int_src p in
          let b = int_src p in
          Instr.make Isa.IADD [ d; a; b ]
        else
          let d = int_dst p in
          let a = int_src p in
          let b = int_src p in
          let c = int_src p in
          Instr.make Isa.IMAD [ d; a; b; c ] );
    ( 1,
      fun p ->
        (match Prng.int p 3 with
        | 0 ->
          let d = int_dst p in
          let k = Op.imm_i (Prng.pick p int_pool) in
          Instr.make Isa.MOV32I [ d; k ]
        | 1 ->
          let d = int_dst p in
          let a = int_src p in
          let k = Op.imm_i (Int32.of_int (Prng.int p 5)) in
          Instr.make Isa.SHL [ d; a; k ]
        | _ ->
          let r = Prng.pick p [| Isa.Lane_id; Isa.Ntid_x; Isa.Ctaid_x |] in
          let d = int_dst p in
          Instr.make (Isa.S2R r) [ d ]) );
  ]

let total_weight = List.fold_left (fun a (w, _) -> a + w) 0 table

let pick_instr p =
  let r = ref (Prng.int p total_weight) in
  let rec go = function
    | [] -> assert false
    | (w, f) :: tl -> if !r < w then f p else (r := !r - w; go tl)
  in
  go table

let with_guard p i =
  if Prng.bool p 0.2 then begin
    let g = Op.pred (Prng.int p 3) in
    let g = if Prng.bool p 0.5 then { g with Op.pred_not = true } else g in
    { i with Instr.guard = Some g }
  end
  else i

(* tid, both element addresses, and live values in every register class
   before the random body runs. *)
let prologue () =
  [
    Instr.make (Isa.S2R Isa.Tid_x) [ Op.reg r_tid ];
    Instr.make Isa.IMAD
      [ Op.reg r_addr4; Op.reg r_tid; Op.imm_i 4l;
        Op.cbank ~bank:0 ~offset:0x160 ];
    Instr.make Isa.IMAD
      [ Op.reg r_addr8; Op.reg r_tid; Op.imm_i 8l;
        Op.cbank ~bank:0 ~offset:0x160 ];
    Instr.make (Isa.I2F Isa.FP32) [ Op.reg 1; Op.reg r_tid ];
    Instr.make Isa.MOV [ Op.reg 3; Op.cbank ~bank:0 ~offset:0x164 ];
    Instr.make (Isa.LDG Isa.W32) [ Op.reg 5; Op.reg r_addr4 ];
    Instr.make (Isa.I2F Isa.FP64) [ Op.reg 16; Op.reg r_tid ];
    Instr.make Isa.MOV [ Op.reg 18; Op.cbank ~bank:0 ~offset:0x168 ];
    Instr.make Isa.MOV [ Op.reg 19; Op.cbank ~bank:0 ~offset:0x16c ];
  ]

let rec build_body p n acc =
  if n = 0 then List.rev acc
  else
    let i = pick_instr p in
    let i = with_guard p i in
    build_body p (n - 1) (i :: acc)

let rec insert_at k x = function
  | l when k = 0 -> x :: l
  | [] -> [ x ]
  | h :: t -> h :: insert_at (k - 1) x t

let generate_sass ~seed ~id p =
  let pro = prologue () in
  let n_pro = List.length pro in
  let n_body = 6 + Prng.int p 10 in
  let body = build_body p n_body [] in
  let pre = pro @ body in
  (* Optional guarded branch: forward-only and clamped, so every path
     reaches EXIT without the watchdog. *)
  let pre =
    if Prng.bool p 0.35 then begin
      let pos = n_pro + Prng.int p (n_body + 1) in
      let skip = 1 + Prng.int p 3 in
      let len = List.length pre in
      (* after insertion: len+1 body instrs, stores at len+1 and len+2 *)
      let target = min (pos + 1 + skip) (len + 2) in
      let bra = Instr.make Isa.BRA [ Op.label target ] in
      let bra =
        if Prng.bool p 0.7 then begin
          let g = Op.pred (Prng.int p 3) in
          let g =
            if Prng.bool p 0.5 then { g with Op.pred_not = true } else g
          in
          { bra with Instr.guard = Some g }
        end
        else bra
      in
      insert_at pos bra pre
    end
    else pre
  in
  let s32 = f32_reg p in
  let s64 = Op.reg (Prng.pick p pairs) in
  let stores =
    [
      Instr.make (Isa.STG Isa.W32) [ Op.reg r_addr4; { s32 with Op.neg = false; Op.abs = false } ];
      Instr.make (Isa.STG Isa.W64) [ Op.reg r_addr8; s64 ];
    ]
  in
  let name = Printf.sprintf "fuzz_s%d_c%d" seed id in
  let prog = Program.make ~name (pre @ stores) in
  let block = 32 * (1 + Prng.int p 2) in
  let grid = 1 + Prng.int p 2 in
  let params =
    [
      Parse.Ptr_bytes (8 * block);
      Parse.F32 (Prng.pick p f32_hazards);
      Parse.F64 (Prng.pick p f64_hazards);
      Parse.I32 (Int32.of_int block);
    ]
  in
  { Repro.id; seed; origin = Repro.Sass_gen; prog; grid; block; params;
    budget = None }

let generate_klang ~seed ~id p =
  let size = 4 + Prng.int p 6 in
  let ex = Gen.ex_of_prng ~ops_full:true ~size p in
  let block = 32 * (1 + Prng.int p 2) in
  let grid = 1 + Prng.int p 2 in
  match Fpx_klang.Compile.compile (Gen.build_kernel ex) with
  | exception Fpx_klang.Compile.Error _ ->
    (* Unlowered corner; fall back to the SASS generator so the case
       id still yields a program. *)
    generate_sass ~seed ~id p
  | prog ->
    let prog =
      { prog with Program.name = Printf.sprintf "fuzz_s%d_c%d" seed id }
    in
    let n = grid * block in
    let params =
      [
        Parse.Ptr_bytes (4 * n);
        Parse.Ptr_bytes (4 * n);
        Parse.Ptr_bytes (4 * n);
        Parse.I32 (Int32.of_int n);
      ]
    in
    { Repro.id; seed; origin = Repro.Klang_gen (Gen.ex_to_string ex);
      prog; grid; block; params; budget = None }

let is_klang_case id = id mod 4 = 3

let case ~seed ~id =
  let p = Prng.stream ~seed id in
  if is_klang_case id then generate_klang ~seed ~id p
  else generate_sass ~seed ~id p
