(* QCheck generators and shrinker, FP64 lowering, host oracles and
   input grids for the property tests over {!Fpx_fuzz.Gen}'s expression
   language. They live here, not in the library, so the shipped
   [fpx_fuzz] does not link QCheck. *)

open Fpx_fuzz.Gen
module Ast = Fpx_klang.Ast
module D = Fpx_klang.Dsl
module Isa = Fpx_sass.Isa
module Fp32 = Fpx_num.Fp32

(* Node count — the shrinker's termination measure. *)
let rec size_ex = function
  | X | Y | Const _ -> 1
  | Bin (_, a, b) -> 1 + size_ex a + size_ex b
  | Un (_, a) -> 1 + size_ex a
  | Fma (a, b, c) -> 1 + size_ex a + size_ex b + size_ex c
  | Sel (a, b, c, d) -> 1 + size_ex a + size_ex b + size_ex c + size_ex d

(* No subnormal constants: paired with subnormal-free inputs, any
   subnormal value must then have been *computed*, which fast-math FTZ
   flushes (select/min-max pass loaded subnormals through unflushed, so
   with subnormal sources the SUB-free claim would be false — the
   fuzzer found exactly that counterexample). *)
let const_pool_normal =
  List.filter (fun f -> f = 0.0 || Float.abs f >= 1.2e-38) const_pool

let const_pool64 =
  [ 0.0; 1.0; -1.0; 0.5; -2.25; 1.0e308; -1.0e308; 5.0e-324; -1.0e-310;
    1.0e30; 123.5; -0.03125 ]

(* --- QCheck generators ------------------------------------------------ *)

let gen_ex ?(consts = const_pool) ~ops_full () =
  let open QCheck.Gen in
  let leaf =
    oneof [ return X; return Y; map (fun f -> Const f) (oneofl consts) ]
  in
  let bops =
    if ops_full then [ Add; Sub; Mul; Div; Min; Max ]
    else [ Add; Sub; Mul; Min; Max ]
  in
  let uops =
    if ops_full then [ Neg; Abs; Sqrt; Rcp; Exp; Log ] else [ Neg; Abs ]
  in
  (* split the size budget among children so the tree (and the live
     temporary-register count) grows linearly, not exponentially *)
  let rec go n =
    if n <= 0 then leaf
    else
      frequency
        [ (2, leaf);
          ( 4,
            let* o = oneofl bops in
            let* a = go (n / 2) in
            let* b = go (n / 2) in
            return (Bin (o, a, b)) );
          ( 2,
            let* o = oneofl uops in
            let* a = go (n - 1) in
            return (Un (o, a)) );
          ( 1,
            let* a = go (n / 3) in
            let* b = go (n / 3) in
            let* c = go (n / 3) in
            return (Fma (a, b, c)) );
          ( 1,
            let* a = go (n / 4) in
            let* b = go (n / 4) in
            let* c = go (n / 4) in
            let* d = go (n / 4) in
            return (Sel (a, b, c, d)) ) ]
  in
  sized (fun n -> go (min n 12))

(* DADD/DMUL/DFMA operate on adjacent 32-bit register pairs; min/max and
   select lower to DSETP + per-word SELs. Random trees exercise pair
   allocation, aliasing and the lo/hi word routing far beyond the
   hand-written tests. Div and the MUFU-seeded expansions are excluded
   so a native-double evaluator is an exact oracle. *)
let gen_ex64 =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ return X; return Y; map (fun f -> Const f) (oneofl const_pool64) ]
  in
  let rec go n =
    if n <= 0 then leaf
    else
      frequency
        [ (2, leaf);
          ( 4,
            let* o = oneofl [ Add; Sub; Mul; Min; Max ] in
            let* a = go (n / 2) in
            let* b = go (n / 2) in
            return (Bin (o, a, b)) );
          ( 2,
            let* o = oneofl [ Neg; Abs ] in
            let* a = go (n - 1) in
            return (Un (o, a)) );
          ( 1,
            let* a = go (n / 3) in
            let* b = go (n / 3) in
            let* c = go (n / 3) in
            return (Fma (a, b, c)) );
          ( 1,
            let* a = go (n / 4) in
            let* b = go (n / 4) in
            let* c = go (n / 4) in
            let* d = go (n / 4) in
            return (Sel (a, b, c, d)) ) ]
  in
  sized (fun n -> go (min n 12))

(* Subterms first (the biggest steps), then constants toward zero, then
   recursive child shrinks; the SASS-level minimizer ({!Fpx_fuzz.Shrink})
   follows the same order over instructions. *)
let rec shrink_ex e yield =
  let open QCheck.Iter in
  (match e with
  | X | Y -> empty
  | Const f -> if f = 0.0 then empty else return (Const 0.0)
  | Un (o, a) -> return a <+> map (fun a' -> Un (o, a')) (shrink_ex a)
  | Bin (o, a, b) ->
    return a <+> return b
    <+> map (fun a' -> Bin (o, a', b)) (shrink_ex a)
    <+> map (fun b' -> Bin (o, a, b')) (shrink_ex b)
  | Fma (a, b, c) ->
    return a <+> return b <+> return c
    <+> map (fun a' -> Fma (a', b, c)) (shrink_ex a)
    <+> map (fun b' -> Fma (a, b', c)) (shrink_ex b)
    <+> map (fun c' -> Fma (a, b, c')) (shrink_ex c)
  | Sel (a, b, c, d) ->
    return c <+> return d
    <+> map (fun a' -> Sel (a', b, c, d)) (shrink_ex a)
    <+> map (fun b' -> Sel (a, b', c, d)) (shrink_ex b)
    <+> map (fun c' -> Sel (a, b, c', d)) (shrink_ex c)
    <+> map (fun d' -> Sel (a, b, c, d')) (shrink_ex d))
    yield

let arb_full =
  QCheck.make ~print:ex_to_string ~shrink:shrink_ex (gen_ex ~ops_full:true ())

(* Exactly-rounded single-instruction subset: FADD/FMUL/FFMA/FMNMX/FSEL
   plus operand modifiers. Division and the MUFU expansions are excluded
   because their SASS sequences are only faithful, not provably
   bit-identical to a one-step reference. *)
let arb_exact =
  QCheck.make ~print:ex_to_string ~shrink:shrink_ex
    (gen_ex ~ops_full:false ())

(* Full op set but no subnormal constants, for the fast-math SUB claim. *)
let arb_full_normal_consts =
  QCheck.make ~print:ex_to_string ~shrink:shrink_ex
    (gen_ex ~consts:const_pool_normal ~ops_full:true ())

let arb_ex64 = QCheck.make ~print:ex_to_string ~shrink:shrink_ex gen_ex64

let opcode_gen =
  let mufus =
    [ Isa.Rcp; Isa.Rsq; Isa.Sqrt; Isa.Ex2; Isa.Lg2; Isa.Sin; Isa.Cos;
      Isa.Rcp64h; Isa.Rsq64h ]
  in
  let cmps =
    [ Isa.cmp Isa.Lt; Isa.cmp Isa.Le; Isa.cmp Isa.Gt; Isa.cmp_u Isa.Ge;
      Isa.cmp Isa.Eq; Isa.cmp_u Isa.Ne ]
  in
  QCheck.Gen.oneofl
    ([ Isa.FADD; Isa.FADD32I; Isa.FMUL; Isa.FMUL32I; Isa.FFMA; Isa.FFMA32I;
       Isa.DADD; Isa.DMUL; Isa.DFMA; Isa.HADD2; Isa.HMUL2; Isa.HFMA2;
       Isa.FSEL; Isa.FMNMX; Isa.FCHK; Isa.SEL; Isa.MOV; Isa.MOV32I;
       Isa.IADD; Isa.IMAD; Isa.SHL; Isa.SHR; Isa.LOP_AND; Isa.LOP_OR;
       Isa.LOP_XOR; Isa.LDG Isa.W32; Isa.LDG Isa.W64; Isa.STG Isa.W32;
       Isa.STG Isa.W64; Isa.S2R Isa.Tid_x; Isa.S2R Isa.Lane_id; Isa.BRA;
       Isa.EXIT; Isa.NOP; Isa.BAR; Isa.LDS Isa.W32; Isa.LDS Isa.W64;
       Isa.STS Isa.W32; Isa.STS Isa.W64; Isa.ATOM_ADD Isa.Af32;
       Isa.ATOM_ADD Isa.Ai32; Isa.F2F (Isa.FP32, Isa.FP64);
       Isa.F2F (Isa.FP64, Isa.FP32); Isa.I2F Isa.FP32; Isa.F2I Isa.FP64;
       Isa.PSETP Isa.Pand; Isa.PSETP Isa.Por; Isa.PSETP Isa.Pxor ]
    @ List.map (fun m -> Isa.MUFU m) mufus
    @ List.map (fun c -> Isa.FSET c) cmps
    @ List.map (fun c -> Isa.FSETP c) cmps
    @ List.map (fun c -> Isa.DSETP c) cmps
    @ List.map (fun c -> Isa.ISETP c) cmps)

let arb_opcode = QCheck.make ~print:Isa.opcode_to_string opcode_gen

(* --- FP64 lowering ------------------------------------------------ *)

let rec to_dsl64 = function
  | X -> D.v "x"
  | Y -> D.v "y"
  | Const f -> D.f64 f
  | Bin (Add, a, b) -> D.( +: ) (to_dsl64 a) (to_dsl64 b)
  | Bin (Sub, a, b) -> D.( -: ) (to_dsl64 a) (to_dsl64 b)
  | Bin (Mul, a, b) -> D.( *: ) (to_dsl64 a) (to_dsl64 b)
  | Bin (Min, a, b) -> D.min_ (to_dsl64 a) (to_dsl64 b)
  | Bin (Max, a, b) -> D.max_ (to_dsl64 a) (to_dsl64 b)
  | Un (Neg, a) -> D.neg (to_dsl64 a)
  | Un (Abs, a) -> D.abs (to_dsl64 a)
  | Fma (a, b, c) -> D.fma (to_dsl64 a) (to_dsl64 b) (to_dsl64 c)
  | Sel (a, b, c, d) ->
    D.select (D.( <: ) (to_dsl64 a) (to_dsl64 b)) (to_dsl64 c) (to_dsl64 d)
  | Bin (Div, _, _) | Un ((Sqrt | Rcp | Exp | Log), _) ->
    invalid_arg "to_dsl64: op outside the exact FP64 subset"

(* --- host oracles ----------------------------------------------------- *)

let rec eval e ~x ~y : Fp32.t =
  match e with
  | X -> x
  | Y -> y
  | Const f -> Fp32.of_float f
  | Bin (Add, a, b) -> Fp32.add (eval a ~x ~y) (eval b ~x ~y)
  | Bin (Sub, a, b) -> Fp32.sub (eval a ~x ~y) (eval b ~x ~y)
  | Bin (Mul, a, b) -> Fp32.mul (eval a ~x ~y) (eval b ~x ~y)
  | Bin (Div, a, b) -> Fp32.div (eval a ~x ~y) (eval b ~x ~y)
  | Bin (Min, a, b) -> Fp32.min_nv (eval a ~x ~y) (eval b ~x ~y)
  | Bin (Max, a, b) -> Fp32.max_nv (eval a ~x ~y) (eval b ~x ~y)
  | Un (Neg, a) -> Fp32.neg (eval a ~x ~y)
  | Un (Abs, a) -> Fp32.abs (eval a ~x ~y)
  | Un (Sqrt, a) -> Fp32.sqrt (eval a ~x ~y)
  | Un ((Rcp | Exp | Log), _) ->
    invalid_arg "eval: SFU-approximated op outside the exact subset"
  | Fma (a, b, c) -> Fp32.fma (eval a ~x ~y) (eval b ~x ~y) (eval c ~x ~y)
  | Sel (a, b, c, d) -> (
    match Fp32.compare_ieee (eval a ~x ~y) (eval b ~x ~y) with
    | Some n when n < 0 -> eval c ~x ~y
    | Some _ | None -> eval d ~x ~y)

(* Native doubles are the oracle: DADD/DMUL/DFMA are host arithmetic,
   DSETP-based min/max/select take the left operand only on an ordered
   true comparison (NaN falls through to the right). *)
let rec eval64 e ~x ~y =
  match e with
  | X -> x
  | Y -> y
  | Const f -> f
  | Bin (Add, a, b) -> eval64 a ~x ~y +. eval64 b ~x ~y
  | Bin (Sub, a, b) -> eval64 a ~x ~y +. -.eval64 b ~x ~y
  | Bin (Mul, a, b) -> eval64 a ~x ~y *. eval64 b ~x ~y
  | Bin (Min, a, b) ->
    let a = eval64 a ~x ~y and b = eval64 b ~x ~y in
    if a < b then a else b
  | Bin (Max, a, b) ->
    let a = eval64 a ~x ~y and b = eval64 b ~x ~y in
    if a > b then a else b
  | Un (Neg, a) -> -.eval64 a ~x ~y
  | Un (Abs, a) -> Float.abs (eval64 a ~x ~y)
  | Fma (a, b, c) ->
    Float.fma (eval64 a ~x ~y) (eval64 b ~x ~y) (eval64 c ~x ~y)
  | Sel (a, b, c, d) ->
    if eval64 a ~x ~y < eval64 b ~x ~y then eval64 c ~x ~y
    else eval64 d ~x ~y
  | Bin (Div, _, _) | Un ((Sqrt | Rcp | Exp | Log), _) ->
    invalid_arg "eval64: op outside the exact FP64 subset"

(* --- fixed input grids covering zero, subnormal, huge, negative ------- *)

let n_elems = 64

let pool_a =
  [| 0.0; 1.0; -1.0; 0.5; -2.25; 3.4e38; -3.4e38; 1.0e-38; -6.0e-39; 1.0e30;
     7.25; -0.125; 2.0; 1.0e-20; -1.0e20; 9.5 |]

let pool_b =
  [| 1.0; 0.0; -0.0; 2.5; -1.0e-38; 1.0e38; 0.75; -8.0; 5.9e-39; -1.0e-30;
     123.5; -0.03125; 4.0; -2.0e19; 1.0e-10; -6.5 |]

let a_in = Array.init n_elems (fun i -> pool_a.(i mod 16))
let b_in = Array.init n_elems (fun i -> pool_b.((i + (i / 16)) mod 16))

let desub a =
  Array.map
    (fun f ->
      if f <> 0.0 && Float.abs f < 1.2e-38 then Float.copy_sign 0.25 f else f)
    a

let a64_in =
  Array.init n_elems (fun i ->
      [| 0.0; 1.0; -1.0; 0.5; -2.25; 1.7e308; -1.7e308; 1.0e-310; -5.0e-324;
         1.0e300; 7.25; -0.125; 2.0; 1.0e-200; -1.0e200; 9.5 |].(i mod 16))

let b64_in =
  Array.init n_elems (fun i ->
      [| 1.0; 0.0; -0.0; 2.5; -1.0e-308; 1.0e308; 0.75; -8.0; 3.0e-320;
         -1.0e-300; 123.5; -0.03125; 4.0; -2.0e190; 1.0e-10; -6.5 |]
        .((i + (i / 16)) mod 16))

let build_kernel64 e =
  D.kernel "fuzz64"
    [ ("out", D.ptr Ast.F64); ("a", D.ptr Ast.F64); ("b", D.ptr Ast.F64);
      ("n", D.scalar Ast.I32) ]
    [ D.let_ "i" Ast.I32 D.tid;
      D.if_
        (D.( <: ) (D.v "i") (D.v "n"))
        [ D.let_ "x" Ast.F64 (D.load "a" (D.v "i"));
          D.let_ "y" Ast.F64 (D.load "b" (D.v "i"));
          D.store "out" (D.v "i") (to_dsl64 e) ]
        [] ]
