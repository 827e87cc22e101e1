module Ast = Fpx_klang.Ast
module D = Fpx_klang.Dsl
module Prng = Fpx_fault.Fault.Prng

(* --- a first-class expression language, so counterexamples print
   readably and shrink structurally ------------------------------------ *)

type bop = Add | Sub | Mul | Div | Min | Max
type uop = Neg | Abs | Sqrt | Rcp | Exp | Log

type ex =
  | X
  | Y
  | Const of float
  | Bin of bop * ex * ex
  | Un of uop * ex
  | Fma of ex * ex * ex
  | Sel of ex * ex * ex * ex  (* if e1 < e2 then e3 else e4 *)

let bop_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"
  | Min -> "min" | Max -> "max"

let uop_to_string = function
  | Neg -> "neg" | Abs -> "abs" | Sqrt -> "sqrt" | Rcp -> "rcp"
  | Exp -> "exp" | Log -> "log"

let rec ex_to_string = function
  | X -> "x"
  | Y -> "y"
  | Const f -> Printf.sprintf "%.9g" f
  | Bin (o, a, b) ->
    Printf.sprintf "(%s %s %s)" (ex_to_string a) (bop_to_string o)
      (ex_to_string b)
  | Un (o, a) -> Printf.sprintf "%s(%s)" (uop_to_string o) (ex_to_string a)
  | Fma (a, b, c) ->
    Printf.sprintf "fma(%s, %s, %s)" (ex_to_string a) (ex_to_string b)
      (ex_to_string c)
  | Sel (a, b, c, d) ->
    Printf.sprintf "(%s < %s ? %s : %s)" (ex_to_string a) (ex_to_string b)
      (ex_to_string c) (ex_to_string d)

(* Constants chosen to make exceptions common: exact small numbers plus
   values near the overflow, underflow and division hazards. *)
let const_pool =
  [ 0.0; 1.0; -1.0; 0.5; -2.25; 3.0e38; -3.0e38; 1.0e-38; 6.0e-39; 1.0e30;
    -1.0e-30; 123.5; -0.03125; 87.5; -100.0 ]

(* --- splittable-PRNG generation: the fuzzer's deterministic path ------ *)

let consts = Array.of_list const_pool

let ex_of_prng ~ops_full ~size prng =
  let leaf () =
    match Prng.int prng 3 with
    | 0 -> X
    | 1 -> Y
    | _ -> Const (Prng.pick prng consts)
  in
  let bops =
    if ops_full then [| Add; Sub; Mul; Div; Min; Max |]
    else [| Add; Sub; Mul; Min; Max |]
  in
  let uops =
    if ops_full then [| Neg; Abs; Sqrt; Rcp; Exp; Log |] else [| Neg; Abs |]
  in
  (* leaf 2, bin 4, un 2, fma 1, sel 1 — the property tests' QCheck
     generator draws the same shape *)
  let rec go n =
    if n <= 0 then leaf ()
    else
      match Prng.int prng 10 with
      | 0 | 1 -> leaf ()
      | 2 | 3 | 4 | 5 ->
        let o = Prng.pick prng bops in
        let a = go (n / 2) in
        let b = go (n / 2) in
        Bin (o, a, b)
      | 6 | 7 ->
        let o = Prng.pick prng uops in
        Un (o, go (n - 1))
      | 8 ->
        let a = go (n / 3) in
        let b = go (n / 3) in
        let c = go (n / 3) in
        Fma (a, b, c)
      | _ ->
        let a = go (n / 4) in
        let b = go (n / 4) in
        let c = go (n / 4) in
        let d = go (n / 4) in
        Sel (a, b, c, d)
  in
  go (min size 12)

(* --- DSL lowering ----------------------------------------------------- *)

let rec to_dsl = function
  | X -> D.v "x"
  | Y -> D.v "y"
  | Const f -> D.f32 f
  | Bin (Add, a, b) -> D.( +: ) (to_dsl a) (to_dsl b)
  | Bin (Sub, a, b) -> D.( -: ) (to_dsl a) (to_dsl b)
  | Bin (Mul, a, b) -> D.( *: ) (to_dsl a) (to_dsl b)
  | Bin (Div, a, b) -> D.( /: ) (to_dsl a) (to_dsl b)
  | Bin (Min, a, b) -> D.min_ (to_dsl a) (to_dsl b)
  | Bin (Max, a, b) -> D.max_ (to_dsl a) (to_dsl b)
  | Un (Neg, a) -> D.neg (to_dsl a)
  | Un (Abs, a) -> D.abs (to_dsl a)
  | Un (Sqrt, a) -> D.sqrt_ (to_dsl a)
  | Un (Rcp, a) -> D.rcp (to_dsl a)
  | Un (Exp, a) -> D.exp_ (to_dsl a)
  | Un (Log, a) -> D.log_ (to_dsl a)
  | Fma (a, b, c) -> D.fma (to_dsl a) (to_dsl b) (to_dsl c)
  | Sel (a, b, c, d) ->
    D.select (D.( <: ) (to_dsl a) (to_dsl b)) (to_dsl c) (to_dsl d)

let build_kernel e =
  D.kernel "fuzz"
    [ ("out", D.ptr Ast.F32); ("a", D.ptr Ast.F32); ("b", D.ptr Ast.F32);
      ("n", D.scalar Ast.I32) ]
    [ D.let_ "i" Ast.I32 D.tid;
      D.if_
        (D.( <: ) (D.v "i") (D.v "n"))
        [ D.let_ "x" Ast.F32 (D.load "a" (D.v "i"));
          D.let_ "y" Ast.F32 (D.load "b" (D.v "i"));
          D.store "out" (D.v "i") (to_dsl e) ]
        [] ]
