(** The fuzzer's expression language: random klang-level kernels for
    {!Sassgen}'s compiled cases, drawn from a splittable PRNG so a
    campaign is deterministic per seed.

    The [ex] language is first-class (rather than raw [Ast.expr]) so a
    case's origin prints readably and a counterexample can shrink
    structurally. *)

type bop = Add | Sub | Mul | Div | Min | Max
type uop = Neg | Abs | Sqrt | Rcp | Exp | Log

type ex =
  | X
  | Y
  | Const of float
  | Bin of bop * ex * ex
  | Un of uop * ex
  | Fma of ex * ex * ex
  | Sel of ex * ex * ex * ex  (** if e1 < e2 then e3 else e4 *)

val ex_to_string : ex -> string

val const_pool : float list
(** Exact small numbers plus values near the overflow, underflow and
    division hazards, so generated expressions except often. Public so
    the property tests' QCheck generators draw the same constants as
    {!ex_of_prng}. *)

val ex_of_prng :
  ops_full:bool ->
  size:int ->
  Fpx_fault.Fault.Prng.t ->
  ex
(** Sized expression trees (size capped at 12) driven by a
    {!Fpx_fault.Fault.Prng} stream, with no QCheck state involved.
    [ops_full:false] restricts to the exactly-rounded subset (no Div,
    no SFU ops). Constants are drawn from {!const_pool}. *)

val build_kernel : ex -> Fpx_klang.Ast.kernel
(** The FP32 harness kernel: [out\[i\] = e(a\[i\], b\[i\])] for
    [i < n]. *)
