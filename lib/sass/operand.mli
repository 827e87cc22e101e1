(** SASS instruction operands.

    The operand kinds mirror NVBit's [InstrType::OperandType] values that
    GPU-FPX handles (paper Listing 2): REG, IMM_DOUBLE, GENERIC and
    CBANK, plus predicates, integer immediates and branch labels. A
    register operand carries negate/absolute modifiers, as SASS sources
    do. *)

type base =
  | Reg of int  (** R0..R254; {!rz} (255) reads as +0.0 and sinks writes *)
  | Pred of int  (** P0..P6; {!pt} (7) is constant-true *)
  | Imm_f32 of int32  (** FP32 immediate as raw bits (the 32I opcodes) *)
  | Imm_f64 of float  (** IMM_DOUBLE — value known at compile time *)
  | Imm_i of int32
  | Generic of string
      (** Compile-time token such as ["+INF"] or ["-QNAN"] *)
  | Cbank of { bank : int; offset : int }  (** c\[bank\]\[offset\] *)
  | Label of int  (** Branch target pc *)

type t = { base : base; neg : bool; abs : bool; pred_not : bool }
(** [neg]/[abs] apply to FP sources; [pred_not] complements a predicate
    source ([!P0]). *)

val rz : int
(** Register number of the zero register RZ. *)

val pt : int
(** Predicate number of the constant-true predicate PT. *)

val reg : int -> t
val reg_neg : int -> t
val reg_abs : int -> t
val pred : int -> t
val pred_not : int -> t
val imm_f32 : Fpx_num.Fp32.t -> t
val imm_f64 : float -> t
val imm_i : int32 -> t
val cbank : bank:int -> offset:int -> t
val label : int -> t

val reg_num : t -> int option
val to_string : t -> string

val float_token : float -> string
(** Render an FP immediate: ["+INF"], ["-INF"], ["+QNAN"], ["-QNAN"],
    bare integers, or the shortest round-tripping [%g] literal. Public
    as the inverse of {!generic_value}. *)

val generic_value : string -> float option
(** The value of a [Generic] token (["+INF"], ["QNAN"], ["-SNAN"], a
    float literal…), the inverse of {!float_token}. [None] for a token
    naming no value, which the executor traps on when read. *)
