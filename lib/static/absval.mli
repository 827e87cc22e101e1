(** Abstract values for the static exception analysis.

    The domain abstracts the value set a register (or FP64 register
    pair) can hold, as seen through one floating-point format:

    - [cls] — which IEEE classes ({!Fpx_num.Kind.t}) the set may
      contain, as a bitmask; the exception-kind lattice
      ⊥ ⊑ subsets of \{Zero, Subnormal, Normal, Inf, NaN\} ⊑ ⊤.
    - [lo]/[hi] — bounds on |v| over the finite members; they let the
      transfer functions exclude overflow (INF) and underflow (SUB)
      that class algebra alone cannot.
    - [int_valued] — every finite member is a mathematical integer
      (I2F results and their sums/products; integers never produce
      subnormals).
    - [const32]/[const64] — an exact constant, folded through the same
      {!Fpx_num.Fp32}/{!Fpx_num.Fp64}/{!Fpx_num.Sfu} operations the
      simulator executes.

    Transfer functions mirror [lib/gpu/exec.ml]'s NVIDIA semantics:
    FMNMX non-propagation, MUFU domains with flushed outputs, and FTZ
    flushing under fast-math. Everything is over-approximate: a sound
    result may include classes the concrete run never produces, never
    the converse. *)

type cls = int
(** Bitmask over the five {!Fpx_num.Kind.t} classes. *)

val m_zero : cls
val m_sub : cls
val m_inf : cls
val m_nan : cls
val m_none : cls
val m_all : cls

val m_exce : cls
(** NaN ∪ Inf ∪ Subnormal — the classes a [check_*_nan_inf_sub]
    injection fires on. *)

val m_div0 : cls
(** NaN ∪ Inf — the classes a [check_*_div0] injection fires on. *)

val cls_of_kind : Fpx_num.Kind.t -> cls
(** The class bit of a concrete value; public to relate a concrete
    value to the lattice. *)

val cls_to_string : cls -> string
val may : cls -> cls -> bool
(** [may m x] — does [x] intersect mask [m]? *)

type width = W32 | W64

type t = private {
  cls : cls;
  lo : float;  (** Min |v| over finite {e non-zero} members; [+∞] if none. *)
  hi : float;  (** Max |v| over finite members; [0.] if none. *)
  int_valued : bool;
  const32 : int32 option;
  const64 : float option;
}

val top : t
val bot : t
val of_const32 : int32 -> t
val of_const64 : float -> t
val of_cls : width -> cls -> t
val make : width -> ?int_valued:bool -> ?lo:float -> ?hi:float -> cls -> t
(** Smart constructor: clamps the bounds to what the classes allow. *)

val is_bot : t -> bool
val join : t -> t -> t
val widen : t -> t -> t
(** [widen old new_]: like {!join} but bounds that moved are pushed to
    their extreme, guaranteeing fixpoint termination on loops. *)

val equal : t -> t -> bool
val to_string : t -> string

(** {1 Operand modifiers and flushes} *)

val flush32 : t -> t
(** Abstract flush-to-zero of the FP32 view. *)

val abs_mod : width -> t -> t
val neg_mod : width -> t -> t

(** {1 Transfer functions}

    [w] selects the format thresholds; [~ftz] applies the output flush
    (the program-level fast-math FTZ; callers flush {e inputs} with
    {!flush32} first, as [exec.ml]'s operand reads do). FP64 ops never
    flush. *)

val add : width -> ftz:bool -> t -> t -> t
val mul : width -> ftz:bool -> t -> t -> t
val fma : width -> ftz:bool -> t -> t -> t -> t

val minmax_nv : ftz:bool -> ?is_min:bool -> t -> t -> t
(** FMNMX: exactly one NaN operand returns the {e other} operand
    (non-propagation); [?is_min] folds constants when the direction
    predicate is statically known. *)

val fset_result : t
(** FSET writes 1.0f or 0.0f — never exceptional. *)

val select : t -> t -> t
(** Raw 32-bit select (FSEL/SEL): the join of both sources. *)

val mufu : Fpx_sass.Isa.mufu_op -> t -> t
(** 32-bit MUFU ops ([Rcp64h]/[Rsq64h] are rejected — use {!mufu64h}). *)

val mufu64h : Fpx_sass.Isa.mufu_op -> t -> t * t
(** [mufu64h op hi_word_aval] = [(dest_reg_aval, pair_aval)] — the raw
    high-word result register and the FP64 view of the register pair
    (d-1, d) the [check_64_div0] injection reads. *)

val i2f_result : width -> t -> t
(** I2F: |v| ≤ 2³¹, integer-valued, never Inf/NaN/Sub. *)

val f2f_narrow : ftz:bool -> t -> t
(** F2F.F32.F64 — binary64 → binary32, overflow and underflow possible. *)

val f2f_widen : t -> t
(** F2F.F64.F32 — exact; binary32 subnormals become binary64 normals. *)
