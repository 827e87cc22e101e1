(** IEEE-754 binary32 values represented by their raw bit pattern.

    SASS registers are 32 bits wide and FP32 instructions operate on raw
    register contents, so the simulator carries FP32 values as [int32]
    bit patterns and this module supplies correctly-rounded arithmetic
    plus the bit-level classification used by the detector. *)

type t = int32
(** Raw binary32 bit pattern. *)

(** {1 Conversions} *)

val of_float : float -> t
(** Round a double to the nearest binary32 (ties to even). *)

val to_float : t -> float
(** Exact widening to double. *)

val of_bits : int32 -> t
val to_bits : t -> int32

(** {1 Constants} *)

val zero : t
val neg_zero : t
val one : t
val pos_inf : t
val neg_inf : t
val qnan : t
val max_finite : t
val min_subnormal : t
val min_normal : t

(** {1 Classification} *)

val classify : t -> Kind.t
val is_nan : t -> bool
val is_inf : t -> bool
val is_subnormal : t -> bool
val is_zero : t -> bool
val sign_bit : t -> bool
val exponent_field : t -> int
val mantissa_field : t -> int

(** {1 Arithmetic}

    All operations are correctly rounded to binary32 (computed exactly in
    double then rounded once; for [add], [sub] and [mul] the double result
    of binary32 inputs is exact, so the single rounding is the IEEE one). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val fma : t -> t -> t -> t
val div : t -> t -> t
val neg : t -> t
val abs : t -> t
val sqrt : t -> t

val min_nv : t -> t -> t
(** NVIDIA FMNMX minimum: if exactly one operand is NaN the {e other}
    operand is returned (IEEE-2008 behaviour; NaN does not propagate —
    the hazard the paper's analyzer flags). *)

val max_nv : t -> t -> t
(** NVIDIA FMNMX maximum; same NaN behaviour as {!min_nv}. *)

val ftz : t -> t
(** Flush a subnormal to a same-signed zero (fast-math / SFU behaviour). *)

(** {1 Words}

    The same rules on a {e word}: the bit pattern zero-extended into a
    native [int], the form the executor's register file holds. They
    allocate nothing; {!classify}, {!is_nan}, {!ftz}, {!min_nv} and
    {!max_nv} are defined through them, so each rule has one
    definition. *)

val classify_word : int -> Kind.t
val ftz_word : int -> int

val mod_word : int -> neg:bool -> abs:bool -> ftz:bool -> int
(** An FP32 source operand's modifiers in the executor's order: flush
    (when [ftz]), then absolute value, then negation. *)

val min_nv_word : int -> int -> int
val max_nv_word : int -> int -> int

val equal_bits : t -> t -> bool
val compare_ieee : t -> t -> int option
(** IEEE comparison; [None] when unordered (either operand NaN). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
