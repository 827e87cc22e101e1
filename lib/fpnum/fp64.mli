(** IEEE-754 binary64 values and the SASS register-pair encoding.

    SASS has no 64-bit registers: an FP64 quantity lives in two adjacent
    FP32 registers, low word in [Rd], high word in [Rd+1] (paper §2.2).
    This module provides classification on doubles plus the split/join
    used by the simulator and by the detector's [check_64_*] functions. *)

type t = float

val classify : t -> Kind.t
val is_nan : t -> bool
val is_inf : t -> bool
val is_subnormal : t -> bool
val is_zero : t -> bool
val sign_bit : t -> bool

val pos_inf : t
val neg_inf : t
val qnan : t
val min_normal : t
val min_subnormal : t
val max_finite : t

(** {1 Register-pair encoding} *)

val to_words : t -> int32 * int32
(** [(lo, hi)] 32-bit halves of the binary64 bit pattern. *)

val of_words : lo:int32 -> hi:int32 -> t

val hi_word : t -> int32
(** High 32 bits: sign, full exponent, top 20 mantissa bits — enough to
    classify NaN/INF (but {e not} subnormal-vs-zero, which needs the low
    word too; this distinction matters for [MUFU.*64H] checking). *)

val classify_hi : int32 -> Kind.t
(** Classification using only the high word; subnormal and zero collapse
    to [Zero] when the low 20 mantissa bits in the high word are zero. *)

val classify_words : lo:int -> hi:int -> Kind.t
(** {!classify} of the value whose words are [lo] and [hi], each a
    32-bit pattern in a native [int] (bits above 31 of [hi] are
    ignored); allocates nothing. *)

(** {1 Arithmetic (native binary64)} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val fma : t -> t -> t -> t
val div : t -> t -> t
val neg : t -> t
val abs : t -> t
val sqrt : t -> t

val min_nv : t -> t -> t
(** NVIDIA DMNMX/DSETP-adjacent minimum: NaN does not propagate. *)

val max_nv : t -> t -> t

val compare_ieee : t -> t -> int option
(** IEEE comparison; [None] when unordered. *)
