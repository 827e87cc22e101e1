(** Special Function Unit (MUFU) approximation models.

    GPU SFUs compute fast, coarse approximations of reciprocal, rsqrt,
    exp2, log2, sin and cos. Three behaviours matter for exception
    analysis and are modelled here:

    - outputs are flushed-to-zero (the SFU interpolator cannot produce
      denormals); under fast-math, inputs arrive already flushed by the
      program-level FTZ, which is how a subnormal denominator becomes a
      division-by-zero there;
    - results carry only ~22 good mantissa bits (we deterministically
      truncate the low mantissa bits of the correctly-rounded result);
    - special cases follow the hardware: [rcp ±0 = ±INF] (the DIV0
      signature Algorithm 1 keys on), [rsq x<0 = NaN], [lg2 0 = -INF],
      and so on.

    [rcp64h]/[rsq64h] are the FP64 variants operating on the high word of
    a register pair, used as the seed of double-precision division — the
    mechanism by which FP64-only source code raises FP32-class
    exceptions (paper §4.1). *)

val rcp : Fp32.t -> Fp32.t
val rsq : Fp32.t -> Fp32.t
val sqrt : Fp32.t -> Fp32.t
val ex2 : Fp32.t -> Fp32.t
val lg2 : Fp32.t -> Fp32.t
val sin : Fp32.t -> Fp32.t
val cos : Fp32.t -> Fp32.t

val rcp64h : int32 -> int32
(** Approximate reciprocal of the double whose high word is the argument
    (low word taken as zero); returns the high word of the result. *)

val rsq64h : int32 -> int32
