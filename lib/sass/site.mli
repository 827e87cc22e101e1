(** The per-instruction check table: Algorithm 1 of the paper.

    One entry per instrumentable instruction says which specialised
    check GPU-FPX injects after it: the destination register it reads,
    whether that destination is an FP64 register pair, and whether the
    check reports DIV0 (the MUFU reciprocal family) instead of
    NaN/INF/SUB. The detector's injections, BinFPE's arithmetic subset,
    the static pruner's firing masks, the linter's destination
    registers and the abstract interpreter's FP64 destination fact all
    read this one table. *)

type check =
  | Check_32 of int  (** check_32_nan_inf_sub(Rdest) *)
  | Check_16 of int  (** check_16x2_nan_inf_sub(Rdest) — FP16 extension *)
  | Check_64 of int * int  (** check_64_nan_inf_sub(Rlo, Rhi) *)
  | Div0_32 of int  (** check_32_div0(Rdest) *)
  | Div0_64 of int * int  (** check_64_div0(Rdest-1, Rdest) *)

val plan : Instr.t -> check option
(** The check injected after an instruction; [None] when it is not
    instrumented (no register destination, or not an FP result). *)

val fmt : check -> Isa.fp_format
(** The format the check classifies its value in. *)

val is_div0 : check -> bool
(** [Div0_32] and [Div0_64]: a NaN/INF result reports DIV0. *)

val n_values : check -> int
(** Values the injected call passes to the device function: 2 for the
    FP64 checks, 1 otherwise. *)

val regs : check -> int list
(** The registers the check reads, low word first. The pair below a
    MUFU.*64H destination of R0 has no low word, so only R0 is kept. *)
