(** Abstract interpretation of a kernel over the exception-kind domain.

    A forward fixpoint over the {!Cfg} computes, for every instruction,
    an over-approximation of the value its destination can hold across
    {e all} launches (any grid, any parameters, any memory contents):

    - registers start at the abstract constant 0 (the executor
      zero-initialises register files), predicates at false;
    - loads, kernel parameters ([c\[0x0\]\[..\]]) and special registers
      are unknown ({!Absval.top});
    - it runs on {!Fpx_sass.Decode}'s micro-ops, the same operand
      decoding the executor runs, so RZ, immediates, GENERIC tokens,
      source modifiers and input FTZ under fast-math read alike; the
      transfer functions follow the executor's semantics, output FTZ
      included;
    - a malformed operand (a {!Fpx_sass.Decode} poison descriptor) reads
      as ⊤, or as an unknown predicate, and a poisoned destination is
      not written: the concrete core traps there;
    - predication is handled soundly: a guarded write under an unknown
      predicate joins the written value with the incoming one (weak
      update), a guard that is definitely false skips the instruction,
      and the recorded per-site facts describe the {e executing} lanes;
    - loops terminate through widening after a few visits per block.

    FP64 register pairs are tracked alongside the 32-bit register view;
    either view degrades to ⊤ when the other is written piecewise. *)

type fact = {
  reachable : bool;
      (** Some lane can execute this instruction (its block is reachable
          along feasible edges and its guard may be true). *)
  dest32 : Absval.t;
      (** FP32 view of the destination register after the write (⊥ when
          unreachable or no register destination). *)
  dest64 : Absval.t;
      (** FP64 view of the register pair an FP64 {!Fpx_sass.Site.plan}
          check reads (DADD/DMUL/DFMA: [d], [d+1]; MUFU.*64H: [d-1],
          [d]); ⊥ otherwise. *)
  src_cls : Absval.cls;
      (** Join of the classes of the FP source operands — the linter's
          raw material for "divisor may be Zero" style causes. *)
}

type t = private {
  dec : Fpx_sass.Decode.t;  (** The micro-ops the analysis ran on. *)
  facts : fact array;  (** Indexed by pc. *)
}

val analyze : Fpx_sass.Program.t -> t

val fact : t -> int -> fact
