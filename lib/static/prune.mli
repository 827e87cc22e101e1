(** Instrumentation-site pruning from the static analysis.

    For every instruction the detector would instrument (its Algorithm-1
    check, {!Fpx_sass.Site.plan}), decide whether the injected check can
    {e provably never fire}: the abstract destination value excludes
    every class the check reports on, or no lane can ever execute the
    site. Such sites
    are [Provably_clean] and may be skipped without changing any
    exception report. Everything else — including every packed-FP16
    site, whose halves the 32-bit domain does not track — stays
    [May_except]. Sound by construction: when in doubt, instrument. *)

type verdict = Provably_clean | May_except

type t = private {
  analysis : Absint.t;
  verdicts : verdict array;  (** Indexed by pc; [May_except] off-plan. *)
}

val analyze : Fpx_sass.Program.t -> t

val verdict : t -> int -> verdict

val is_clean : t -> int -> bool
(** [is_clean t pc]: [true] exactly on [Provably_clean] sites, the
    ones the detector's static pruning leaves uninstrumented. *)

val n_sites : t -> int
(** Instrumentable sites in the program (the detector's site count). *)

val n_clean : t -> int
(** Of those, how many are provably clean. *)

val firing_mask : t -> int -> Absval.cls option
(** The destination classes that would make pc's check fire ([None] when
    the detector would not instrument pc). {!Absval.m_div0} for the
    MUFU reciprocal family, {!Absval.m_exce} otherwise. *)

val dest_val : t -> int -> Absval.t
(** The abstract destination value the verdict was judged on (the FP64
    pair view for FP64 checks). *)
