(** The kernel linter: exception reports without running anything.

    [lint prog] runs the abstract interpreter and the site pruner, then
    reports every instrumentable site that may raise (NaN / INF / SUB,
    or DIV0 for the MUFU reciprocal family) together with a {e cause}
    (which operand classes drive the result exceptional) and a {e static
    flow chain}: a forward taint walk from the site's destination that
    ends in the same vocabulary as the dynamic {!Flow} chains — the
    value dies in arithmetic, is deselected by a guard, or is still live
    when it escapes to memory. *)

type fate = Killed | Guarded | Surviving

val fate_to_string : fate -> string
(** Same strings as the dynamic flow analysis renders. *)

type finding = {
  pc : int;
  loc : string;  (** Source location ({!Fpx_sass.Instr.loc_string}). *)
  sass : string;
  fmt : Fpx_sass.Isa.fp_format;
      (** The format of the site's check ({!Fpx_sass.Site.fmt}). *)
  div0 : bool;  (** The site's check is a DIV0 check (MUFU.RCP/RSQ). *)
  kinds : Absval.cls;
      (** The firing classes the destination may actually take. *)
  cause : string;
  fate : fate;
  sink_pc : int option;
      (** Where the chain ends: the escaping store / guarding compare. *)
}

type report = {
  kernel : string;
  n_sites : int;  (** Instrumentable sites. *)
  n_clean : int;  (** Provably clean among them. *)
  findings : finding list;  (** Flagged sites, in pc order. *)
}

val lint : Fpx_sass.Program.t -> report

val to_lines : report -> string list
(** Human-readable rendering, one logical line per list element. *)
