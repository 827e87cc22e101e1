(** A fuzz case: a standalone SASS program plus its launch geometry and
    parameters — everything needed to re-run it through any tool stack,
    render it to a [.sass] artifact, and parse it back. *)

type origin = Sass_gen | Klang_gen of string
(** Which generator produced the case; [Klang_gen] carries the source
    expression (pretty-printed) for the artifact header. *)

type t = {
  id : int;  (** Case index within its campaign. *)
  seed : int;  (** Campaign seed the case's stream was split from. *)
  origin : origin;
  prog : Fpx_sass.Program.t;
  grid : int;
  block : int;
  params : Fpx_sass.Parse.param_spec list;
  budget : int option;
      (** Watchdog step budget the case was classified under, if any: a
          campaign hang repro replays under its campaign's budget. *)
}

val instr_count : t -> int

val complexity : t -> int
(** Secondary shrink measure: operand modifiers, non-zero immediates,
    guards, launch width and parameter weight. Every shrink candidate
    strictly decreases [(instr_count, complexity)] lexicographically, so
    minimization terminates. *)

val render : t -> string
(** The standalone [.sass] artifact: header comments (id, seed, origin),
    [.launch]/[.param] directives, a [.budget] directive when the case
    has a budget, and the disassembled program.
    [Fpx_sass.Parse.file] parses it back; render∘parse∘render is a
    fixpoint modulo the header comment (a parsed file cannot recover a
    klang case's source expression, so it reads back as [Sass_gen]). *)

val of_file : ?id:int -> ?seed:int -> Fpx_sass.Parse.file -> t
(** Wrap a parsed standalone file (origin [Sass_gen], id/seed 0 unless
    given) — the replay path. *)

val fault : ?fault:Fpx_fault.Fault.spec -> t -> Fpx_fault.Fault.spec option
(** The fault spec a run of the case uses: [fault] (default: none) with
    the case's budget, when it has one, as the watchdog budget. *)

val workload : t -> Fpx_workloads.Workload.t
(** A synthetic catalog entry that allocates the parameters (pointer
    params are zero-filled) and launches the program once, so every
    verdict flows through the standard {!Fpx_harness.Runner} plumbing. *)

val escape_oracle_applies : t -> bool
(** The escape-implies-record oracle is only sound when no opcode can
    move or create a NaN/INF bit pattern outside the instrumented
    compute set: loads can replay stored words at other strides, and the
    FP64→FP32 / FP16→FP32 conversions can overflow or widen exceptional
    values at uninstrumented sites. *)
