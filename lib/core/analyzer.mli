(** The GPU-FPX {e analyzer} (paper §3.2): exception flow tracking.

    Instruments every Table-1 opcode — including the control-flow
    opcodes BinFPE misses — with before/after callbacks that capture the
    value class of every register operand (reading sources {e before}
    execution, so shared dest/src registers like ["FADD R6, R1, R6"] are
    classified correctly), plus compile-time detection of exceptional
    IMM_DOUBLE/GENERIC operands (Listing 2). Each dynamic execution is
    categorised into the five instruction states of Table 2. *)

type state =
  | Shared_register
  | Comparison
  | Appearance
  | Propagation
  | Disappearance

val state_to_string : state -> string
val all_states : state list
(** Every state once, in declaration order; public so a consumer of
    {!state_counts} can walk the rows without naming each state. *)

val table2 : (state * string) list
(** Structural rendering of paper Table 2: state → condition. *)

type report = {
  state : state;
  kernel : string;
  loc : string;
  sass : string;
  before : Fpx_num.Kind.t list;
      (** Value class of each register written, then each read
          ({!Fpx_sass.Decode.writes} @ {!Fpx_sass.Decode.reads}), before
          the instruction executed. *)
  after : Fpx_num.Kind.t list;  (** Same, after execution. *)
  compile_time : Fpx_tool.Exce.t option;
      (** Exceptional immediate operand found at JIT time. *)
}

val render : report -> string list
(** Listing-style ["#GPU-FPX-ANA ..."] lines. *)

val compile_e_type : Fpx_sass.Instr.t -> Fpx_tool.Exce.t option
(** Listing 2's JIT-time check: the class of the first NaN or INF
    immediate (IMM_DOUBLE, FP32 immediate or [GENERIC] token) among an
    instruction's operands. Public as the analyzer's static half: it
    needs the instruction only, not a run. *)

type escape = { store_kernel : string; store_loc : string; kind : Fpx_num.Kind.t }
(** An exceptional value written back to global memory — the situation
    §5 warns about: the kernel output {e looks} computed but carries the
    exception (or, when no escapes exist despite detected exceptions,
    the output looks clean while the computation was not). *)

type t

val create :
  ?max_reports_per_site:int ->
  ?sampling:Sampling.t ->
  ?track_stores:bool ->
  Fpx_gpu.Device.t ->
  t
(** [max_reports_per_site] bounds how many dynamic executions of one
    (instruction, state) pair are reported (default 2).
    [track_stores] (default true) additionally instruments STG in
    kernels that contain FP arithmetic, recording NaN/INF values that
    escape to memory. *)

val tool : t -> Fpx_tool.instance
(** Attach with {!Fpx_nvbit.Runtime.attach}. *)

val reports : t -> report list
val escapes : t -> escape list
(** Unique (kernel, store site, kind) escape records. *)

val state_counts : t -> (state * int) list
(** Reports per state, in {!all_states} order: the summary of a run
    without its log lines. *)

val log_lines : t -> string list
