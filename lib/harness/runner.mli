(** Run one catalog program under one tool configuration on a fresh
    device (the unit of measurement everywhere in §4). *)

type tool_config =
  | No_tool
  | Detector of Gpu_fpx.Detector.config
  | Binfpe
  | Analyzer
  | Stack of tool_config list
      (** Compose several tools into one {!Fpx_tool.stack}: every member
          sees every instrumented launch, and the report merges their
          counts cell-wise. *)

val tool_config_to_string : tool_config -> string

type status =
  | Completed  (** Ran to completion at full fidelity. *)
  | Degraded of string list
      (** Ran to completion, but injected faults (and/or the detector's
          own graceful-degradation responses) reduced fidelity; the
          reasons name what happened, e.g. ["channel-drop(3)"] or
          ["gt-alloc-fallback"]. *)
  | Hung of string
      (** The run hung. Either watchdog aborts it mid-run: the
          executor's per-launch instruction budget
          ([Exec.Trap "watchdog: ..."]) or, under an active fault plan,
          the runtime's slowdown budget
          ({!Fpx_nvbit.Runtime.Hang_abort}); the payload is the
          watchdog's message and partial results are still reported. A
          run that completed but whose congestion pushed past the hang
          budget is judged hung post-hoc, with payload [""]. *)
  | Faulted of string
      (** Anything else the run raised aborted it: a simulator trap (the
          payload is the trap message) or any other exception, e.g. a
          malformed kernel's [Invalid_argument] (a missing operand, a
          predicate past P7), with the exception's printed form as the
          payload. *)

val status_to_string : status -> string
(** ["completed" | "degraded" | "hung" | "faulted"]. *)

val status_detail : status -> string
(** Degradation reasons ["; "]-joined, the watchdog or trap message, or
    [""]. *)

type measurement = {
  program : string;
  tool : tool_config;
  slowdown : float;  (** modelled-cycle ratio; capped when hung *)
  hang : bool;  (** channel congestion pushed past the hang budget *)
  status : status;
  records : int;  (** device→host records transferred *)
  dyn_instrs : int;
  counts : (Fpx_sass.Isa.fp_format * Fpx_tool.Exce.t * int) list;
      (** unique exception sites per (format, kind); only non-zero
          entries *)
  total_exceptions : int;
  log : string list;
  analyzer_reports : Gpu_fpx.Analyzer.report list;
  escapes : Gpu_fpx.Analyzer.escape list;
      (** NaN/INF values the analyzer saw written to global memory. *)
  extras : Fpx_tool.extra list;
      (** Typed per-tool handles from the report (e.g.
          {!Gpu_fpx.Detector.Detector} carrying the detector state), so
          census code can reach tool-specific tables without the runner
          special-casing tools. *)
  obs : Fpx_obs.Sink.t;
      (** The observability sink the run reported into
          ({!Fpx_obs.Sink.null} unless one was passed to {!run}); carries
          the metrics registry, trace buffer and profile for export. *)
}

val count :
  measurement -> fmt:Fpx_sass.Isa.fp_format -> exce:Fpx_tool.Exce.t -> int

val run :
  ?cost:Fpx_gpu.Cost.t ->
  ?obs:Fpx_obs.Sink.t ->
  ?fault:Fpx_fault.Fault.spec ->
  ?bw:Fpx_gpu.Bandwidth.binding ->
  ?on_launch:(kernel:string -> Fpx_gpu.Stats.t -> unit) ->
  ?mode:Fpx_klang.Mode.t -> tool:tool_config -> Fpx_workloads.Workload.t ->
  measurement
(** [cost] overrides the performance-model constants (default
    {!Fpx_gpu.Cost.default}) — used by the channel-capacity ablation.
    [obs] (default {!Fpx_obs.Sink.null}) collects metrics, trace events
    and the per-instruction profile; it never affects the modelled
    cycle counts. [fault] (default: none) injects deterministic faults:
    a fresh {!Fpx_fault.Fault.plan} is built from the spec for each run,
    so two runs with equal specs produce byte-identical measurements.
    A watchdog abort, a simulator trap or any other exception the
    program raises is caught and reported through [status] with partial
    results instead of propagating. [bw] binds the run's device (and so its tool channels)
    to a shared multi-tenant {!Fpx_gpu.Bandwidth} meter; [on_launch] is
    installed as the runtime's per-launch hook — the tenancy executor's
    yield point (see {!Fpx_nvbit.Runtime.set_on_launch}). *)

val run_repair :
  ?obs:Fpx_obs.Sink.t ->
  ?fault:Fpx_fault.Fault.spec ->
  ?mode:Fpx_klang.Mode.t -> tool:tool_config -> Fpx_workloads.Workload.t ->
  measurement option
(** Run the program's repaired variant, when it has one. *)

val geomean : float list -> float

val to_json : measurement -> string
(** Machine-readable report: program, tool, slowdown, hang, counts,
    escapes and log lines, as a single JSON object. *)
