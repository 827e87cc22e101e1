(** Run one catalog program under one tool configuration on a fresh
    device (the unit of measurement everywhere in §4). *)

type tool_config =
  | No_tool
  | Detector of Gpu_fpx.Detector.config
  | Binfpe
  | Analyzer
  | Stack of tool_config list
      (** Compose several tools into one {!Fpx_tool.stack}: every member
          sees every instrumented launch, and the measurement concatenates
          the members' results in member order. *)

val tool_config_to_string : tool_config -> string

type status =
  | Completed  (** Ran to completion at full fidelity. *)
  | Degraded of string list
      (** Ran to completion, but injected faults (and/or the detector's
          own graceful-degradation responses) reduced fidelity; the
          reasons name what happened, e.g. ["channel-drop(3)"] or
          ["gt-alloc-fallback"]. *)
  | Hung of string
      (** The run hung: a watchdog raised {!Fpx_gpu.Exec.Watchdog}
          mid-run, either the executor's per-launch instruction budget
          or, under an active fault plan, the runtime's slowdown
          budget; the payload is the watchdog's message and partial results are still reported. A
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

type finding = {
  kernel : string;  (** mangled kernel name *)
  pc : int;
  loc : string;
  fmt : Fpx_sass.Isa.fp_format;
  exce : Fpx_tool.Exce.t;
}
(** One unique exception site a tool reported. *)

type channel = {
  records_seen : int;
      (** unique records the detector received host-side; BinFPE's
          total records received when no detector ran *)
  drains_delayed : int;
  records_stranded : int;
  backoff_k : int;
}
(** The detector's channel counters (see {!Gpu_fpx.Detector}): those of
    the first detector in the tool, or else BinFPE's record count with
    zeros, or else all zeros. *)

type measurement = {
  program : string;
  tool : tool_config;
  slowdown : float;  (** modelled-cycle ratio; capped when hung *)
  hang : bool;  (** channel congestion pushed past the hang budget *)
  status : status;
  records : int;  (** device→host records transferred *)
  dyn_instrs : int;
  counts : (Fpx_sass.Isa.fp_format * Fpx_tool.Exce.t * int) list;
      (** unique exception sites per (format, kind), counted from the
          findings: FP64 then FP32 × {!Fpx_tool.Exce.all}, only non-zero
          entries *)
  total_exceptions : int;
  log : string list;
  detector_findings : finding list;
      (** the detectors' unique findings, first-seen order *)
  binfpe_findings : finding list;  (** BinFPE's unique findings *)
  locations : Gpu_fpx.Loc_table.entry list;
      (** every site the detectors instrumented, in index order *)
  channel : channel;
  analyzer_reports : Gpu_fpx.Analyzer.report list;
  escapes : Gpu_fpx.Analyzer.escape list;
      (** NaN/INF values the analyzer saw written to global memory. *)
  obs : Fpx_obs.Sink.t;
      (** The observability sink the run reported into
          ({!Fpx_obs.Sink.null} unless one was passed to {!run}); carries
          the metrics registry, trace buffer and profile for export. *)
  replayed : int;
      (** Launches a {!ledger} replayed instead of executing them. *)
  reconverged : bool;
      (** The run stopped at the end of the launch its architectural
          flip landed in, because its state there equalled the golden
          run's (see {!run}): every later step would have been the
          golden run's. Its counters and findings stop at that launch. *)
}
(** What one run leaves: plain data read from its tools after the run.
    No field holds a tool, a channel or a global table, so a retained
    measurement keeps no tool alive. *)

val count :
  measurement -> fmt:Fpx_sass.Isa.fp_format -> exce:Fpx_tool.Exce.t -> int

(** {1 Launch ledgers}

    A golden run records one checkpoint per launch: the request, the
    launch's stats, a memory image and the detector's state. A run
    injected with one architectural flip then replays the launches the
    flip cannot reach instead of executing them, and stops where it is
    back on the golden state. *)

type ledger
(** Filled by a recording run; read-only afterwards, so one ledger may be
    replayed from several domains at once. *)

val ledger : unit -> ledger
(** An empty ledger, for {!Record}. *)

type ledger_use =
  | Record of ledger
      (** Record every launch of this run; the ledger is set when the
          run completes without an abort or a fault spec with an
          architectural flip. *)
  | Replay of ledger
      (** Replay a recorded run of the same program, mode and cost. *)

val run :
  ?cost:Fpx_gpu.Cost.t ->
  ?obs:Fpx_obs.Sink.t ->
  ?fault:Fpx_fault.Fault.spec ->
  ?bw:Fpx_gpu.Bandwidth.binding ->
  ?on_launch:(kernel:string -> Fpx_gpu.Stats.t -> unit) ->
  ?ledger:ledger_use ->
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
    yield point (see {!Fpx_nvbit.Runtime.set_on_launch}).

    [ledger] is used only when the tool is the default detector, the
    fault spec enables no rate-driven site (or has rate 0), no [bw] is
    bound and [obs] is null; any other run ignores it. Under [Replay]:
    - the head: a launch in the safe prefix whose request equals the
      ledger's at the same index is replayed
      ({!Fpx_nvbit.Runtime.set_replay}). The safe prefix is every launch
      whose warp-steps all come before a register or shared-memory
      flip's [at_dyn], or that precedes an instruction flip's kernel's
      first launch, and that the spec's budget would not stop. At the
      first launch that executes, the detector state of the last
      replayed one is installed;
    - the tail: at the end of the launch a register or shared-memory
      flip landed in, when every request so far equalled the ledger's,
      memory equals the ledger's image, the detector's state equals its
      checkpoint, and the ledger's remaining launches, added to the
      totals one by one, never cross [cost.hang_slowdown] or the
      budget, the run stops and [reconverged] is set. The status is
      then the one the run had at that point. *)

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
