(** Attribution pass over a {!Span} recording: fold the spans of a
    sweep into a per-phase self-time breakdown, and diagnose a jobs=1
    vs jobs=N pair by naming the dominant overhead source.

    This is the analysis behind [fpx_run diagnose], the [--jobs]
    diagnosis: when the parallel engine regresses instead of scaling, the
    verdict says whether the wall-clock excess comes from queue-wait,
    steal contention, inflated task bodies (allocator/GC pressure),
    serial merges, domain spawn/join, or JIT re-instrumentation. *)

(** {1 Per-phase breakdown} *)

val phase_of : Span.span -> string
(** Classify a span by its [(cat, name)]:
    ["jit"], ["exec"], ["drain"], ["setup"], ["report"], ["body_other"],
    ["task_other"], ["steal"], ["spawn"], ["join"], ["queue_wait"],
    ["merge"], ["fuzz"], or ["other"]. Public as the one phase table,
    for callers that aggregate spans themselves. *)

type phase_agg = {
  phase : string;
  total_s : float;  (** Summed {e self} time (durations minus direct
                        children), so phase totals on one track sum to
                        at most the track's elapsed time. *)
  count : int;
  p50_s : float;
  p99_s : float;
}

type breakdown = {
  jobs : int;
  wall_s : float;
  tracks : int;
  tasks : int;  (** Count of [sched.task] spans. *)
  task_total_s : float;  (** Full (not self) task durations summed —
                             CPU seconds spent inside task bodies. *)
  task_p50_s : float;
  task_p99_s : float;
  mean_queue_depth : float;
    (** Mean of the [queue_remaining] arg sampled at each dequeue. *)
  spans_recorded : int;
  spans_dropped : int;
  unbalanced : int;
  phases : phase_agg list;  (** Sorted by [total_s] descending. *)
}

val of_spans : jobs:int -> wall_s:float -> Span.t -> breakdown
(** Aggregate a joined recorder. [wall_s] is the caller-measured wall
    time of the region the recorder covered. *)

(** {1 Diagnosis} *)

type contribution = {
  source : string;
    (** ["task_body"], ["queue_wait"], ["spawn_join"], ["merge"],
        ["jit"] or ["unattributed"]. *)
  seconds : float;
    (** Estimated wall-clock contribution to the excess; per-worker CPU
        phases are divided by the job count, serial phases counted in
        full. May be negative (a phase that got {e cheaper}). *)
  detail : string;
}

type diagnosis = {
  base : breakdown;  (** The jobs=1 run. *)
  target : breakdown;  (** The jobs=N run. *)
  ideal_wall_s : float;  (** [base.wall_s /. target.jobs]. *)
  excess_s : float;  (** [target.wall_s -. ideal_wall_s]. *)
  contributions : contribution list;  (** Sorted by seconds descending. *)
  dominant : string;
    (** The top contribution's source; ["none"] when the excess is
        within noise, ["sequential"] when [target.jobs <= 1]. *)
  verdict : string;  (** Always non-empty, one human-readable sentence. *)
}

val diagnose : base:breakdown -> target:breakdown -> diagnosis

(** {1 Rendering} *)

val diagnosis_json : diagnosis -> string
(** One JSON object, newline-terminated. *)

val render : diagnosis -> string
(** Multi-line human-readable report: wall/ideal/excess header,
    per-phase table for both runs, attribution list, verdict. *)

val record_metrics : Span.t -> breakdown -> Metrics.t -> unit
(** Export into a metrics registry: [fpx_sched_task_seconds] histogram,
    [fpx_sched_queue_depth] / task p50/p99 / per-phase
    [fpx_phase_seconds{phase="..."}] gauges, and
    [fpx_spans_recorded_total] / [fpx_spans_dropped_total] /
    [fpx_spans_unbalanced_total] counters. *)
