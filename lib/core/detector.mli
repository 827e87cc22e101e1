(** The GPU-FPX {e detector} (paper §3.1).

    On-device parallel exception checking: Algorithm 1
    ({!Fpx_sass.Site.plan}) picks one of four specialised injection
    functions per FP instruction (FP32 check, FP64 register-pair check,
    and the two MUFU.RCP division-by-zero checks);
    Algorithm 2 dedups records warp-side through the global table GT and
    pushes only novel ⟨E_exce, E_loc, E_fp⟩ records over the channel,
    giving early notification on the host as the kernel runs. *)

type config = {
  use_gt : bool;
      (** Phase 2 (w/ GT): dedup through the global table. [false] gives
          the paper's phase-1 configuration that pushes every exception
          occurrence (Figure 4's middle bars). *)
  warp_leader : bool;
      (** Aggregate lane results at the warp leader before probing GT
          (Algorithm 2). [false] = ablation: every lane probes GT
          itself. *)
  sampling : Sampling.t;
  adaptive_backoff : bool;
      (** Degrade gracefully under channel congestion: when one launch
          pushes more than 4× the channel capacity, escalate the
          effective FREQ-REDN-FACTOR (×4 per congested launch, capped at
          256) for subsequent invocations, trading coverage for
          survival. *)
  static_prune : bool;
      (** Run {!Fpx_static.Prune} over each kernel at instrumentation
          time and skip the injections it proves can never fire. Sound:
          exception reports are unchanged, only the overhead drops. *)
}

val default_config : config
(** GT on, warp-leader on, no sampling, no adaptive backoff, no static
    pruning. *)

type finding = {
  entry : Loc_table.entry;
  fmt : Fpx_sass.Isa.fp_format;
  exce : Fpx_tool.Exce.t;
}

type t

val create : ?config:config -> Fpx_gpu.Device.t -> t
(** The 1 MiB global table is allocated only when [config.use_gt]
    holds. *)

val tool : t -> Fpx_tool.instance
(** Attach with {!Fpx_nvbit.Runtime.attach}. *)

val findings : t -> finding list
(** Unique exception records, first-seen order. *)

val count : t -> fmt:Fpx_sass.Isa.fp_format -> exce:Fpx_tool.Exce.t -> int
(** Unique locations with the given exception — a Table 4 cell. *)

val total : t -> int

val log_lines : t -> string list
(** The ["#GPU-FPX LOC-EXCEP INFO: ..."] early-notification lines. *)

val gt_cardinal : t -> int
(** Set slots in the global table (0 without one). Public as GT's own
    count of unique records, which equals {!total} while GT dedup
    runs. *)

val degradations : t -> string list
(** Graceful-degradation events active on the detector:
    ["gt-alloc-fallback"], ["adaptive-backoff(K)"]. *)

val loc_table : t -> Loc_table.t
(** The per-run location interning table (every instrumented site). *)

val adaptive_k : t -> int
(** Current escalated FREQ-REDN-FACTOR (0 = not escalated). Only moves
    when [config.adaptive_backoff] is on. *)

val channel_drains_delayed : t -> int
(** Drains that could not consume everything pending because neighbour
    traffic on a shared device capped their budget (0 off a meter-bound
    device) — the multi-tenant fidelity signal. *)

val channel_stranded : t -> int
(** Records still queued in the channel right now; nonzero after the
    final drain means findings the host never saw. *)

val records_seen : t -> int
(** Unique exception records received host-side. *)
