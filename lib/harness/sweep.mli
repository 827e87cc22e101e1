(** Catalog sweeps: run many programs under one tool configuration,
    optionally across worker domains, and aggregate the results.

    Parallelism is at whole-run granularity: every program run builds
    its own device, channel, fault plan and sink, so jobs share no
    mutable state and the measurement list — and everything derived from
    it — is byte-identical to the sequential sweep for the same inputs,
    including under fault injection and static pruning. *)

val run :
  ?jobs:int ->
  ?observe:bool ->
  ?fault:Fpx_fault.Fault.spec ->
  ?mode:Fpx_klang.Mode.t ->
  tool:Runner.tool_config ->
  Fpx_workloads.Workload.t list ->
  Runner.measurement list
(** Measurements under {!Fpx_gpu.Cost.default}, in input (catalog)
    order regardless of [jobs]
    (default 1 = plain sequential loop). [observe] (default false)
    attaches a fresh metrics/trace sink to each run, for
    {!merged_metrics}. [fault] builds a fresh plan from the spec per
    run, exactly as {!Runner.run} does. *)

val report_json : Runner.measurement list -> string
(** The sweep report: a JSON array of {!Runner.to_json} objects in
    measurement order, with a trailing newline. Byte-identical across
    [jobs] values for the same inputs. *)

val census : Runner.measurement list -> int * int
(** [(locations, triplets)]: the sites the sweep's detectors
    instrumented, each run's {!Runner.measurement.locations} interned
    into one {!Gpu_fpx.Loc_table} in catalog order, and the unique
    ⟨E_exce, E_loc, E_fp⟩ triplets among the detector findings under
    those merged indices. BinFPE findings and runs without a detector
    contribute nothing. *)

val merged_metrics : Runner.measurement list -> Fpx_obs.Metrics.t option
(** Fold {!Fpx_obs.Metrics.merge} over the runs' active sinks in
    measurement order ([None] if no run carried one). Counters sum
    across the sweep; gauges keep the last run's value. *)
