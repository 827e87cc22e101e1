(** The partitioned concurrent executor: several tenants' kernel
    streams interleaved on one simulated device.

    Each tenant's workload runs as an effect-handler fiber yielding at
    every launch boundary; a deterministic weighted round-robin arbiter
    decides whose launch goes next (declared tenant order, [priority]
    consecutive turns per round). Cross-tenant pressure flows through a
    shared {!Fpx_gpu.Bandwidth} meter: unpartitioned neighbours dilate
    each other's compute and throttle each other's channel drains;
    {!Fpx_gpu.Bandwidth.partition.Compute_memory} reserves lanes and
    restores byte-identical exception reports. Everything is
    deterministic for a fixed (tenant set, partition, priorities) — no
    wall clock, no domains. *)

type outcome = {
  tenant : Tenant.t;
  m : Fpx_harness.Runner.measurement;
  launches : int;  (** Launch turns this tenant's stream took. *)
  total_cycles : int;  (** Modelled cycles across those launches. *)
  contention_cycles : int;
      (** Portion lost to cross-tenant interference (0 solo or under
          full partitioning with an adequate allocation). *)
  records_seen : int;
      (** Unique exception records the detector received host-side
          (BinFPE's total records received when no detector ran). *)
  drains_delayed : int;
      (** The detector's channel drains the shared memory path
          throttled (0 without a detector). *)
  records_stranded : int;
      (** Records still queued in the detector's channel when the
          stream ended — findings the host never saw (0 without a
          detector). *)
  backoff_k : int;
      (** The detector's escalated FREQ-REDN-FACTOR (0 = never backed
          off). *)
}

type result = {
  partition : Fpx_gpu.Bandwidth.partition;
  outcomes : outcome list;  (** In declared tenant order. *)
  timeline : (string * string) list;
      (** One [(tenant id, kernel)] per arbitrated launch, in execution
          order — the deterministic interleaving witness. *)
}

val run :
  ?partition:Fpx_gpu.Bandwidth.partition ->
  ?cost:Fpx_gpu.Cost.t ->
  ?mode:Fpx_klang.Mode.t ->
  Tenant.t list ->
  result
(** Run every tenant's program to completion on one shared device
    model. [partition] defaults to
    {!Fpx_gpu.Bandwidth.partition.No_partition}. Raises
    [Invalid_argument] on an empty tenant list, two tenants with one id
    or an unknown program. *)

val solo : ?cost:Fpx_gpu.Cost.t -> ?mode:Fpx_klang.Mode.t -> Tenant.t -> outcome
(** The tenant alone on the device — the baseline its shared outcomes
    are compared against. Runs through the same executor (a one-tenant
    co-run exerts no neighbour pressure, so the meter is inert). *)

val report_text : outcome -> string
(** The tenant's exception report — counts table plus log lines, one
    per line. This is the byte-comparison basis for the isolation
    guarantee; runtime numbers are deliberately excluded. *)

val result_json : result -> string
(** Deterministic JSON (includes a digest of each report). *)

val export_metrics : result -> Fpx_obs.Metrics.t -> unit
(** Write tenant-labelled counters ([fpx_mt_launches_total{tenant="a"}],
    cycles, contention, records seen / delayed / stranded) into a
    metrics registry for Prometheus export. *)
