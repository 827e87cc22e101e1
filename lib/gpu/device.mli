(** A modelled GPU device: global memory plus the performance-model
    constants under which launches on it are accounted, and the
    observability sink every layer running on this device reports
    into. *)

type t = {
  name : string;
  memory : Memory.t;
  cost : Cost.t;
  obs : Fpx_obs.Sink.t;  (** {!Fpx_obs.Sink.null} unless profiling. *)
  fault : Fpx_fault.Fault.plan;
      (** {!Fpx_fault.Fault.none} unless injecting faults; every layer
          running on this device consults the same plan. *)
  bw : Bandwidth.binding option;
      (** [None] for a dedicated device. On a multi-tenant co-run each
          tenant's device shares one {!Bandwidth} meter; the engine and
          channel charge contention through it. *)
}

val create :
  ?name:string ->
  ?cost:Cost.t ->
  ?mem_bytes:int ->
  ?obs:Fpx_obs.Sink.t ->
  ?fault:Fpx_fault.Fault.plan ->
  ?bw:Bandwidth.binding ->
  unit ->
  t
(** Default: 64 MiB of global memory — the logical size {!Memory}
    bounds accesses by; a fresh device backs one 4 KiB page of it, {!Cost.default}, name
    ["SM-SIM (RTX 2070 SUPER model)"], observability and fault injection
    disabled, no bandwidth meter. *)
