(** A modelled GPU device: global memory plus the performance-model
    constants under which launches on it are accounted, and the
    observability sink every layer running on this device reports
    into. *)

(** One warp's SIMT state, in the executor's unboxed layout. A warp is
    {e converged} — every live lane at [pc] — or {e diverged}, when
    [pcs] holds each lane's pc and [pc]/[at] are re-derived from it
    before each step. *)
type warp = {
  regs : int array;
      (** [lane * nslots + r]: zero-extended 32-bit words; at least
          [32 * nslots] long, only that prefix is in use. *)
  preds : int array;  (** One 32-lane bitmask per predicate register. *)
  pcs : int array;
      (** Per-lane pc ([max_int] once exited); read only while
          [diverged]. *)
  mutable pc : int;  (** The pc of the next step; [max_int] when done. *)
  mutable live : int;  (** Lanes that have not exited, as a bitmask. *)
  mutable at : int;  (** Lanes parked at [pc]; [live] when converged. *)
  mutable diverged : bool;
}

type t = {
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
  mutable warps : warp array;
  mutable shared : Bytes.t;
      (** The executor's warp states and shared-memory segment: empty on
          a fresh device, allocated by its first launch and reused (grown
          when a launch needs more) by later ones. Each block still
          starts from zeroed state. They belong to the device, so they
          are freed with it. *)
}

val create :
  ?cost:Cost.t ->
  ?obs:Fpx_obs.Sink.t ->
  ?fault:Fpx_fault.Fault.plan ->
  ?bw:Bandwidth.binding ->
  unit ->
  t
(** A device with 64 MiB of global memory — the logical size {!Memory}
    bounds accesses by; a fresh device backs one 4 KiB page of it.
    Defaults: {!Cost.default}, observability and fault injection
    disabled, no bandwidth meter. *)
