(** The observability sink threaded through the simulator, the NVBit
    runtime and the tools (via {!Fpx_gpu.Device.t}).

    {!null} is the default everywhere: every instrumentation site guards
    on the sink, so a disabled sink costs a single pattern match on the
    hot path and never touches the modelled cycle counts — slowdown
    numbers are identical with and without observability. *)

type active = {
  metrics : Metrics.t;
  trace : Span.t;  (** A {!Span.cycles} recorder. *)
  profile : Profile.t;
  mutable cycle_base : int;
      (** Simulated-cycle offset of the current launch: the runtime
          advances it by each launch's total cycles so event timestamps
          form one global timeline across launches. *)
}

type t = Null | Active of active

val null : t

val create : ?trace_capacity:int -> unit -> t
(** A fresh active sink (empty registry, empty ring, empty profile,
    cycle 0). [trace_capacity] sizes the cycle trace's ring (default
    that of {!Span.cycles}); only tests set it, to see the ring wrap. *)

val active : t -> active option
val is_active : t -> bool

val now : active -> launch_cycles:int -> int
(** Timestamp for an event [launch_cycles] into the current launch. *)

val summary : t -> string option
(** One human-readable line (event/metric/profile counts); [None] for
    {!null}. *)
