type active = {
  metrics : Metrics.t;
  trace : Span.t;
  profile : Profile.t;
  mutable cycle_base : int;
}

type t = Null | Active of active

let null = Null

let create ?trace_capacity () =
  Active
    {
      metrics = Metrics.create ();
      trace = Span.cycles ?capacity:trace_capacity ();
      profile = Profile.create ();
      cycle_base = 0;
    }

let active = function Null -> None | Active a -> Some a
let is_active = function Null -> false | Active _ -> true
let now a ~launch_cycles = a.cycle_base + launch_cycles

let summary = function
  | Null -> None
  | Active a ->
    Some
      (Printf.sprintf
         "obs: %d trace events (%d dropped), %d metrics, %d profiled sites"
         (Span.recorded a.trace) (Span.dropped a.trace)
         (Metrics.cardinal a.metrics)
         (Profile.cardinal a.profile))
