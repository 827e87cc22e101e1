(** The one event recorder: spans and instants kept in ring buffers and
    exported as Chrome trace-event JSON or collapsed stacks.

    A recorder runs on one of two clocks, fixed by its constructor:

    - {!create} makes a {e wall-clock} recorder. {!begin_}/{!end_} read
      its clock to measure real elapsed time across the whole process —
      the instrument the [--jobs] diagnosis needs to see where a parallel
      sweep's wall clock actually goes (scheduler bookkeeping? task
      bodies? JIT? merges?). Each domain that records lazily registers
      its own {e track} (a private begin/end stack plus a private ring
      of [capacity] events), so recording never takes a lock and
      per-domain timelines stay separated. Export stamps wall-clock
      microseconds.
    - {!cycles} makes a {e simulated-cycle} recorder: the simulator,
      the NVBit runtime and the tools write {!instant}/{!complete}
      events at explicit cycle timestamps into its one ring of
      [capacity] events, each carrying its own [tid]. Export stamps
      the cycles as recorded (displayed as if they were microseconds).

    Once a ring is full the oldest events are overwritten and counted —
    see {!dropped}; nothing is capped silently.

    A wall-clock recorder is installed ambiently with {!with_installed};
    every instrumentation site guards on a single [Atomic.t] read
    ({!enabled}), so the disabled default costs one atomic load and no
    allocation — the [bench obs2] target gates this at < 2% wall-clock
    overhead.

    Unbalanced instrumentation never raises: an {!end_} with no open
    frame increments {!unbalanced}; a {!begin_} never closed stays in
    {!open_frames} and is simply not exported.

    Aggregation and export ({!spans}, {!to_chrome_json},
    {!to_collapsed}) must only be called after the domains writing to
    the recorder have been joined. *)

type arg = S of string | I of int | F of float | B of bool

type t

type clock = unit -> float
(** Seconds. The default is [Unix.gettimeofday] — a monotonic-enough
    proxy for intra-process interval timing; tests inject a
    deterministic clock. *)

val create : ?capacity:int -> ?clock:clock -> unit -> t
(** A fresh wall-clock recorder. [capacity] (default 65536) is per
    track. *)

val cycles : ?capacity:int -> unit -> t
(** A fresh simulated-cycle recorder with one ring of [capacity]
    (default 65536) events. Only tests set [capacity], directly or
    through {!Sink.create}'s [trace_capacity]. *)

(** {1 The ambient recorder} *)

val enabled : unit -> bool

val with_installed : t -> (unit -> 'a) -> 'a
(** Install around [f], uninstalling even on exceptions. *)

(** {1 Recording on the wall clock} *)

val begin_ : ?args:(string * arg) list -> ?cat:string -> string -> unit
(** Open a span named [string] (category default ["span"]) on the
    calling domain's track. No-op when nothing is installed. *)

val end_ : unit -> unit
(** Close the innermost open span on the calling domain's track,
    recording it into the ring. *)

val with_ :
  ?args:(string * arg) list -> ?cat:string -> string -> (unit -> 'a) -> 'a
(** [with_ name f] wraps [f] in {!begin_}/{!end_} (exception-safe);
    just [f ()] when disabled. *)

(** {1 Recording at simulated cycles} *)

val instant :
  t ->
  ?tid:int ->
  name:string ->
  cat:string ->
  ts:int ->
  ?args:(string * arg) list ->
  unit ->
  unit
(** A point event ([ph:"i"], global scope) at cycle [ts]. [tid]
    (default 0) is the Chrome track; the simulator passes the warp
    index.
    @raise Invalid_argument on a wall-clock recorder. *)

val complete :
  t ->
  name:string ->
  cat:string ->
  ts:int ->
  dur:int ->
  ?args:(string * arg) list ->
  unit ->
  unit
(** A span ([ph:"X"]) covering cycles [ts .. ts + dur], on track 0.
    @raise Invalid_argument on a wall-clock recorder. *)

(** {1 Introspection} *)

type span = {
  track : int;
      (** The Chrome [tid]: the recording domain's track, the [tid] an
          {!instant} caller passed, or 0 for a {!complete}. *)
  name : string;
  cat : string;
  depth : int;  (** Nesting depth at record time (0 = track root). *)
  path : string;  (** [";"]-joined names from the track root down. *)
  t0 : float;
      (** Since the recorder's epoch: seconds on the wall clock, cycles
          on a simulated-cycle recorder. *)
  dur : float;  (** Same unit as [t0]; 0 for an instant. *)
  instant : bool;  (** A point event rather than a span. *)
  args : (string * arg) list;
}

type track_info = {
  track_id : int;
  label : string;  (** ["domain-<id>"] of the registering domain. *)
}

val spans : t -> span list
(** Every retained event across all tracks, sorted by start time (ties
    by track then depth). *)

val self_times : t -> (span * float) list
(** {!spans}, in order, each paired with its self time: [dur] minus the
    durations of its retained direct children, clamped at 0. One stack
    pass per track; both {!to_collapsed} and {!Domprof.of_spans} fold
    these. *)

val track_infos : t -> track_info list
(** Tracks in registration order. *)

val recorded : t -> int
(** Events ever recorded (including dropped), summed over tracks. *)

val dropped : t -> int
(** Events overwritten by ring wrap-around — the explicit
    [spans_dropped] counter; surfaced again by
    {!Domprof.record_metrics}. *)

val unbalanced : t -> int
(** [end_] calls that found no open frame. *)

val open_frames : t -> int
(** Frames begun but never ended (not exported). Public so a caller can
    check that its spans are balanced. *)

(** {1 Export} *)

val to_chrome_json : t -> string
(** [{"traceEvents":[...],...}] with [otherData] naming the clock
    (["wall-clock-us"] or ["simulated-cycles"]) and the real
    [dropped_events] count. A simulated-cycle recorder exports its ring
    in emission order. A wall-clock recorder exports
    [process_name]/[thread_name] metadata (one named Perfetto lane per
    domain), one [ph:"X"] event per span in {!spans} order, and a
    [spans_dropped] instant when a ring wrapped. *)

val to_collapsed : t -> string
(** Collapsed-stack flamegraph format, one
    ["domain-N;stack;frames <self-time-us>"] line per distinct stack,
    sorted; feed to [flamegraph.pl] or speedscope. *)
