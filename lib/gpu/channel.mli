(** The device→host communication channel (NVBit's channel API).

    Pushes are charged to the run's stats at [cost.channel_record]
    cycles; once a launch has pushed more than [cost.channel_capacity]
    records, every further record also pays [cost.channel_stall] —
    the congestion that makes BinFPE hang on chatty programs and that
    GPU-FPX's global-table dedup avoids (paper §4.2).

    Records carry a checksum so that injected in-transit corruption
    (see {!Fpx_fault.Fault}) is detected at the host and the record
    discarded rather than mis-decoded. With an active fault plan a push
    may fail; failed pushes are retried up to [cost.retry_limit] times
    with doubling backoff before the record is dropped, and a drain may
    fail outright, losing everything pending. With
    {!Fpx_fault.Fault.none} the channel is exact: every record arrives,
    in push order. *)

type 'a t

val create :
  ?fault:Fpx_fault.Fault.plan ->
  ?bw:Bandwidth.binding ->
  cost:Cost.t ->
  unit ->
  'a t
(** [fault] defaults to {!Fpx_fault.Fault.none}; pass the device's plan
    to subject this channel to injection. [bw] (absent by default) ties
    the channel to a shared multi-tenant {!Bandwidth} meter: neighbour
    traffic then narrows the effective capacity, adds per-record
    contention stalls, and caps drain budgets — except under
    {!Bandwidth.partition.Compute_memory}, where the reserved lane makes
    the channel behave exactly as if unmetered. *)

val new_launch : 'a t -> unit
(** Reset the per-launch congestion counter. *)

val push : 'a t -> stats:Stats.t -> 'a -> unit

val try_push : 'a t -> stats:Stats.t -> 'a -> bool
(** Like {!push} but reports delivery: [false] means the record was
    dropped by an injected fault after exhausting its retries (callers
    with replay machinery — the detector's global table — can undo their
    dedup mark so the record gets another chance later). *)

val drain : 'a t -> stats:Stats.t -> 'a list
(** Receive pending records in push order, charging
    [cost.host_per_record] host cycles each. Corrupted records are
    counted (see {!corrupt_detected}) and dropped. On a meter-bound
    channel a saturated shared memory path caps how many records one
    drain may consume ({!Bandwidth.drain_budget}); the rest stay queued
    and {!drains_delayed} is incremented. *)

val pushed_this_launch : 'a t -> int

val dropped : 'a t -> int
(** Records lost to injected push failures (after retries). *)

val corrupt_detected : 'a t -> int
(** Records whose checksum failed at drain time. Public, with
    {!dropped}, {!drain_failures} and {!retries}, as the channel's
    fault counters. *)

val drain_failures : 'a t -> int
(** Drains an injected drain fault made fail. *)

val retries : 'a t -> int

val drains_delayed : 'a t -> int
(** Drains that could not consume everything pending because neighbour
    traffic capped their budget. *)

val queued : 'a t -> int
(** Records still pending delivery (stranded findings if the run is
    over). *)

val effective_capacity : 'a t -> int
(** The per-launch congestion threshold currently in force:
    [cost.channel_capacity], narrowed by neighbour traffic when the
    channel is bound to a shared {!Bandwidth} meter. *)
