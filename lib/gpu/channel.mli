(** The device→host communication channel (NVBit's channel API).

    Pushes are charged to the run's stats at [cost.channel_record]
    cycles; once a launch has pushed more than [cost.channel_capacity]
    records, every further record also pays [cost.channel_stall] —
    the congestion that makes BinFPE hang on chatty programs and that
    GPU-FPX's global-table dedup avoids (paper §4.2).

    A record is a fixed-size packet of three ints, as NVBit's channel
    is a buffer of fixed-size packets: each tool encodes what it ships
    into them (an exception-record index, a site id and a value's two
    words, an index into a side table). Packets live in one off-heap
    int buffer ([Bigarray]: the GC neither scans nor zero-fills it), so
    a push allocates nothing once it has grown. A drain that empties the
    channel hands the buffer to its domain's one spare slot, and the
    next push on that domain takes it back: short runs on one domain
    reuse one buffer instead of growing a fresh one each. Taking empties
    the slot, so two live channels never share a buffer.

    Records carry a checksum so that injected in-transit corruption
    (see {!Fpx_fault.Fault}) is detected at the host and the record
    discarded rather than mis-decoded. With an active fault plan a push
    may fail; failed pushes are retried up to [cost.retry_limit] times
    with doubling backoff before the record is dropped, and a drain may
    fail outright, losing everything pending. With
    {!Fpx_fault.Fault.none} the channel is exact: every record arrives,
    in push order. *)

type t

val create :
  ?fault:Fpx_fault.Fault.plan ->
  ?bw:Bandwidth.binding ->
  cost:Cost.t ->
  unit ->
  t
(** [fault] defaults to {!Fpx_fault.Fault.none}; pass the device's plan
    to subject this channel to injection. [bw] (absent by default) ties
    the channel to a shared multi-tenant {!Bandwidth} meter: neighbour
    traffic then narrows the effective capacity, adds per-record
    contention stalls, and caps drain budgets — except under
    {!Bandwidth.partition.Compute_memory}, where the reserved lane makes
    the channel behave exactly as if unmetered. *)

val new_launch : t -> unit
(** Reset the per-launch congestion counter. *)

val push : t -> stats:Stats.t -> int -> int -> int -> unit
(** [push t ~stats a b c] sends the packet [(a, b, c)]. *)

val push_lanes :
  t -> stats:Stats.t -> Exec.warp_api -> int -> lo:int -> hi:int -> unit
(** [push_lanes t ~stats api a ~lo ~hi] pushes one warp step's records:
    for each executing lane of [api], in ascending lane order, the
    packet [(a, Exec.word api ~lane lo, Exec.word api ~lane hi)] (pass
    {!Fpx_sass.Operand.rz} as [hi] for a one-word value). It charges,
    counts and queues exactly what that many {!push} calls would. With
    no active fault plan and no {!Bandwidth} binding it makes one room
    check and one closed-form charge for the step; otherwise it is those
    {!push} calls, so fault draws and contention stalls keep their
    order. *)

val try_push : t -> stats:Stats.t -> int -> int -> int -> bool
(** Like {!push} but reports delivery: [false] means the record was
    dropped by an injected fault after exhausting its retries (callers
    with replay machinery — the detector's global table — can undo their
    dedup mark so the record gets another chance later). *)

val drain : t -> stats:Stats.t -> (int -> int -> int -> unit) -> int
(** [drain t ~stats f] receives pending records in push order, calling
    [f a b c] on each, and returns how many it delivered. Each record
    consumed costs [cost.host_per_record] host cycles. Corrupted records
    are counted (see {!corrupt_detected}) and dropped. On a meter-bound
    channel a saturated shared memory path caps how many records one
    drain may consume ({!Bandwidth.drain_budget}); the rest stay queued,
    in order, and {!drains_delayed} is incremented. *)

val pushed_this_launch : t -> int

val dropped : t -> int
(** Records lost to injected push failures (after retries). *)

val corrupt_detected : t -> int
(** Records whose checksum failed at drain time. Public, with
    {!dropped}, {!drain_failures} and {!retries}, as the channel's
    fault counters. *)

val drain_failures : t -> int
(** Drains an injected drain fault made fail. *)

val retries : t -> int

val drains_delayed : t -> int
(** Drains that could not consume everything pending because neighbour
    traffic capped their budget. *)

val queued : t -> int
(** Records still pending delivery (stranded findings if the run is
    over). *)

val effective_capacity : t -> int
(** The per-launch congestion threshold currently in force:
    [cost.channel_capacity], narrowed by neighbour traffic when the
    channel is bound to a shared {!Bandwidth} meter. *)

(** {1 Checkpoints} *)

type state
(** The counters above and the pending packets, copied. *)

val state : t -> state

val restore : t -> state -> unit
(** Make [t]'s counters and queue those of the state. *)

val equal_state : t -> state -> bool
