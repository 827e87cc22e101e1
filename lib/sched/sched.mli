(** Deterministic domain-parallel job scheduler.

    Runs independent jobs — in this repo, whole instrumented program
    runs, each with its own [Device.t] shard, channel and obs sink —
    across N worker domains, returning results {e in input order} so
    every downstream report is byte-identical to the sequential run.

    [jobs <= 1] never touches [Domain] at all: it is a plain sequential
    loop with exactly the sequential semantics, including exception
    propagation order. With [jobs > 1], workers steal the next unclaimed
    input index, each job's exception is captured in its slot, and
    after the join the first failing job in {e input} order is
    re-raised (later jobs may then already have run — the only
    observable difference from the sequential mode).

    When a {!Fpx_obs.Span} recorder is installed, every phase of a run
    emits wall-clock spans on the recording domain's track:
    [sched.map] (args [jobs], [n]) around the whole call, [sched.spawn]
    / [sched.join] on the calling domain, one [sched.worker] span per
    worker domain, a [sched.claim] span per index-steal (isolating
    fetch-and-add contention), one [sched.task] span per job (args [i]
    and [queue_remaining] — the queue-depth sample at dequeue), and
    [sched.materialize] for the input-order result rebuild. With no
    recorder installed the cost per site is one atomic load. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — how many jobs this machine
    can usefully run. *)

(** Persistent worker-domain pool for the serve daemon: create once,
    submit many, shut down once. Pays the domain-spawn cost at
    {!Pool.create} instead of per request — the difference between
    ~100us and ~10ms per request for a daemon serving small programs.

    Tasks submitted from {e inside} a pool task must not [await] on the
    same pool (a task waiting for a slot it is occupying can deadlock a
    fully-loaded pool); fan out from the caller instead. *)
module Pool : sig
  type t

  type 'a outcome = ('a, exn * Printexc.raw_backtrace) result
  (** A computation's result, or the exception it raised with the
      backtrace at the raise point. *)

  val capture : (unit -> 'a) -> 'a outcome
  (** Run the thunk, catching any exception it raises. *)

  val unwrap : 'a outcome -> 'a
  (** The value, or re-raise the exception with its original
      backtrace. *)

  type 'a future
  (** A write-once completion cell: one {!fulfil}, any number of
      {!await}s from any thread or domain. *)

  val promise : unit -> 'a future
  (** An empty cell, for callers that complete it themselves (the
      serve cache's coalesced computes). *)

  val fulfil : 'a future -> 'a outcome -> unit
  (** Publish the outcome and wake every waiter.
      @raise Invalid_argument if the cell is already fulfilled. *)

  val await : 'a future -> 'a
  (** Block until the cell is fulfilled, then {!unwrap} it. *)

  val create : jobs:int -> t
  (** Spawn [jobs] (at least 1) worker domains. *)

  val in_flight : t -> int
  (** Tasks queued plus tasks currently executing — the admission
      signal the serve daemon sheds load on. *)

  val submit : t -> (unit -> 'a) -> 'a future
  (** Enqueue a task; its outcome fulfils the returned cell.
      @raise Invalid_argument after {!shutdown}. *)

  val run : t -> (unit -> 'a) -> 'a
  (** [run t f] is [await (submit t f)]. *)

  val shutdown : t -> unit
  (** Finish queued tasks, join all workers. Idempotent; subsequent
      {!submit} calls raise. *)
end

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] computed on up to [jobs]
    domains (capped at the list length), results in input order. *)
