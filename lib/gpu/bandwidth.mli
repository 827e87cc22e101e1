(** Shared bandwidth/warp-slot meter for multi-tenant devices.

    One meter is shared by every device participating in a co-run; each
    device carries a {!binding} naming its tenant index. The tenancy
    executor notes each launch's pressure ({!note_launch}); the engine
    and the channel consult the meter at their charging points:

    - {!Exec} charges {!contention_cycles} once per launch
      (warp-slot oversubscription → {!Stats.t.contention_cycles});
    - {!Channel} narrows its congestion threshold to
      {!effective_capacity}, pays {!push_stall} per record while the
      shared memory path is saturated, and caps each drain at
      {!drain_budget} records (the leftovers stay queued — delayed, and
      lost if the run ends first).

    Partitioning restores isolation by construction:
    {!partition.Compute_memory} reserves each tenant a lane, making
    every memory-path answer identical to an unshared device — which is
    what keeps a victim's exception report byte-identical to its solo
    run. All accounting is integer arithmetic over noted launches;
    metered runs are deterministic. *)

type partition =
  | No_partition  (** Free-for-all: both compute and memory shared. *)
  | Compute_only
      (** Disjoint warp-slot allocations; memory path still shared. *)
  | Compute_memory
      (** Disjoint warp slots {e and} reserved memory-bandwidth lanes. *)

val partition_to_string : partition -> string

val partition_of_string : string -> partition option
(** Inverse of {!partition_to_string}; also accepts ["compute+memory"]. *)

type t

val create :
  ?partition:partition -> cost:Cost.t -> shares:(float * float) array -> unit -> t
(** [create ~cost ~shares ()] — one [(slot_share, mem_share)] pair per
    tenant, as fractions of [cost.sm_warp_slots] / [cost.mem_bw_tokens].
    Raises [Invalid_argument] on an empty or non-positive share table.
    [partition] defaults to {!No_partition}. *)

val partition : t -> partition

val note_launch : t -> tenant:int -> records:int -> warps:int -> unit
(** Record the pressure of [tenant]'s most recent launch: channel
    [records] pushed and resident [warps]. *)

val retire : t -> tenant:int -> unit
(** [tenant]'s stream completed: it stops exerting pressure. *)

val neighbour_records : t -> tenant:int -> int
(** Channel records the other live tenants' latest launches pushed.
    Public, with {!neighbour_warps}, as the pressure readings
    {!effective_capacity} and {!drain_budget} are computed from. *)

val neighbour_warps : t -> tenant:int -> int
(** Warp slots the other live tenants' latest launches held. *)

val effective_capacity : t -> tenant:int -> int
(** Per-launch channel capacity left to [tenant] after neighbour
    traffic; never below 32. Full [cost.channel_capacity] under
    {!Compute_memory}. *)

val push_stall : t -> tenant:int -> int
(** Extra device cycles per pushed record while neighbours saturate the
    shared memory path; [0] under {!Compute_memory}. *)

val drain_budget : t -> tenant:int -> queued:int -> int
(** How many of [queued] pending records this drain may consume; at
    least 1 when anything is queued, and all of them under
    {!Compute_memory}. *)

val contention_cycles : t -> tenant:int -> warps:int -> base:int -> int
(** Compute-dilation cycles for a launch of [warps] resident warps whose
    application cost was [base] cycles. Unpartitioned this is the delta
    the neighbours cause on the whole device; partitioned, the cost of
    exceeding the tenant's own slot allocation. *)

type binding = { meter : t; tenant : int }
(** What a device carries: the shared meter plus this device's tenant
    index. *)
