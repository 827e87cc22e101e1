(** Deterministic fault injection for the GPU-FPX stack.

    A fault {!plan} is a seeded set of independent decision streams, one
    per named injection {!site}. Every layer that can fail consults the
    plan at its site: the channel (record drop, bit corruption in
    transit, stall bursts, host-drain failure), the NVBit runtime
    (per-kernel JIT instrumentation failure), the detector (global-table
    allocation failure), and the executor (device-memory bit flips —
    silent data corruption — and watchdog-budget exhaustion).

    Determinism is the contract: the plan owns a splittable PRNG (no
    wall clock, no global [Random] state), each site draws from its own
    stream split off the seed, so the decision sequence at one site is
    independent of how decisions interleave across sites, and two runs
    built from the same {!spec} make byte-identical decisions.

    {!none} is the default everywhere a plan is threaded through
    ([Device.t], like the observability sink): layers guard with one
    [match] on {!active} and pay nothing when injection is off. *)

(** The plan's splittable SplitMix64 PRNG, exposed so other seeded
    subsystems (the differential fuzzer's per-case streams) share one
    generator with identical determinism guarantees. [stream ~seed i]
    derives the [i]-th independent stream from a seed — the exact
    derivation the fault plan uses per site, so refactors stay
    byte-identical. No wall clock, no global [Random] state. *)
module Prng : sig
  type t

  val make : seed:int -> t
  (** The seed's stream 0. *)

  val stream : seed:int -> int -> t
  (** The [i]-th independent stream off [seed]: mixing interleaved draws
      from streams [i] and [j] never perturbs either sequence. *)

  val split : t -> int -> t
  (** Derive a child stream from the parent's next draw and a tag
      (advances the parent). *)

  val next : t -> int64
  val bits : t -> int
  (** 62 uniform bits as a non-negative int. *)

  val uniform : t -> float
  (** [0, 1), 53-bit resolution. *)

  val int : t -> int -> int
  (** Uniform in [\[0, n)]; always advances the stream, even for
      [n <= 1]. *)

  val bool : t -> float -> bool
  (** [true] with probability [p]. *)

  val pick : ?what:string -> t -> 'a array -> 'a
  (** Uniform element of a non-empty array.
      @raise Invalid_argument on an empty array, naming [what] (the
      drawing site) so a campaign shard fails with
      ["Fault.Prng.pick(campaign.targets): empty array"] instead of an
      anonymous out-of-bounds deep in a worker domain. *)
end

type site =
  | Channel_drop  (** A device→host record is lost (after retries). *)
  | Channel_corrupt  (** A record's bits are garbled in transit. *)
  | Channel_stall  (** A push hits an extra stall burst. *)
  | Drain_fail  (** A host-side drain loses everything pending. *)
  | Jit_fail  (** JIT instrumentation fails for one kernel. *)
  | Gt_alloc_fail  (** The 4 MB global-table allocation fails. *)
  | Mem_bit_flip  (** A global-memory load returns a flipped bit (SDC). *)
  | Watchdog_exhaust  (** The launch watchdog budget is slashed. *)
  | Reg_bit_flip
      (** A register-file bit flips at a targeted dynamic instruction
          (architectural state; see {!arch}). *)
  | Shmem_bit_flip
      (** A shared-memory bit flips at a targeted dynamic instruction. *)
  | Instr_bit_flip
      (** An instruction's encoded fields are mutated at JIT time. *)

val all_sites : site list
val site_to_string : site -> string

val site_of_string : string -> site option
(** Inverse of {!site_to_string} (the CLI's [--fault-kinds] names). *)

(** A targeted architectural fault: exactly one flip at exact
    coordinates, the unit of a bit-flip campaign. Unlike the rate-driven
    sites, an [arch] fault names {e where} and {e when} — the campaign
    engine samples the coordinates from a golden run's dynamic profile.
    Coordinates are plain ints (and the kernel a string) so this
    library keeps zero dependencies.

    - [Reg_flip]: flip bit [bit] of register [reg] in lane [lane] of the
      warp scheduled at dynamic warp-step [at_dyn]. FP64 register pairs
      are covered by targeting either half.
    - [Shmem_flip]: flip bit [bit] of 32-bit word [word] in the
      executing block's shared-memory segment at warp-step [at_dyn].
    - [Instr_flip]: mutate instruction [pc] of [kernel] at JIT time;
      [sel] selects deterministically among the encoded-field mutations
      (opcode class, operand index, immediate bit). *)
type arch =
  | Reg_flip of { at_dyn : int; lane : int; reg : int; bit : int }
  | Shmem_flip of { at_dyn : int; word : int; bit : int }
  | Instr_flip of { kernel : string; pc : int; sel : int }

val arch_site : arch -> site
val arch_to_string : arch -> string

type spec = {
  seed : int;
  rate : float;
  sites : site list;
  arch : arch option;
  budget : int option;
}
(** Immutable description of a plan: instantiate a fresh {!plan} from it
    per run (see {!of_spec}) and identical runs stay identical. [rate]
    is the per-decision injection probability applied to every enabled
    site; [arch] is an optional targeted architectural fault; [budget]
    caps the executor's per-launch watchdog budget (a campaign's
    per-injection hang guard). *)

val spec :
  ?sites:site list -> ?rate:float -> ?arch:arch -> ?budget:int ->
  seed:int -> unit -> spec
(** Defaults: all sites, rate 0.01, no architectural fault, no budget
    override. *)

type active
type plan

val none : plan
(** No injection; the zero-cost default. *)

val of_spec : spec -> plan
(** A fresh plan: new streams, zeroed counters. *)

val active : plan -> active option
val is_active : plan -> bool

val seed : active -> int
val rate : active -> float

val roll : active -> site -> bool
(** Advance the site's stream; [true] iff the fault should inject here.
    Does not count an injection — callers that retry (the channel's
    bounded backoff) roll several times but {!note} only the final
    outcome. *)

val note : active -> site -> unit
(** Record one injected fault at the site. *)

val fire : active -> site -> bool
(** [roll] and, when true, [note] — the common single-shot case. *)

val draw : active -> site -> int
(** A non-negative pseudo-random int from the site's stream (bit
    positions for corruption/flips). *)

val injected : active -> site -> int
(** Faults actually injected at the site so far. *)

val injected_counts : active -> (site * int) list
(** Non-zero sites, in {!all_sites} order. *)

val total_injected : active -> int

val reasons : active -> string list
(** Human-readable degradation reasons, e.g. ["channel-drop(3)"]; empty
    when nothing injected. *)

(** {1 Targeted architectural faults} *)

val arch : active -> arch option
(** The plan's architectural fault, if any. *)

val budget : active -> int option
(** Per-launch watchdog-budget cap, if the spec set one. *)

val arch_tick : active -> arch option
(** Advance the plan's warp-step countdown; returns the [Reg_flip] /
    [Shmem_flip] descriptor exactly once, at the targeted dynamic
    instruction, and [None] on every other call. The executor calls
    this once per warp-step when a plan is active; the countdown
    persists across kernel launches, so [at_dyn] addresses the whole
    program run. O(1). *)

val arch_skip : active -> int -> unit
(** [arch_skip a n] counts [n] warp-steps off the countdown at once, as
    [n] calls of {!arch_tick} that do not fire would: the steps of a
    launch replayed instead of executed. A no-op once the flip fired or
    when the plan has none to count down to.
    @raise Invalid_argument when the flip would land within the [n]
    steps. *)

val arch_instr_flip : active -> kernel:string -> (int * int) option
(** [(pc, sel)] when the plan targets an [Instr_flip] at this kernel —
    returned at {e every} launch of the kernel (the mutation is
    deterministic, so re-applying is idempotent), noted only once. *)

val arch_fired : active -> bool
(** [true] once the architectural fault has been delivered (flip
    applied, or instruction mutation handed to the JIT). *)
