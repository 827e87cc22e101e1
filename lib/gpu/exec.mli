(** The SIMT executor — the execute layer of the two-stage core.

    Warps are 32 threads wide; divergence uses min-PC reconvergence:
    each step executes the instruction at the smallest pc any live lane
    is waiting at, with exactly the lanes parked there active. This
    reproduces the architectural behaviour the paper's tools observe —
    per-warp execution with an active mask, warp-uniform instruction
    identity, per-lane register values.

    Programs are compiled once by {!Fpx_sass.Decode} into flat micro-op
    arrays and executed over unboxed per-warp state (a flat [int] register
    file, predicate bitsets); {!run} decodes on the fly, callers with a
    cache (the NVBit runtime) pre-decode and use {!run_decoded}. This is
    the library's only interpreter; the original tree-walking core is
    kept under [test/oracle/] as the semantic oracle it is
    differentially tested against.

    Each warp step is vectorised: the micro-op is matched once, its
    lane-invariant operands (register index, immediate or constant-bank
    value, FP32 modifiers) are resolved once, and the arm loops over the
    executing lanes in ascending order. A warp is {e converged} (one pc
    and a live-lane mask: its next step costs O(1)) or {e diverged}
    (per-lane pcs, scanned once per step for the minimum pc, the lanes
    parked there and the live lanes; it reconverges when those two masks
    are equal). Only a branch taken by some but not all of a converged
    warp's lanes diverges it; a partial [EXIT] only clears live bits.
    The warp states and the shared segment belong to the {!Device.t}
    (see {!Device.warp}) and are reused by its later launches.

    Instrumentation is injected per static instruction as before/after
    callbacks (the NVBit model). Callbacks receive the launch's
    {!Stats.t} for cost accounting and a {!warp_api} view of the
    executing warp: plain data (the warp index, the executing-lane mask
    and the register file), built once per warp slice with no closure,
    whose registers a tool reads through {!word}. *)

exception Trap of string
(** Simulator fault: malformed operand, bad address. The same exception
    as {!Fpx_sass.Decode.Trap}. *)

exception Watchdog of string
(** A watchdog ended the run: the executor's step budget ran out
    (["watchdog: kernel K exceeded N instrs"]), or the NVBit runtime's
    slowdown watchdog fired. The harness reports it as a hang. *)

type warp_api = {
  warp_index : int;  (** Global warp index within the launch. *)
  mutable executing : int;
      (** The lanes at this pc whose guard predicate held — the lanes
          whose destination registers the instruction actually wrote —
          as a mask: bit [l] set means lane [l] executes. Iterate it in
          ascending lane order. (Mutable so the executor can reuse one
          view per warp; callbacks must not retain it across
          invocations.) *)
  regs : int array;
      (** The warp's register file, [lane * nslots + r]: zero-extended
          32-bit words. Read it through {!word}. *)
  nslots : int;  (** Register slots per lane. *)
}

val word : warp_api -> lane:int -> int -> int
(** [word api ~lane r] is lane [lane]'s register [r] as a zero-extended
    32-bit word; RZ reads 0. Allocates nothing.
    @raise Trap ["register Rn out of range"] when [r] is past the
    kernel's register slots. *)

type callback = Stats.t -> warp_api -> unit

type injection = {
  fixed_cost : int;
      (** Cycles charged per dynamic execution (trampoline + value
          materialisation); computed by the NVBit layer from
          {!Cost.t}. *)
  fn : callback;
}

type hooks = {
  before : injection list array;  (** Indexed by pc. *)
  after : injection list array;
}

val no_hooks : Fpx_sass.Program.t -> hooks
(** Empty injection tables sized for the program: an uninstrumented
    run. Public as the shape a caller fills to instrument by hand. *)

val run :
  ?hooks:hooks ->
  device:Device.t ->
  grid:int ->
  block:int ->
  params:Param.t list ->
  Fpx_sass.Program.t ->
  Stats.t
(** Execute a launch; returns this launch's stats (one launch counted).
    Decodes the program (uncached) and runs it with {!run_decoded}.
    [hooks] defaults to {!no_hooks}; only tests instrument by hand.
    @raise Watchdog when the launch exceeds its step budget: 50M
    warp-instructions, or the device's fault plan's
    {!Fpx_fault.Fault.budget} when that is smaller.
    @raise Trap on malformed programs and bad addresses. *)

val run_decoded :
  ?hooks:hooks ->
  device:Device.t ->
  grid:int ->
  block:int ->
  params:Param.t list ->
  Fpx_sass.Decode.t ->
  Stats.t
(** Same contract as {!run}, over a pre-decoded program — the path the
    NVBit runtime takes with its per-kernel decode cache. *)
