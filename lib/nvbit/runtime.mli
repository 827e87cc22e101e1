(** The NVBit runtime: intercepts every kernel launch on a device
    (the LD_PRELOAD position in Figure 1), lets the attached tool
    JIT-instrument the kernel, decides per-invocation whether the
    instrumented version runs, and accounts for JIT and interception
    overhead.

    Since the Engine/Tool split the runtime is tool-agnostic: it drives
    any {!Fpx_tool.instance} — the detector, the analyzer, the BinFPE
    baseline, or a {!Fpx_tool.stack} of them — through the same
    lifecycle (should-instrument → instrument-once-per-kernel →
    on-launch-begin → run → on-drain). *)

type t

type request = {
  kernel : string;
  grid : int;
  block : int;
  params : Fpx_gpu.Param.t list;
}
(** What the host asked {!launch} for. A launch ledger compares whole
    requests with [compare], so [grid], [block] and [params] are read
    though no code names them. *)

val create : Fpx_gpu.Device.t -> t
val device : t -> Fpx_gpu.Device.t

val attach : t -> Fpx_tool.instance -> unit
(** Attach a tool (resets the JIT cache). Tools are packed with
    [X.tool], e.g. [attach rt (Gpu_fpx.Detector.tool d)]. *)

val launch :
  t ->
  ?grid:int ->
  ?block:int ->
  params:Fpx_gpu.Param.t list ->
  Fpx_sass.Program.t ->
  unit
(** Run a kernel (default [grid=1], [block=32]) under interception.
    Charges, when the tool enables instrumentation for this invocation:
    [jit_launch_fixed + jit_per_instr × static-instructions] (the
    per-launch JIT-ting the paper's sampling exists to avoid), and runs
    the instrumented code; otherwise charges only the fixed interception
    cost. *)

val invocations : t -> kernel:string -> int
val totals : t -> Fpx_gpu.Stats.t
(** Aggregate stats across all launches since creation. *)

val set_on_launch : t -> (request -> Fpx_gpu.Stats.t -> unit) option -> unit
(** Install (or clear) a hook called after every completed launch with
    that launch's request and stats — after drains, watchdog checks, and
    shared-meter accounting. The tenancy executor parks its yield point
    here so a deterministic arbiter can interleave launches from several
    tenants' streams, and a launch ledger records its checkpoints here;
    [None] by default. *)

val set_replay :
  t ->
  (request -> (Fpx_gpu.Stats.t * Fpx_gpu.Memory.image) option) option ->
  unit
(** Install (or clear) the replay hook, asked first by every {!launch}.
    [Some (stats, image)] replays a recorded launch instead of running
    it: the tool's on-launch-begin, the executor and the drain are
    skipped; the image is installed as the device memory, the stats are
    added to {!totals}, the launch's warp-steps are counted off the
    fault plan's countdown ({!Fpx_fault.Fault.arch_skip}) and the
    kernel's invocation count moves on. The watchdog check and the
    on-launch hook then run as after an executed launch. [None] (and
    the default, no hook) runs the launch. *)
