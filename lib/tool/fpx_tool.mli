(** The Engine/Tool seam.

    An exception-detection tool — the detector, the analyzer, the BinFPE
    baseline, or any composition of them — is a value of {!S} driven by
    the NVBit-style runtime through one fixed lifecycle:

    - {e init}: the tool's [create] function;
    - {e on-launch}: {!S.should_instrument} + {!S.on_launch_begin};
    - {e before-instr} / {e after-instr}: the callbacks the tool plants
      with {!Inject.insert_before} / {!Inject.insert_after} inside
      {!S.instrument};
    - {e on-drain}: {!S.on_drain}, after the kernel completes.

    The runtime knows only this interface, so every tool — and every
    stack of tools — flows through a single code path. What a tool found
    is read from the concrete tool after the run, as plain data, by
    whoever built it (the harness's [Runner]). *)

module Exce = Exce
module Inject = Inject

module type S = sig
  type t

  val name : t -> string
  (** Display name, e.g. ["GPU-FPX detector"]. *)

  val should_instrument : t -> kernel:string -> invocation:int -> bool
  (** Algorithm 3's per-invocation decision ([invocation] counts
      from 0). *)

  val instrument : t -> Fpx_sass.Program.t -> Inject.t -> unit
  (** JIT-time instrumentation: plant before/after callbacks on the
      builder. Called once per kernel (the runtime caches the result).
      A tool that installs a prune predicate must reset it before
      returning so stacked tools behind it are unaffected. *)

  val on_launch_begin : t -> Fpx_gpu.Stats.t -> unit
  val on_drain : t -> Fpx_gpu.Stats.t -> kernel:string -> unit
  (** Called after the kernel completes — where tools drain their
      channel and emit early notifications. *)
end

type instance = Instance : (module S with type t = 'a) * 'a -> instance
(** A tool packed with its state — what {!Fpx_nvbit.Runtime.attach}
    accepts. *)

val name : instance -> string
val should_instrument : instance -> kernel:string -> invocation:int -> bool
val instrument : instance -> Fpx_sass.Program.t -> Inject.t -> unit
val on_launch_begin : instance -> Fpx_gpu.Stats.t -> unit
val on_drain : instance -> Fpx_gpu.Stats.t -> kernel:string -> unit

val stack : instance list -> instance
(** Compose tools: every member instruments the same kernel binary and
    drains after every launch. Instrumentation is all-or-nothing per
    launch, so the stack instruments whenever {e any} member's sampling
    policy would. *)
