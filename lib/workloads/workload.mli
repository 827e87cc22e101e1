(** The benchmark-program catalog framework.

    A workload owns its kernels (written in the kernel language), its
    input data and its launch plan; [run] replays the whole program —
    possibly many kernel launches — against a runtime, exactly like
    running the original binary under LD_PRELOAD interception. *)

type suite =
  | Rodinia
  | Shoc
  | Parboil
  | Gpgpu_sim
  | Ecp_proxy
  | Polybench
  | Hpc_benchmarks
  | Cuda_samples
  | Ml_open_issues

val suite_to_string : suite -> string
val all_suites : suite list

type ctx = { rt : Fpx_nvbit.Runtime.t; mode : Fpx_klang.Mode.t }

type t = {
  name : string;
  suite : suite;
  description : string;
  kernels : Fpx_klang.Ast.kernel list;
  run : ctx -> unit;
  repair : (ctx -> unit) option;
      (** The §5 repaired variant (input or code fix), when one exists. *)
  meaningful : bool;
      (** Exceptions in this program would be meaningful (Table 4's
          inclusion criterion — false for Monte-Carlo/compression-style
          programs). *)
}

val make :
  name:string ->
  suite:suite ->
  ?description:string ->
  ?repair:(ctx -> unit) ->
  ?meaningful:bool ->
  kernels:Fpx_klang.Ast.kernel list ->
  (ctx -> unit) ->
  t
(** Suites pass [repair] and [meaningful] through a partial application
    ([let mk = W.make ~suite:W.Polybench]), which [scripts/knobs.ml]
    cannot follow, so both are on [scripts/exports.allow]. *)

(** {1 Context helpers for writing [run] functions} *)

val compile : ctx -> Fpx_klang.Ast.kernel -> Fpx_sass.Program.t
val device : ctx -> Fpx_gpu.Device.t

val f32s : ctx -> float array -> int
(** Allocate and fill a device FP32 array; returns the address. *)

val f64s : ctx -> float array -> int
val i32s : ctx -> int32 array -> int
val zeros : ctx -> bytes:int -> int
val uninit : ctx -> bytes:int -> int
(** Allocation without initialisation — deterministic garbage, like
    [cudaMalloc] (the SRU bug's root cause). *)

val launch :
  ctx ->
  ?grid:int ->
  ?block:int ->
  Fpx_sass.Program.t ->
  Fpx_gpu.Param.t list ->
  unit

(** {1 Deterministic data generators (never the Random module)} *)

val const : int -> float -> float array

val randf : seed:int -> ?lo:float -> ?hi:float -> int -> float array
(** xorshift-based uniform values, deterministic per seed. *)
