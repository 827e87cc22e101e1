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

let suite_to_string = function
  | Rodinia -> "gpu-rodinia"
  | Shoc -> "shoc"
  | Parboil -> "parboil"
  | Gpgpu_sim -> "GPGPU_SIM"
  | Ecp_proxy -> "Exascale Proxy Applications"
  | Polybench -> "polybenchGpu"
  | Hpc_benchmarks -> "NVIDIA HPC-Benchmarks"
  | Cuda_samples -> "cuda-samples"
  | Ml_open_issues -> "ML open issues"

let all_suites =
  [ Rodinia; Shoc; Parboil; Gpgpu_sim; Ecp_proxy; Polybench; Hpc_benchmarks;
    Cuda_samples; Ml_open_issues ]

type ctx = { rt : Fpx_nvbit.Runtime.t; mode : Fpx_klang.Mode.t }

type t = {
  name : string;
  suite : suite;
  description : string;
  kernels : Fpx_klang.Ast.kernel list;
  run : ctx -> unit;
  repair : (ctx -> unit) option;
  meaningful : bool;
}

let make ~name ~suite ?(description = "") ?repair ?(meaningful = true)
    ~kernels run =
  { name; suite; description; kernels; run; repair; meaningful }

let compile ctx k = Fpx_klang.Compile.compile ~mode:ctx.mode k
let device ctx = Fpx_nvbit.Runtime.device ctx.rt
let memory ctx = (device ctx).Fpx_gpu.Device.memory

let f32s ctx xs =
  let m = memory ctx in
  let addr = Fpx_gpu.Memory.alloc m ~bytes:(4 * Array.length xs) in
  Fpx_gpu.Memory.write_f32_array m ~addr xs;
  addr

let f64s ctx xs =
  let m = memory ctx in
  let addr = Fpx_gpu.Memory.alloc m ~bytes:(8 * Array.length xs) in
  Fpx_gpu.Memory.write_f64_array m ~addr xs;
  addr

let i32s ctx xs =
  let m = memory ctx in
  let addr = Fpx_gpu.Memory.alloc m ~bytes:(4 * Array.length xs) in
  Fpx_gpu.Memory.write_i32_array m ~addr xs;
  addr

let zeros ctx ~bytes = Fpx_gpu.Memory.alloc_zeroed (memory ctx) ~bytes
let uninit ctx ~bytes = Fpx_gpu.Memory.alloc (memory ctx) ~bytes

let launch ctx ?grid ?block prog params =
  Fpx_nvbit.Runtime.launch ctx.rt ?grid ?block ~params prog

let const n x = Array.make n x

let randf ~seed ?(lo = 0.0) ?(hi = 1.0) n =
  let state = ref (seed * 2654435761 land 0x3fffffff) in
  if !state = 0 then state := 42;
  Array.init n (fun _ ->
      let x = !state in
      let x = x lxor (x lsl 13) land 0x3fffffff in
      let x = x lxor (x lsr 17) in
      let x = x lxor (x lsl 5) land 0x3fffffff in
      state := x;
      lo +. ((hi -. lo) *. (float_of_int x /. 1073741824.0)))
