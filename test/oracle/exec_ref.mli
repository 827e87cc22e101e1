(** The reference SIMT interpreter — the original tree-walking core,
    frozen bit-for-bit as the semantic oracle for {!Fpx_gpu.Exec}'s
    decoded engine. It ships in no library: [test/test_decode.ml] runs
    every kernel through both engines and compares memory digests,
    detector logs, stats and trap messages byte for byte, and
    [bench/main.exe exec] times the decoded engine against it.

    It shares the decoded engine's hook ABI ({!Fpx_gpu.Exec.hooks}) and
    raises the same {!Fpx_sass.Decode.Trap} and
    {!Fpx_gpu.Exec.Watchdog}. *)

val run :
  ?hooks:Fpx_gpu.Exec.hooks ->
  device:Fpx_gpu.Device.t ->
  grid:int ->
  block:int ->
  params:Fpx_gpu.Param.t list ->
  Fpx_sass.Program.t ->
  Fpx_gpu.Stats.t
(** Execute a launch on the reference core; identical contract to
    {!Fpx_gpu.Exec.run}. *)
