(** Injection builder — the [nvbit_insert_call] /
    [nvbit_add_call_arg_*] surface.

    A tool inspects a kernel's instructions at JIT time and registers
    device callbacks before/after chosen instructions. Each injection
    declares how many runtime values (registers, cbank words) it
    materialises for the callback; the framework derives the per-dynamic-
    execution cost from that, exactly the overhead knob the paper's
    detector minimises by reading only destination registers. Every
    insert is registered: a tool that prunes sites (the detector's
    static pruning) leaves them out itself. *)

type t

val create : Fpx_gpu.Device.t -> Fpx_sass.Program.t -> t

val insert_before :
  t -> pc:int -> n_values:int -> Fpx_gpu.Exec.callback -> unit
(** @raise Invalid_argument if [pc] is out of range. *)

val insert_after :
  t -> pc:int -> n_values:int -> Fpx_gpu.Exec.callback -> unit

val sites : t -> int
(** Number of injection sites registered so far. *)

val build : t -> Fpx_gpu.Exec.hooks
