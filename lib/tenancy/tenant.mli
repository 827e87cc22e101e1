(** The tenant model: who is running what on the shared device, under
    which tool, with which QoS allocation. *)

type t = {
  id : string;  (** Stable name; labels metrics, reports and spans. *)
  program : string;  (** Catalog program this tenant's stream replays. *)
  tool : Fpx_harness.Runner.tool_config;
  slot_share : float;
      (** Fraction of the device's warp slots under partitioned modes. *)
  mem_share : float;
      (** Fraction of the memory-bandwidth tokens under
          {!Fpx_gpu.Bandwidth.partition.Compute_memory}. *)
  priority : int;
      (** Consecutive launch turns per arbitration round (>= 1). *)
}

val make :
  ?tool:Fpx_harness.Runner.tool_config ->
  ?slot_share:float ->
  ?mem_share:float ->
  ?priority:int ->
  program:string ->
  string ->
  t
(** [make ~program id]. Defaults: the GPU-FPX detector, shares of 0.5,
    priority 1. Raises [Invalid_argument] on an empty id, non-positive
    shares, or priority < 1. *)

val parse : string -> (t, string) result
(** Parse the CLI form [id=program[:tool[:share[:priority]]]] — [tool]
    is any name {!Fpx_harness.Toolreg.tool_config_of_name} resolves
    (default [detect]); [share] in (0, 1] applies to both the slot and
    bandwidth allocations. An empty id is an [Error]. *)
