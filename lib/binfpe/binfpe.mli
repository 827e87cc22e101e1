(** Reimplementation of BinFPE (Laguna, Li, Gopalakrishnan — SOAP '22),
    the baseline GPU-FPX is evaluated against (paper §2.3).

    Faithful to its published design and to the drawbacks the GPU-FPX
    paper lists:
    - instruments every FP {e arithmetic} instruction, but none of the
      control-flow opcodes in Table 1's right column (FSEL, FSET, FSETP,
      FMNMX, DSETP are missed);
    - records the destination register value of every dynamic execution
      in every lane and ships it to the host over the channel — no
      dedup, no device-side checking;
    - the host classifies the values and reports exceptions. *)

type finding = {
  kernel : string;
  pc : int;
  loc : string;
  fmt : Fpx_sass.Isa.fp_format;
  exce : Fpx_tool.Exce.t;
}

val covers : Fpx_sass.Isa.opcode -> bool
(** The opcodes BinFPE instruments: FP32 and FP64 arithmetic
    ({!Fpx_sass.Isa.is_fp32_compute} or {!Fpx_sass.Isa.is_fp64_compute}).
    Each gets the {!Fpx_sass.Site.plan} check GPU-FPX injects there. *)

type t

val create : Fpx_gpu.Device.t -> t

val tool : t -> Fpx_tool.instance
(** Attach with {!Fpx_nvbit.Runtime.attach}. *)

val findings : t -> finding list
(** Host-deduplicated unique findings (the report the real tool prints
    at exit). *)

val records_received : t -> int
(** Total (pre-dedup) records the host processed — the transfer-volume
    number that explains the slowdown gap. *)
