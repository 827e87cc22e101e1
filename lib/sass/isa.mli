(** The SASS-like instruction set.

    Covers every opcode GPU-FPX supports (paper Table 1) — the FP32/FP64
    computation opcodes and the control-flow opcodes — plus the support
    opcodes needed to run whole kernels: FCHK (division slow-path check),
    conversions, integer ALU, memory, special-register reads and
    branches. *)

type fp_format = FP16 | FP32 | FP64

val fp_format_to_string : fp_format -> string

(** MUFU (multi-function / SFU) operations. [Rcp64h]/[Rsq64h] operate on
    the high word of an FP64 register pair. *)
type mufu_op = Rcp | Rsq | Sqrt | Ex2 | Lg2 | Sin | Cos | Rcp64h | Rsq64h

val mufu_is_64h : mufu_op -> bool

val eval_mufu : mufu_op -> int32 -> int32
(** The SFU result bits for one input word ({!Fpx_num.Sfu}): an FP32
    value for the 32-bit ops, the high word of an FP64 pair for
    [Rcp64h]/[Rsq64h]. *)

(** Comparison condition. [or_unordered] gives the [.LTU]-style variants
    that are true when either operand is NaN; plain variants are false on
    NaN — the control-flow-skewing behaviour of §1. *)
type cmp = { op : cmp_op; or_unordered : bool }

and cmp_op = Lt | Le | Gt | Ge | Eq | Ne

val cmp : cmp_op -> cmp
val cmp_u : cmp_op -> cmp
val eval_cmp : cmp -> int option -> bool
(** Evaluate against {!Fpx_num.Fp32.compare_ieee}-style output
    ([None] = unordered). *)

type width = W32 | W64

type sreg = Tid_x | Ntid_x | Ctaid_x | Nctaid_x | Lane_id

(** Predicate combination for PSETP. *)
type pbool = Pand | Por | Pxor

val eval_pbool : pbool -> bool -> bool -> bool
(** PSETP's truth table. *)

(** Atomic operand type for ATOM.ADD. *)
type atom_ty = Af32 | Ai32

type opcode =
  (* FP32 computation (Table 1, left) *)
  | FADD
  | FADD32I
  | FMUL
  | FMUL32I
  | FFMA
  | FFMA32I
  | MUFU of mufu_op
  (* FP64 computation (Table 1, left) *)
  | DADD
  | DMUL
  | DFMA
  (* Packed FP16 computation (extension: the paper's planned FP16
     support; two halves per 32-bit register) *)
  | HADD2
  | HMUL2
  | HFMA2
  (* Control-flow opcodes (Table 1, right) *)
  | FSEL
  | FSET of cmp
  | FSETP of cmp
  | FMNMX
  | DSETP of cmp
  (* Predicate logic (PSETP in real SASS) *)
  | PSETP of pbool
  (* Division / sqrt slow-path support *)
  | FCHK
  (* Conversions: F2F (dst_fmt, src_fmt), I2F/F2I on the given format *)
  | F2F of fp_format * fp_format
  | I2F of fp_format
  | F2I of fp_format
  (* Integer / data movement *)
  | SEL  (** raw 32-bit select (integer/word); never instrumented *)
  | MOV
  | MOV32I
  | IADD
  | IMAD
  | ISETP of cmp
  | SHL
  | SHR
  | LOP_AND
  | LOP_OR
  | LOP_XOR
  (* Memory *)
  | LDG of width
  | STG of width
  | LDS of width  (** shared-memory load (block-local) *)
  | STS of width  (** shared-memory store *)
  | ATOM_ADD of atom_ty
      (** global-memory atomic add (RED.ADD); dest register receives the
          old value *)
  (* Special registers *)
  | S2R of sreg
  (* Control *)
  | BRA
  | BAR  (** block-wide barrier (__syncthreads) *)
  | EXIT
  | NOP

val opcode_to_string : opcode -> string

(** {1 Opcode classes (drive Algorithm 1 and the analyzer)} *)

val is_fp32_compute : opcode -> bool
(** FP32 prefix in Algorithm 1 — includes MUFU except the 64H variants. *)

val is_fp64_compute : opcode -> bool
(** FP64 prefix — DADD/DMUL/DFMA plus MUFU.*64H. *)

val is_fp16_compute : opcode -> bool
(** Packed-half prefix — HADD2/HMUL2/HFMA2 (the FP16 extension).
    Public with its FP32 and FP64 siblings as the compute classes. *)

val is_control_flow : opcode -> bool
(** Table 1 right column: FSEL, FSET, FSETP, FMNMX, DSETP. These are the
    opcodes BinFPE misses. *)

val is_fp_instrumentable : opcode -> bool
(** Any opcode GPU-FPX instruments: FP32/FP64 compute or control flow. *)

val fp_format_of_opcode : opcode -> fp_format option
(** Operating format of an instrumentable opcode. *)

val base_cost : opcode -> int
(** Issue-to-result cost in model cycles (used by the performance
    model). *)

(** {1 Table 1} *)

val table1 : (string * string * [ `Computation | `Control_flow ]) list
(** [(mnemonic, description, class)] — the paper's supported-opcode
    table, for documentation and the structural bench. *)
