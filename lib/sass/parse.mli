(** Textual SASS parser — the inverse of {!Program.disassemble}.

    Accepts the listing format this library emits (and the close
    variants the paper's listings use): optional [/*addr*/] prefixes,
    [@P0]/[@!P0] guards, dotted mnemonics, comma-separated operands and
    a trailing [;]. Branch targets are byte offsets ([0x30] = pc 3).

    Beyond plain listings, {!file} also understands a small header so
    standalone kernels can be run and instrumented from a file:

    {v
    .kernel solve_kernel
    .launch 2 32            // grid block
    .param ptr 1024         // zero-initialised buffer, bytes
    .param f32 1.5
    .param i32 64
    .budget 5000            // optional watchdog step budget
      /*0000*/ S2R.SR_TID.X R10 ;
      ...
    v} *)

exception Parse_error of { line : int; message : string }

val instruction : string -> Instr.t
(** Parse one instruction line (without the pc prefix having meaning —
    branch targets are resolved to pcs by byte offset / 16).
    @raise Parse_error on malformed input. *)

val program : ?name:string -> string -> Program.t
(** Parse a listing: an optional [.kernel <name>] line followed by
    instruction lines. Blank lines and [//]-comments are skipped.
    @raise Parse_error on malformed input, including a branch target
    outside the kernel (reported on the branch's line). *)

type param_spec =
  | Ptr_bytes of int  (** allocate this many zeroed bytes *)
  | F32 of float
  | F64 of float
  | I32 of int32

type file = {
  prog : Program.t;
  grid : int;
  block : int;
  params : param_spec list;
  budget : int option;
      (** [.budget N]: the per-launch watchdog step budget the kernel
          should run under ([None]: the executor's default). *)
}

val file : string -> file
(** Parse a runnable kernel file with [.launch]/[.param]/[.budget]
    directives (defaults: grid 1, block 32, no params, no budget). A
    budget below 1 is a parse error. *)
