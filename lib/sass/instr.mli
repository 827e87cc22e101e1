(** SASS instructions.

    The accessors mirror the NVBit inspection API GPU-FPX uses
    ([getSASS], [getOperand], [getNumOperands], ...): the destination is
    operand 0, sources follow. *)

type loc = { file : string; line : int }
(** Source location, when line info was compiled in (closed-source
    kernels carry none and report as ["/unknown_path"]:0). *)

type t = {
  pc : int;  (** Index within the program; assigned by {!Program.make}. *)
  op : Isa.opcode;
  guard : Operand.t option;  (** Instruction-level predicate guard @P/@!P *)
  operands : Operand.t array;  (** Destination first, then sources. *)
  loc : loc option;
}

val make :
  ?guard:Operand.t -> ?loc:loc -> Isa.opcode -> Operand.t list -> t
(** Build an instruction with [pc = -1]; {!Program.make} renumbers. *)

val num_operands : t -> int
val get_operand : t -> int -> Operand.t

val dest_reg_num : t -> int option
(** Operand 0 as a register; for a store, its address. This is the raw
    operand, not the register footprint: which registers an instruction
    reads and writes, and at what width, is {!Decode.reads} /
    {!Decode.writes}. *)

val sass_string : t -> string
(** SASS rendering, e.g. ["FFMA R1, R88, R104, R1 ;"]. *)

val loc_string : t -> string
(** ["file:line"] or ["/unknown_path:0"]. *)
