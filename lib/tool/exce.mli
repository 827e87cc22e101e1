(** Exception kinds and the exception-record encoding (paper Figure 3).

    A record is the triplet ⟨E_exce, E_loc, E_fp⟩ packed into 20 bits:
    2 bits of exception kind, 16 bits of location index, 2 bits of FP
    format — chosen so the global table stays at 2^20 slots (the paper's
    4 MB budget). *)

type t = Nan | Inf | Sub | Div0

val to_string : t -> string
val equal : t -> t -> bool
val all : t list

val classify :
  fmt:Fpx_sass.Isa.fp_format -> div0:bool -> int -> int -> t option
(** CheckExce (Algorithm 2): the exception a checked value raises.
    [classify ~fmt ~div0 lo hi] reads [lo] as an FP32 value, [lo]/[hi]
    as the two words of an FP64 value, or [lo] as two packed FP16 values
    (the worse half wins: NaN, then INF, then SUB); [hi] is ignored
    outside FP64. Each word is a 32-bit pattern zero-extended into an
    [int], as {!Fpx_gpu.Exec.word} returns it; nothing
    is allocated. With [div0] (a MUFU.RCP/RSQ result) a NaN or INF
    reports [Div0] and anything else [None]. *)

val max_loc : int
(** 2^16 - 1. *)

val table_slots : int
(** 2^20: every possible record index. *)

val encode : loc:int -> fmt:Fpx_sass.Isa.fp_format -> t -> int
(** Pack a record. [loc] is masked to 16 bits. *)

val decode : int -> int * Fpx_sass.Isa.fp_format * t
(** [decode (encode ~loc ~fmt e) = (loc, fmt, e)]. *)
