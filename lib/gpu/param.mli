(** Kernel launch parameters.

    Parameters are marshalled into constant bank 0 starting at byte
    offset 0x160, mirroring the CUDA ABI, and kernels read them through
    CBANK operands. *)

type t =
  | I32 of int32
  | F32 of Fpx_num.Fp32.t
  | F64 of float
  | Ptr of int  (** Device address returned by {!Memory.alloc}. *)

val size_bytes : t -> int
(** 4 for I32/F32/Ptr, 8 for F64 (aligned to 8). *)

val offsets : t list -> int list
(** Byte offset of each parameter under the ABI layout. *)

val marshal : t list -> Bytes.t
(** Parameter space image: 0x160 zero bytes (the first parameter's
    offset in constant bank 0) then the params. *)
