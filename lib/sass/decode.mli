(** The decode layer: compile a {!Program} once into a flat array of
    pre-decoded micro-ops. This is the one operand decoder: the
    executor ([Fpx_gpu.Exec]) runs these micro-ops, and the abstract
    interpreter ([Fpx_static.Absint]) steps over the same ones.

    Decoding moves every per-instruction interpretation cost out of the
    dynamic path: operands become integer-indexed descriptors (register
    slots validated against the launch register file, [Generic] strings
    and immediates parsed to bits, constant-bank offsets extracted),
    destination registers and predicates are precomputed, and each
    static instruction carries its {!Isa.base_cost}.

    Observable behaviour is frozen against the reference interpreter
    (the test-only oracle under [test/oracle/]): a malformed operand —
    a predicate where a float was expected, an unparsable [GENERIC]
    string, a register index past the file, a mutant with a missing
    operand — does {e not} fail at decode
    time. It decodes to a {e poison} descriptor carrying the exact
    exception the reference core would raise, and raises it only when
    the operand is dynamically read (or the destination dynamically
    written). A malformed instruction that is never executed, or whose
    poisoned source is never selected (FSEL/SEL read only the selected
    input), therefore behaves exactly as before — which campaign
    [detail] strings and fuzz oracles observe byte-for-byte.

    Register values in the execute layer's flat file are stored as
    zero-extended 32-bit words in native [int]s; immediates here are
    pre-converted to that representation (with source modifiers and
    decode-time FTZ already applied). *)

exception Trap of string
(** Simulator fault: malformed operand, bad address.
    Poison descriptors carry it; [Fpx_gpu.Exec.Trap] is the same
    exception. *)

(** FP32 source: produces 32-bit float bits (zero-extended int).
    [_m] variants carry neg/abs modifiers and whether the program-level
    FTZ applies to this read; plain variants are the raw fast path. *)
type f32src =
  | F32_reg of int
  | F32_reg_m of { r : int; neg : bool; abs : bool; ftz : bool }
  | F32_imm of int  (** Modifiers and FTZ pre-applied at decode time. *)
  | F32_cb of int  (** Constant-bank byte offset, raw. *)
  | F32_cb_m of { off : int; neg : bool; abs : bool; ftz : bool }
  | F32_poison of exn

(** FP64 source: a register pair [(r, r+1)], immediate, or constant
    bank; produces a [float]. *)
type f64src =
  | F64_reg of int
  | F64_reg_m of { r : int; neg : bool; abs : bool }
  | F64_imm of float
  | F64_cb of { off : int; neg : bool; abs : bool }
  | F64_poison of exn

(** Integer source (modifiers ignored, as in the reference core). *)
type i32src =
  | I32_reg of int
  | I32_imm of int
  | I32_cb of int
  | I32_poison of exn

(** Predicate source, packed as [p lor (negated lsl 3)]; [p = 7] is
    PT. *)
type predsrc = P_src of int | P_poison of exn

(** Register destination. [D_sink] is RZ (write dropped). For pair
    destinations [D_reg d] writes [d] and [d+1] with per-word RZ
    checks at write time. *)
type dst = D_reg of int | D_sink | D_poison of exn

(** Predicate destination; writes to PT ([PD_reg 7]) are dropped. *)
type pdst = PD_reg of int | PD_poison of exn

(** 64-bit store source: a raw register pair (modifiers ignored, per
    the reference STG/STS.64 semantics) or any FP64 value source. *)
type v64src = V64_pair of int | V64_val of f64src

(** Guard predicate, packed as in {!predsrc}. *)
type guard = G_none | G_p of int | G_poison of exn

type uop =
  | U_fadd of { d : dst; a : f32src; b : f32src }
  | U_fmul of { d : dst; a : f32src; b : f32src }
  | U_ffma of { d : dst; a : f32src; b : f32src; c : f32src }
  | U_mufu_f32 of { d : dst; m : Isa.mufu_op; a : f32src }
  | U_mufu_64h of { d : dst; m : Isa.mufu_op; a : i32src }
      (** [Rcp64h]/[Rsq64h]: a raw high word in, a raw high word out. *)
  | U_hadd2 of { d : dst; a : i32src; b : i32src }
  | U_hmul2 of { d : dst; a : i32src; b : i32src }
  | U_hfma2 of { d : dst; a : i32src; b : i32src; c : i32src }
  | U_dadd of { d : dst; a : f64src; b : f64src }
  | U_dmul of { d : dst; a : f64src; b : f64src }
  | U_dfma of { d : dst; a : f64src; b : f64src; c : f64src }
  | U_fsel of { d : dst; a : f32src; b : f32src; p : predsrc }
      (** FSEL and SEL: raw 32-bit select, sources decoded FTZ-free;
          only the selected source is read. *)
  | U_fset of { d : dst; c : Isa.cmp; a : f32src; b : f32src }
  | U_fsetp of { pd : pdst; c : Isa.cmp; a : f32src; b : f32src }
  | U_fmnmx of { d : dst; a : f32src; b : f32src; p : predsrc }
  | U_dsetp of { pd : pdst; c : Isa.cmp; a : f64src; b : f64src }
  | U_psetp of { pd : pdst; op : Isa.pbool; p1 : predsrc;
                 p2 : predsrc }
  | U_fchk of { pd : pdst; a : f32src; b : f32src }
  | U_f32_of_f64 of { d : dst; a : f64src }
  | U_f64_of_f32 of { d : dst; a : f32src }
  | U_f32_of_f32 of { d : dst; a : f32src }
  | U_f64_of_f64 of { d : dst; a : f64src }
  | U_f16_of_f32 of { d : dst; a : f32src }
  | U_f32_of_f16 of { d : dst; a : i32src }
  | U_i2f32 of { d : dst; a : i32src }
  | U_i2f64 of { d : dst; a : i32src }
  | U_f2i32 of { d : dst; a : f32src }
  | U_f2i64 of { d : dst; a : f64src }
  | U_mov of { d : dst; a : i32src }
  | U_iadd of { d : dst; a : i32src; b : i32src }
  | U_imad of { d : dst; a : i32src; b : i32src; c : i32src }
  | U_isetp of { pd : pdst; c : Isa.cmp; a : i32src; b : i32src }
  | U_shl of { d : dst; a : i32src; b : i32src }
  | U_shr of { d : dst; a : i32src; b : i32src }
  | U_and of { d : dst; a : i32src; b : i32src }
  | U_or of { d : dst; a : i32src; b : i32src }
  | U_xor of { d : dst; a : i32src; b : i32src }
  | U_ldg32 of { d : dst; addr : i32src }
  | U_ldg64 of { d : dst; addr : i32src }
  | U_stg32 of { addr : i32src; v : i32src }
  | U_stg64 of { addr : i32src; v : v64src }
  | U_lds32 of { d : dst; addr : i32src }
  | U_lds64 of { d : dst; addr : i32src }
  | U_sts32 of { addr : i32src; v : i32src }
  | U_sts64 of { addr : i32src; v : v64src }
  | U_atom_add of { d : dst; fp : bool; addr : i32src; v : i32src }
  | U_s2r of { d : dst; r : Isa.sreg }
  | U_bra of int
  | U_bra_poison of exn
  | U_bar
  | U_exit
  | U_nop
  | U_trap of exn  (** Unsupported conversions: trap when executed. *)

type entry = {
  uop : uop;
  guard : guard;
  cost : int;  (** {!Isa.base_cost}, precomputed. *)
}

type t = {
  prog : Program.t;
  entries : entry array;  (** Indexed by pc. *)
  nslots : int;
      (** Register slots per lane in the flat file: [n_regs + 2], the
          same headroom the reference core allocates (so Reg_flip
          coordinates [reg mod nslots] are unchanged). *)
}

val dst : uop -> (dst * Isa.width) option
(** The register destination of a micro-op and its width ([W64] for a
    pair); [None] for predicate writes, stores, control flow and
    [U_trap]. *)

(** {1 Register footprint}

    Which registers a micro-op reads and writes, at what width: the one
    place this is decided. [(r, W64)] is the pair [(r, r+1)]. *)

val reads : uop -> (int * Isa.width) list
(** The registers read as values, in operand order. Load, store and
    atomic addresses are excluded (an FP value never flows through an
    address untrapped), and so are RZ, immediates and poisoned operands. *)

val writes : uop -> (int * Isa.width) list
(** The register destination of {!dst}; nothing for a predicate write, a
    store, control flow, RZ, a poisoned destination or [U_trap]. *)

val words : (int * Isa.width) list -> int list
(** The 32-bit registers a footprint covers. *)

val shares_reg : uop -> bool
(** A word of {!writes} is a word of {!reads} (["FADD R6, R1, R6"], or
    overlapping FP64 pairs): the analyzer's SHARED REGISTER state. *)

val program : Program.t -> t
(** Compile; never raises. Malformed operands become poison
    descriptors (see above). *)
