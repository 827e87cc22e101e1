(* The execute layer of the two-stage interpreter core.

   {!Decode} compiles a program once into flat micro-op entries; this
   engine runs them over unboxed per-warp state: one [int array]
   register file per warp indexed [lane * nslots + r] holding
   zero-extended 32-bit words (FP64 as word pairs), and predicate
   bitsets (one lane-mask int per predicate register). The common path
   allocates nothing per instruction: operand descriptors are integer
   indexes resolved at decode time, FP32 arithmetic runs on native
   floats via [Int32.float_of_bits]-style unboxable primitive chains,
   and the per-lane closures of the reference core are gone.

   This is the library's only interpreter. The original tree-walking
   core (the "reference core" below) is frozen under test/oracle/ as
   the semantic oracle; it shares this module's hook ABI, and the two
   must stay observably byte-identical — see the differential
   properties in test/test_decode.ml. *)

open Fpx_sass
module Fp32 = Fpx_num.Fp32
module Fp64 = Fpx_num.Fp64
module Kind = Fpx_num.Kind
module Fault = Fpx_fault.Fault

exception Trap = Decode.Trap

type ctx = { device : Device.t; stats : Stats.t }

type warp_api = {
  warp_index : int;
  block : int;
  mutable executing_lanes : int list;
  read_reg : lane:int -> int -> int32;
  read_pred : lane:int -> int -> bool;
  read_cbank : offset:int -> int32;
  global_tid : lane:int -> int;
}

type callback = ctx -> warp_api -> unit
type injection = { fixed_cost : int; fn : callback }
type hooks = { before : injection list array; after : injection list array }

let no_hooks prog =
  let n = Program.length prog in
  { before = Array.make n []; after = Array.make n [] }

let warp_size = 32
let done_pc = max_int

let trapf fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

(* Unboxed warp state: zero-extended 32-bit words and lane bitmasks. *)
type wstate = { regs : int array; preds : int array; pcs : int array }

(* FP32 on raw bits held in native ints. The float round trips below
   replicate the reference core's [Fp32] calls exactly: compute in
   double, round through [Int32.bits_of_float]. *)
let[@inline] f32f bits = Int32.float_of_bits (Int32.of_int bits)
let[@inline] f32b f = Int32.to_int (Int32.bits_of_float f) land 0xffffffff

let[@inline] is_nan32 bits = bits land 0x7fffffff > 0x7f800000

let[@inline] ftz32 bits =
  if bits land 0x7f800000 = 0 && bits land 0x7fffff <> 0 then
    bits land 0x80000000
  else bits

let[@inline] mod_f32 bits ~neg ~abs ~ftz =
  let b = if ftz then ftz32 bits else bits in
  let b = if abs then b land 0x7fffffff else b in
  if neg then b lxor 0x80000000 else b

let min_nv32 a b =
  if is_nan32 a then b
  else if is_nan32 b then a
  else if f32f a <= f32f b then a
  else b

let max_nv32 a b =
  if is_nan32 a then b
  else if is_nan32 b then a
  else if f32f a >= f32f b then a
  else b

let cb_read32 cb off =
  if off + 4 <= Bytes.length cb then
    Int32.to_int (Bytes.get_int32_le cb off) land 0xffffffff
  else 0

let cb_read64 cb off =
  if off + 8 <= Bytes.length cb then
    Int64.float_of_bits (Bytes.get_int64_le cb off)
  else 0.0

let rd_f32 regs base cb (s : Decode.f32src) =
  match s with
  | Decode.F32_reg r -> Array.unsafe_get regs (base + r)
  | Decode.F32_reg_m { r; neg; abs; ftz } ->
    mod_f32 (Array.unsafe_get regs (base + r)) ~neg ~abs ~ftz
  | Decode.F32_imm v -> v
  | Decode.F32_cb off -> cb_read32 cb off
  | Decode.F32_cb_m { off; neg; abs; ftz } ->
    mod_f32 (cb_read32 cb off) ~neg ~abs ~ftz
  | Decode.F32_poison e -> raise e

(* Register pair to double; decode guaranteed the indexes in range,
   only the per-word RZ reads remain dynamic. *)
let[@inline] pair_float regs base r =
  let lo = if r = 255 then 0 else Array.unsafe_get regs (base + r) in
  let h = r + 1 in
  let hi = if h = 255 then 0 else Array.unsafe_get regs (base + h) in
  Int64.float_of_bits
    (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))

let rd_f64 regs base cb (s : Decode.f64src) =
  match s with
  | Decode.F64_reg r -> pair_float regs base r
  | Decode.F64_reg_m { r; neg; abs } ->
    let v = pair_float regs base r in
    let v = if abs then Float.abs v else v in
    if neg then Float.neg v else v
  | Decode.F64_imm v -> v
  | Decode.F64_cb { off; neg; abs } ->
    let v = cb_read64 cb off in
    let v = if abs then Float.abs v else v in
    if neg then Float.neg v else v
  | Decode.F64_poison e -> raise e

let rd_i32 regs base cb (s : Decode.i32src) =
  match s with
  | Decode.I32_reg r -> Array.unsafe_get regs (base + r)
  | Decode.I32_imm v -> v
  | Decode.I32_cb off -> cb_read32 cb off
  | Decode.I32_poison e -> raise e

let rd_v64_bits regs base cb (s : Decode.v64src) =
  match s with
  | Decode.V64_pair r ->
    let lo = if r = 255 then 0 else Array.unsafe_get regs (base + r) in
    let h = r + 1 in
    let hi = if h = 255 then 0 else Array.unsafe_get regs (base + h) in
    Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
  | Decode.V64_val f -> Int64.bits_of_float (rd_f64 regs base cb f)

let[@inline] rd_pred preds ~lane (p : Decode.predsrc) =
  match p with
  | Decode.P_src packed ->
    let q = packed land 7 in
    let v = q = 7 || (Array.unsafe_get preds q lsr lane) land 1 = 1 in
    if packed >= 8 then not v else v
  | Decode.P_poison e -> raise e

let[@inline] wr32_raw regs base (d : Decode.dst) v =
  match d with
  | Decode.D_reg r -> Array.unsafe_set regs (base + r) v
  | Decode.D_sink -> ()
  | Decode.D_poison e -> raise e

let[@inline] wr32 ~ftz regs base d v =
  wr32_raw regs base d (if ftz then ftz32 v else v)

let wr_pair_words regs base (d : Decode.dst) lo hi =
  match d with
  | Decode.D_reg r ->
    if r <> 255 then Array.unsafe_set regs (base + r) lo;
    let h = r + 1 in
    if h <> 255 then Array.unsafe_set regs (base + h) hi
  | Decode.D_sink -> ()
  | Decode.D_poison e -> raise e

let wr_pair_float regs base d v =
  let b = Int64.bits_of_float v in
  wr_pair_words regs base d
    (Int64.to_int b land 0xffffffff)
    (Int64.to_int (Int64.shift_right_logical b 32) land 0xffffffff)

let wr_pred preds ~lane (pd : Decode.pdst) v =
  match pd with
  | Decode.PD_reg p ->
    if p <> 7 then
      Array.unsafe_set preds p
        (let m = Array.unsafe_get preds p in
         if v then m lor (1 lsl lane) else m land lnot (1 lsl lane))
  | Decode.PD_poison e -> raise e

(* FCHK: would the fast reciprocal-based division path be unsafe for
   a / b? Exceptional denominators and range-extreme operands force the
   IEEE slow path. A NaN (or zero) numerator is left on the fast path:
   the Newton refinement still produces the IEEE-correct NaN (or zero)
   quotient there, so hardware has no reason to trap it — and that NaN
   consequently flows through the refinement FMAs, which is how precise
   compilation exposes more NaN sites than fast-math (Table 6). *)
let fchk_needs_slowpath a b =
  let ca = Fp32.classify a and cb = Fp32.classify b in
  let extreme x =
    let e = Fp32.exponent_field x in
    e <= 23 || e >= 232
  in
  match ca, cb with
  | _, (Kind.Nan | Kind.Inf | Kind.Zero | Kind.Subnormal) -> true
  | (Kind.Inf | Kind.Subnormal), _ -> true
  | (Kind.Nan | Kind.Zero), Kind.Normal -> false
  | Kind.Normal, Kind.Normal -> extreme a || extreme b

let one_bits = 0x3f800000

(* Per-lane micro-op effect; returns the lane's next pc. Source reads
   keep the reference core's evaluation order (OCaml right-to-left
   argument order there), so a poisoned operand raises at the same
   dynamic point with the same message. *)
let exec_lane ~ftz ~flt ~(stats : Stats.t) st cbank0 ~mem ~shared ~lane ~base
    ~warp_in_block ~block ~grid ~block_dim ~next (u : Decode.uop) =
  let regs = st.regs in
  match u with
  | Decode.U_fadd { d; a; b } ->
    let vb = rd_f32 regs base cbank0 b in
    let va = rd_f32 regs base cbank0 a in
    wr32 ~ftz regs base d (f32b (f32f va +. f32f vb));
    next
  | Decode.U_fmul { d; a; b } ->
    let vb = rd_f32 regs base cbank0 b in
    let va = rd_f32 regs base cbank0 a in
    wr32 ~ftz regs base d (f32b (f32f va *. f32f vb));
    next
  | Decode.U_ffma { d; a; b; c } ->
    let vc = rd_f32 regs base cbank0 c in
    let vb = rd_f32 regs base cbank0 b in
    let va = rd_f32 regs base cbank0 a in
    wr32 ~ftz regs base d (f32b (Float.fma (f32f va) (f32f vb) (f32f vc)));
    next
  | Decode.U_mufu_f32 { d; m; a } ->
    let r = Isa.eval_mufu m (Int32.of_int (rd_f32 regs base cbank0 a)) in
    wr32_raw regs base d (Int32.to_int r land 0xffffffff);
    next
  | Decode.U_mufu_64h { d; m; a } ->
    let r = Isa.eval_mufu m (Int32.of_int (rd_i32 regs base cbank0 a)) in
    wr32_raw regs base d (Int32.to_int r land 0xffffffff);
    next
  | Decode.U_hadd2 { d; a; b } ->
    let vb = rd_i32 regs base cbank0 b in
    let va = rd_i32 regs base cbank0 a in
    let r = Fpx_num.Fp16.add2 (Int32.of_int va) (Int32.of_int vb) in
    wr32_raw regs base d (Int32.to_int r land 0xffffffff);
    next
  | Decode.U_hmul2 { d; a; b } ->
    let vb = rd_i32 regs base cbank0 b in
    let va = rd_i32 regs base cbank0 a in
    let r = Fpx_num.Fp16.mul2 (Int32.of_int va) (Int32.of_int vb) in
    wr32_raw regs base d (Int32.to_int r land 0xffffffff);
    next
  | Decode.U_hfma2 { d; a; b; c } ->
    let vc = rd_i32 regs base cbank0 c in
    let vb = rd_i32 regs base cbank0 b in
    let va = rd_i32 regs base cbank0 a in
    let r =
      Fpx_num.Fp16.fma2 (Int32.of_int va) (Int32.of_int vb) (Int32.of_int vc)
    in
    wr32_raw regs base d (Int32.to_int r land 0xffffffff);
    next
  | Decode.U_dadd { d; a; b } ->
    let vb = rd_f64 regs base cbank0 b in
    let va = rd_f64 regs base cbank0 a in
    wr_pair_float regs base d (va +. vb);
    next
  | Decode.U_dmul { d; a; b } ->
    let vb = rd_f64 regs base cbank0 b in
    let va = rd_f64 regs base cbank0 a in
    wr_pair_float regs base d (va *. vb);
    next
  | Decode.U_dfma { d; a; b; c } ->
    let vc = rd_f64 regs base cbank0 c in
    let vb = rd_f64 regs base cbank0 b in
    let va = rd_f64 regs base cbank0 a in
    wr_pair_float regs base d (Float.fma va vb vc);
    next
  | Decode.U_fsel { d; a; b; p } ->
    (* raw 32-bit select: only the selected source is read *)
    let v =
      if rd_pred st.preds ~lane p then rd_f32 regs base cbank0 a
      else rd_f32 regs base cbank0 b
    in
    wr32_raw regs base d v;
    next
  | Decode.U_fset { d; c; a; b } ->
    let vb = rd_f32 regs base cbank0 b in
    let va = rd_f32 regs base cbank0 a in
    let r =
      Isa.eval_cmp c (Fp32.compare_ieee (Int32.of_int va) (Int32.of_int vb))
    in
    wr32_raw regs base d (if r then one_bits else 0);
    next
  | Decode.U_fsetp { pd; c; a; b } ->
    let vb = rd_f32 regs base cbank0 b in
    let va = rd_f32 regs base cbank0 a in
    wr_pred st.preds ~lane pd
      (Isa.eval_cmp c (Fp32.compare_ieee (Int32.of_int va) (Int32.of_int vb)));
    next
  | Decode.U_fmnmx { d; a; b; p } ->
    let va = rd_f32 regs base cbank0 a in
    let vb = rd_f32 regs base cbank0 b in
    let v =
      if rd_pred st.preds ~lane p then min_nv32 va vb else max_nv32 va vb
    in
    wr32 ~ftz regs base d v;
    next
  | Decode.U_dsetp { pd; c; a; b } ->
    let vb = rd_f64 regs base cbank0 b in
    let va = rd_f64 regs base cbank0 a in
    wr_pred st.preds ~lane pd (Isa.eval_cmp c (Fp64.compare_ieee va vb));
    next
  | Decode.U_psetp { pd; op; p1; p2 } ->
    let v1 = rd_pred st.preds ~lane p1 in
    let v2 = rd_pred st.preds ~lane p2 in
    wr_pred st.preds ~lane pd (Isa.eval_pbool op v1 v2);
    next
  | Decode.U_fchk { pd; a; b } ->
    let vb = rd_f32 regs base cbank0 b in
    let va = rd_f32 regs base cbank0 a in
    wr_pred st.preds ~lane pd
      (fchk_needs_slowpath (Int32.of_int va) (Int32.of_int vb));
    next
  | Decode.U_f32_of_f64 { d; a } ->
    let v = rd_f64 regs base cbank0 a in
    wr32 ~ftz regs base d (f32b v);
    next
  | Decode.U_f64_of_f32 { d; a } ->
    let va = rd_f32 regs base cbank0 a in
    wr_pair_float regs base d (f32f va);
    next
  | Decode.U_f32_of_f32 { d; a } ->
    let va = rd_f32 regs base cbank0 a in
    wr32 ~ftz regs base d va;
    next
  | Decode.U_f64_of_f64 { d; a } ->
    let v = rd_f64 regs base cbank0 a in
    wr_pair_float regs base d v;
    next
  | Decode.U_f16_of_f32 { d; a } ->
    let va = rd_f32 regs base cbank0 a in
    wr32_raw regs base d (Fpx_num.Fp16.of_float (f32f va));
    next
  | Decode.U_f32_of_f16 { d; a } ->
    let va = rd_i32 regs base cbank0 a in
    wr32_raw regs base d (f32b (Fpx_num.Fp16.to_float (va land 0xffff)));
    next
  | Decode.U_i2f32 { d; a } ->
    let va = rd_i32 regs base cbank0 a in
    wr32_raw regs base d (f32b (Int32.to_float (Int32.of_int va)));
    next
  | Decode.U_i2f64 { d; a } ->
    let va = rd_i32 regs base cbank0 a in
    wr_pair_float regs base d (Int32.to_float (Int32.of_int va));
    next
  | Decode.U_f2i32 { d; a } ->
    let v = f32f (rd_f32 regs base cbank0 a) in
    wr32_raw regs base d
      (if Float.is_nan v then 0 else Int32.to_int (Int32.of_float v) land 0xffffffff);
    next
  | Decode.U_f2i64 { d; a } ->
    let v = rd_f64 regs base cbank0 a in
    wr32_raw regs base d
      (if Float.is_nan v then 0 else Int32.to_int (Int32.of_float v) land 0xffffffff);
    next
  | Decode.U_mov { d; a } ->
    wr32_raw regs base d (rd_i32 regs base cbank0 a);
    next
  | Decode.U_iadd { d; a; b } ->
    let vb = rd_i32 regs base cbank0 b in
    let va = rd_i32 regs base cbank0 a in
    wr32_raw regs base d ((va + vb) land 0xffffffff);
    next
  | Decode.U_imad { d; a; b; c } ->
    let vc = rd_i32 regs base cbank0 c in
    let vb = rd_i32 regs base cbank0 b in
    let va = rd_i32 regs base cbank0 a in
    wr32_raw regs base d (((va * vb) + vc) land 0xffffffff);
    next
  | Decode.U_isetp { pd; c; a; b } ->
    let vb = rd_i32 regs base cbank0 b in
    let va = rd_i32 regs base cbank0 a in
    wr_pred st.preds ~lane pd
      (Isa.eval_cmp c
         (Some (Int32.compare (Int32.of_int va) (Int32.of_int vb))));
    next
  | Decode.U_shl { d; a; b } ->
    let vb = rd_i32 regs base cbank0 b in
    let va = rd_i32 regs base cbank0 a in
    wr32_raw regs base d ((va lsl (vb land 31)) land 0xffffffff);
    next
  | Decode.U_shr { d; a; b } ->
    let vb = rd_i32 regs base cbank0 b in
    let va = rd_i32 regs base cbank0 a in
    wr32_raw regs base d (va lsr (vb land 31));
    next
  | Decode.U_and { d; a; b } ->
    let vb = rd_i32 regs base cbank0 b in
    let va = rd_i32 regs base cbank0 a in
    wr32_raw regs base d (va land vb);
    next
  | Decode.U_or { d; a; b } ->
    let vb = rd_i32 regs base cbank0 b in
    let va = rd_i32 regs base cbank0 a in
    wr32_raw regs base d (va lor vb);
    next
  | Decode.U_xor { d; a; b } ->
    let vb = rd_i32 regs base cbank0 b in
    let va = rd_i32 regs base cbank0 a in
    wr32_raw regs base d (va lxor vb);
    next
  | Decode.U_ldg32 { d; addr } ->
    let addr = rd_i32 regs base cbank0 addr in
    let v = Memory.load_i32 mem ~addr in
    let v =
      (* modelled silent data corruption: a flipped bit in the loaded
         word, the raw material for downstream exception analysis *)
      match flt with
      | Some a when Fault.fire a Fault.Mem_bit_flip ->
        Int32.logxor v
          (Int32.shift_left 1l (Fault.draw a Fault.Mem_bit_flip land 31))
      | _ -> v
    in
    wr32_raw regs base d (Int32.to_int v land 0xffffffff);
    next
  | Decode.U_ldg64 { d; addr } ->
    let addr = rd_i32 regs base cbank0 addr in
    let v = Memory.load_i64 mem ~addr in
    let v =
      match flt with
      | Some a when Fault.fire a Fault.Mem_bit_flip ->
        Int64.logxor v
          (Int64.shift_left 1L (Fault.draw a Fault.Mem_bit_flip land 63))
      | _ -> v
    in
    wr_pair_words regs base d
      (Int64.to_int v land 0xffffffff)
      (Int64.to_int (Int64.shift_right_logical v 32) land 0xffffffff);
    next
  | Decode.U_stg32 { addr; v } ->
    let addr = rd_i32 regs base cbank0 addr in
    Memory.store_i32 mem ~addr (Int32.of_int (rd_i32 regs base cbank0 v));
    next
  | Decode.U_stg64 { addr; v } ->
    let addr = rd_i32 regs base cbank0 addr in
    Memory.store_i64 mem ~addr (rd_v64_bits regs base cbank0 v);
    next
  | Decode.U_lds32 { d; addr } ->
    let addr = rd_i32 regs base cbank0 addr in
    if addr + 4 > Bytes.length shared then trapf "shared load out of bounds";
    if addr + 4 > stats.Stats.shmem_hwm then
      stats.Stats.shmem_hwm <- addr + 4;
    wr32_raw regs base d
      (Int32.to_int (Bytes.get_int32_le shared addr) land 0xffffffff);
    next
  | Decode.U_lds64 { d; addr } ->
    let addr = rd_i32 regs base cbank0 addr in
    if addr + 8 > Bytes.length shared then trapf "shared load out of bounds";
    if addr + 8 > stats.Stats.shmem_hwm then
      stats.Stats.shmem_hwm <- addr + 8;
    let v = Bytes.get_int64_le shared addr in
    wr_pair_words regs base d
      (Int64.to_int v land 0xffffffff)
      (Int64.to_int (Int64.shift_right_logical v 32) land 0xffffffff);
    next
  | Decode.U_sts32 { addr; v } ->
    let addr = rd_i32 regs base cbank0 addr in
    if addr + 4 > Bytes.length shared then trapf "shared store out of bounds";
    if addr + 4 > stats.Stats.shmem_hwm then
      stats.Stats.shmem_hwm <- addr + 4;
    Bytes.set_int32_le shared addr (Int32.of_int (rd_i32 regs base cbank0 v));
    next
  | Decode.U_sts64 { addr; v } ->
    let addr = rd_i32 regs base cbank0 addr in
    if addr + 8 > Bytes.length shared then trapf "shared store out of bounds";
    if addr + 8 > stats.Stats.shmem_hwm then
      stats.Stats.shmem_hwm <- addr + 8;
    Bytes.set_int64_le shared addr (rd_v64_bits regs base cbank0 v);
    next
  | Decode.U_atom_add { d; fp; addr; v } ->
    (* lanes execute in ascending order (the executor's lane loop), so
       the read-modify-write below is race-free and deterministic *)
    let addr = rd_i32 regs base cbank0 addr in
    let old = Int32.to_int (Memory.load_i32 mem ~addr) land 0xffffffff in
    let vv = rd_i32 regs base cbank0 v in
    let updated =
      if fp then f32b (f32f old +. f32f vv) else (old + vv) land 0xffffffff
    in
    Memory.store_i32 mem ~addr (Int32.of_int updated);
    wr32_raw regs base d old;
    next
  | Decode.U_s2r { d; r } ->
    let v =
      match r with
      | Isa.Tid_x -> (warp_in_block * warp_size) + lane
      | Isa.Ntid_x -> block_dim
      | Isa.Ctaid_x -> block
      | Isa.Nctaid_x -> grid
      | Isa.Lane_id -> lane mod warp_size
    in
    wr32_raw regs base d (v land 0xffffffff);
    next
  | Decode.U_bra target -> target
  | Decode.U_bra_poison e -> raise e
  | Decode.U_exit -> done_pc
  | Decode.U_nop -> next
  | Decode.U_trap e -> raise e
  | Decode.U_bar ->
    (* barriers are handled by the block scheduler, never here *)
    trapf "BAR reached the lane executor"

let shared_mem_bytes = 48 * 1024

(* On a multi-tenant device, a launch whose warp-slot demand collides
   with its neighbours' (or overflows its partition's allocation) pays
   dilation proportional to its own application cycles — charged once
   per launch, after the work is accounted, so the contention share
   stays attributable. *)
let charge_slot_contention ~device ~grid ~block (stats : Stats.t) =
  match device.Device.bw with
  | None -> ()
  | Some b ->
    let warps = grid * ((block + warp_size - 1) / warp_size) in
    let extra =
      Bandwidth.contention_cycles b.Bandwidth.meter ~tenant:b.Bandwidth.tenant
        ~warps ~base:stats.base_cycles
    in
    if extra > 0 then
      stats.contention_cycles <- stats.contention_cycles + extra

let run_decoded ?hooks ?(max_dyn_instrs = 50_000_000) ~device ~grid ~block
    ~params (d : Decode.t) =
  let prog = d.Decode.prog in
  let entries = d.Decode.entries in
  let nslots = d.Decode.nslots in
  let stats = Stats.create () in
  stats.launches <- 1;
  let hooks = match hooks with Some h -> h | None -> no_hooks prog in
  if Array.length hooks.before <> Program.length prog then
    trapf "hooks length mismatch for kernel %s" prog.Program.name;
  let cbank0 = Param.marshal params in
  let mem = device.Device.memory in
  let ftz = prog.Program.ftz in
  let warps_per_block = (block + warp_size - 1) / warp_size in
  let flt = Fault.active device.Device.fault in
  (* Watchdog-budget exhaustion fault: the launch starts with a slashed
     instruction budget, so a kernel that would complete instead traps on
     the watchdog — the runner reports it as a hung run. *)
  let effective_budget =
    match flt with
    | Some a when Fault.fire a Fault.Watchdog_exhaust ->
      max 1 (max_dyn_instrs / 100_000)
    | _ -> max_dyn_instrs
  in
  (* A campaign's per-injection watchdog: the plan may carry a hard cap
     so a flip that sends the program into a loop traps promptly instead
     of burning the full default budget. *)
  let effective_budget =
    match flt with
    | Some a -> (
      match Fault.budget a with
      | Some b -> min effective_budget (max 1 b)
      | None -> effective_budget)
    | None -> effective_budget
  in
  let budget = ref effective_budget in
  let ctx = { device; stats } in
  (* Observability: when the device carries an active sink, count
     dynamic executions per static instruction (O(1) per step) and flag
     divergence transitions; everything is flushed once at the end so
     the hot loop stays allocation-free. Disabled ⇒ a single match. *)
  let obs = Fpx_obs.Sink.active device.Device.obs in
  let pc_counts =
    match obs with
    | Some _ -> Array.make (Program.length prog) 0
    | None -> [||]
  in
  let divergent_steps =
    match obs with
    | Some a ->
      Some
        (Fpx_obs.Metrics.counter a.Fpx_obs.Sink.metrics
           ~help:"Warp-steps executed with at least one live lane parked \
                  at a different pc"
           "fpx_warp_divergent_steps_total")
    | None -> None
  in
  (* Blocks reuse one segment of shared memory (zeroed, though real shared
     memory is not: clean programs stay clean) and one set of warp states. *)
  let shared = Bytes.create shared_mem_bytes in
  let warps =
    Array.init warps_per_block (fun _ ->
        { regs = Array.make (warp_size * nslots) 0;
          preds = Array.make 8 0;
          pcs = Array.make warp_size 0 })
  in
  for blk = 0 to grid - 1 do
    Bytes.fill shared 0 shared_mem_bytes '\000';
    Array.iteri
      (fun w st ->
        let live = max 0 (min warp_size (block - (w * warp_size))) in
        Array.fill st.regs 0 (Array.length st.regs) 0;
        Array.fill st.preds 0 8 0;
        Array.fill st.pcs 0 live 0;
        Array.fill st.pcs live (warp_size - live) done_pc)
      warps;
    (* `Run: can make progress; `Bar: parked at a barrier; `Done *)
    let status = Array.make warps_per_block `Run in
    let diverged = Array.make warps_per_block false in
    let run_warp_slice w =
      let st = warps.(w) in
      let regs = st.regs in
      let preds = st.preds in
      let pcs = st.pcs in
      let warp_index = (blk * warps_per_block) + w in
      let api =
        {
          warp_index;
          block = blk;
          executing_lanes = [];
          read_reg =
            (fun ~lane r ->
              if r = Operand.rz then 0l
              else if r < nslots then Int32.of_int regs.((lane * nslots) + r)
              else trapf "register R%d out of range" r);
          read_pred =
            (fun ~lane p ->
              if p = Operand.pt then true
              else (preds.(p) lsr lane) land 1 = 1);
          read_cbank =
            (fun ~offset ->
              if offset + 4 <= Bytes.length cbank0 then
                Bytes.get_int32_le cbank0 offset
              else 0l);
          global_tid = (fun ~lane -> (blk * block) + (w * warp_size) + lane);
        }
      in
      let fire inj =
        stats.tool_cycles <- stats.tool_cycles + inj.fixed_cost;
        inj.fn ctx api
      in
      let min_pc () =
        let m = ref done_pc in
        for lane = 0 to warp_size - 1 do
          if pcs.(lane) < !m then m := pcs.(lane)
        done;
        !m
      in
      let rec step () =
        let m = min_pc () in
        if m = done_pc then `Done
        else begin
          decr budget;
          if !budget <= 0 then
            trapf "watchdog: kernel %s exceeded %d instrs" prog.Program.name
              effective_budget;
          (* Targeted architectural flips (campaign injections): the
             plan counts warp-steps down to the targeted dynamic
             instruction and fires exactly once, into whichever warp is
             scheduled at that step — deterministic, because block and
             warp scheduling are. The flat file preserves the reference
             core's coordinates: lane land 31, reg mod nslots. *)
          (match flt with
          | Some a when not (Fault.arch_fired a) -> (
            match Fault.arch_tick a with
            | Some (Fault.Reg_flip { lane; reg; bit; _ }) ->
              let lane = lane land (warp_size - 1) in
              let r = reg mod nslots in
              let idx = (lane * nslots) + r in
              regs.(idx) <- regs.(idx) lxor (1 lsl (bit land 31))
            | Some (Fault.Shmem_flip { word; bit; _ }) ->
              let addr = word mod (Bytes.length shared / 4) * 4 in
              let v = Bytes.get_int32_le shared addr in
              Bytes.set_int32_le shared addr
                (Int32.logxor v (Int32.shift_left 1l (bit land 31)))
            | Some (Fault.Instr_flip _) | None -> ())
          | _ -> ());
          (* Bounds-checked: mutants can branch past the program end, and
             the reference core's [Program.instr] raises there too. *)
          let e = entries.(m) in
          (match obs with
          | None -> ()
          | Some a ->
            pc_counts.(m) <- pc_counts.(m) + 1;
            let dv = ref false in
            for lane = 0 to warp_size - 1 do
              if pcs.(lane) <> m && pcs.(lane) <> done_pc then dv := true
            done;
            if !dv then
              Option.iter Fpx_obs.Metrics.incr divergent_steps;
            if !dv <> diverged.(w) then begin
              diverged.(w) <- !dv;
              Fpx_obs.Span.instant a.Fpx_obs.Sink.trace ~tid:warp_index
                ~name:(if !dv then "warp_diverge" else "warp_reconverge")
                ~cat:"simt"
                ~ts:
                  (Fpx_obs.Sink.now a
                     ~launch_cycles:(Stats.total_cycles stats))
                ~args:
                  [ ("kernel", Fpx_obs.Span.S prog.Program.name);
                    ("pc", Fpx_obs.Span.I m) ]
                ()
            end);
          match e.Decode.uop with
          | Decode.U_bar ->
            (* every live lane must have arrived *)
            for lane = 0 to warp_size - 1 do
              if pcs.(lane) <> m && pcs.(lane) <> done_pc then
                trapf "divergent barrier in kernel %s at pc %d"
                  prog.Program.name m
            done;
            stats.dyn_instrs <- stats.dyn_instrs + 1;
            stats.base_cycles <- stats.base_cycles + e.Decode.cost;
            `Bar
          | u ->
            stats.dyn_instrs <- stats.dyn_instrs + 1;
            stats.base_cycles <- stats.base_cycles + e.Decode.cost;
            let mask =
              match e.Decode.guard with
              | Decode.G_none -> -1
              | Decode.G_p packed ->
                let q = packed land 7 in
                let mv = if q = 7 then -1 else Array.unsafe_get preds q in
                if packed >= 8 then lnot mv else mv
              | Decode.G_poison ex -> raise ex
            in
            let hooked = hooks.before.(m) <> [] || hooks.after.(m) <> [] in
            if hooked then begin
              let executing = ref [] in
              for lane = warp_size - 1 downto 0 do
                if pcs.(lane) = m && (mask lsr lane) land 1 = 1 then
                  executing := lane :: !executing
              done;
              api.executing_lanes <- !executing
            end;
            if hooked then List.iter fire hooks.before.(m);
            for lane = 0 to warp_size - 1 do
              if Array.unsafe_get pcs lane = m then
                if (mask lsr lane) land 1 = 1 then
                  Array.unsafe_set pcs lane
                    (try
                       exec_lane ~ftz ~flt ~stats st cbank0 ~mem ~shared
                         ~lane ~base:(lane * nslots) ~warp_in_block:w
                         ~block:blk ~grid ~block_dim:block ~next:(m + 1) u
                     with Memory.Fault { addr; size } ->
                       trapf
                         "global access out of bounds: %d bytes at 0x%x in \
                          kernel %s"
                         size addr prog.Program.name)
                else Array.unsafe_set pcs lane (m + 1)
            done;
            if hooked then List.iter fire hooks.after.(m);
            step ()
        end
      in
      step ()
    in
    (* Cooperative block scheduling: run each warp to its next barrier
       (or completion); when no warp can run, release the barrier. *)
    let finished = ref false in
    while not !finished do
      let ran = ref false in
      for w = 0 to warps_per_block - 1 do
        if status.(w) = `Run then begin
          ran := true;
          status.(w) <- run_warp_slice w
        end
      done;
      if not !ran then begin
        let waiting = ref false in
        for w = 0 to warps_per_block - 1 do
          if status.(w) = `Bar then waiting := true
        done;
        if !waiting then
          (* all runnable warps have arrived: release the barrier *)
          for w = 0 to warps_per_block - 1 do
            if status.(w) = `Bar then begin
              let st = warps.(w) in
              let m = ref done_pc in
              for lane = 0 to warp_size - 1 do
                if st.pcs.(lane) < !m then m := st.pcs.(lane)
              done;
              for lane = 0 to warp_size - 1 do
                if st.pcs.(lane) = !m then st.pcs.(lane) <- !m + 1
              done;
              status.(w) <- `Run
            end
          done
        else finished := true
      end
    done
  done;
  (match obs with
  | None -> ()
  | Some a ->
    (* flush the per-pc dynamic counts into the profile and the
       per-opcode counters *)
    let kernel = prog.Program.name in
    Array.iteri
      (fun pc n ->
        if n > 0 then begin
          let i = Program.instr prog pc in
          Fpx_obs.Profile.add_dyn a.Fpx_obs.Sink.profile ~kernel ~pc
            ~label:(Instr.sass_string i) ~n;
          Fpx_obs.Metrics.add
            (Fpx_obs.Metrics.counter a.Fpx_obs.Sink.metrics
               (Printf.sprintf "fpx_opcode_instrs_total{op=%S}"
                  (Isa.opcode_to_string i.Instr.op)))
            n
        end)
      pc_counts);
  charge_slot_contention ~device ~grid ~block stats;
  stats

let run ?hooks ?max_dyn_instrs ~device ~grid ~block ~params prog =
  run_decoded ?hooks ?max_dyn_instrs ~device ~grid ~block ~params
    (Decode.program prog)
