(* The execute layer of the two-stage interpreter core.

   {!Decode} compiles a program once into flat micro-op entries; this
   engine runs them over unboxed per-warp state: one [int array]
   register file per warp indexed [lane * nslots + r] holding
   zero-extended 32-bit words (FP64 as word pairs), and predicate
   bitsets (one lane-mask int per predicate register).

   Execution is vectorised per warp step: the step does its warp-level
   work once — find the pc, evaluate the guard into a lane mask, fire
   the hooks, match the micro-op, resolve its lane-invariant operands —
   and only then loops over the executing lanes, in ascending order,
   inside the micro-op's arm. A converged warp (every live lane at one
   pc) finds its next pc in O(1); only a diverged warp scans its
   per-lane pcs. The common path allocates nothing per instruction.

   This is the library's only interpreter. The original tree-walking
   core (the "reference core" below) is frozen under test/oracle/ as
   the semantic oracle; it shares this module's hook ABI, and the two
   must stay observably byte-identical — see the differential
   properties in test/test_decode.ml. *)

open Fpx_sass
module Fp32 = Fpx_num.Fp32
module Kind = Fpx_num.Kind
module Fault = Fpx_fault.Fault

exception Trap = Decode.Trap
exception Watchdog of string

type warp_api = {
  warp_index : int;
  mutable executing : int;
  regs : int array;
  nslots : int;
}

type callback = Stats.t -> warp_api -> unit
type injection = { fixed_cost : int; fn : callback }
type hooks = { before : injection list array; after : injection list array }

let no_hooks prog =
  let n = Program.length prog in
  { before = Array.make n []; after = Array.make n [] }

let warp_size = 32
let done_pc = max_int

let trapf fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt
(* The step loop raises through this top-level formatter: building the
   message inline with [Printf.sprintf] there made short runs ~12%
   slower (catalog median per-run wall). *)
let watchdogf fmt = Printf.ksprintf (fun s -> raise (Watchdog s)) fmt

let[@inline] word api ~lane r =
  if r = Operand.rz then 0
  else if r < api.nslots then api.regs.((lane * api.nslots) + r)
  else trapf "register R%d out of range" r

(* FP32 on raw bits held in native ints. The float round trips below
   replicate the reference core's [Fp32] calls exactly: compute in
   double, round through [Int32.bits_of_float]. *)
let[@inline] f32f bits = Int32.float_of_bits (Int32.of_int bits)
let[@inline] f32b f = Int32.to_int (Int32.bits_of_float f) land 0xffffffff

let cb_read32 cb off =
  if off + 4 <= Bytes.length cb then
    Int32.to_int (Bytes.get_int32_le cb off) land 0xffffffff
  else 0

let cb_read64 cb off =
  if off + 8 <= Bytes.length cb then
    Int64.float_of_bits (Bytes.get_int64_le cb off)
  else 0.0

let[@inline] f64_mods v ~neg ~abs =
  let v = if abs then Float.abs v else v in
  if neg then Float.neg v else v

(* Register pair to bits / double; decode guaranteed the indexes in
   range, only the per-word RZ reads remain dynamic. *)
let[@inline] pair_bits (regs : int array) base r =
  let lo = if r = 255 then 0 else Array.unsafe_get regs (base + r) in
  let h = r + 1 in
  let hi = if h = 255 then 0 else Array.unsafe_get regs (base + h) in
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let[@inline] pair_float (regs : int array) base r =
  Int64.float_of_bits (pair_bits regs base r)

(* An operand resolved once per warp step. [slot] is a register index
   (>= 0), [konst] (the value is lane-invariant: [w], or [f] for an FP64
   value, and for a predicate source [w] is its lane mask) or [poison]
   (reading raises [ex]). Raising stays lazy, so a poisoned operand
   raises on the first executing lane, in the reference read order. *)
type opnd = {
  mutable slot : int;
  mutable w : int;
  f : float array;
  mutable mods : bool;  (** a register read applies neg/abs/ftz *)
  mutable neg : bool;
  mutable abs : bool;
  mutable ftz : bool;
  mutable raw : bool;  (** a 64-bit store source read as a raw pair *)
  mutable ex : exn;
}

let konst = -1
let poison = -2

let opnd () =
  { slot = konst; w = 0; f = [| 0.0 |]; mods = false; neg = false;
    abs = false; ftz = false; raw = false; ex = Not_found }

let[@inline] set_konst o w =
  o.slot <- konst;
  o.w <- w

let[@inline] set_poison o e =
  o.slot <- poison;
  o.ex <- e

let set_i32 o cb (s : Decode.i32src) =
  o.mods <- false;
  match s with
  | Decode.I32_reg r -> o.slot <- r
  | Decode.I32_imm v -> set_konst o v
  | Decode.I32_cb off -> set_konst o (cb_read32 cb off)
  | Decode.I32_poison e -> set_poison o e

let set_f32 o cb (s : Decode.f32src) =
  o.mods <- false;
  match s with
  | Decode.F32_reg r -> o.slot <- r
  | Decode.F32_reg_m { r; neg; abs; ftz } ->
    o.slot <- r;
    o.mods <- true;
    o.neg <- neg;
    o.abs <- abs;
    o.ftz <- ftz
  | Decode.F32_imm v -> set_konst o v
  | Decode.F32_cb off -> set_konst o (cb_read32 cb off)
  | Decode.F32_cb_m { off; neg; abs; ftz } ->
    set_konst o (Fp32.mod_word (cb_read32 cb off) ~neg ~abs ~ftz)
  | Decode.F32_poison e -> set_poison o e

let set_f64 o cb (s : Decode.f64src) =
  o.mods <- false;
  o.raw <- false;
  match s with
  | Decode.F64_reg r -> o.slot <- r
  | Decode.F64_reg_m { r; neg; abs } ->
    o.slot <- r;
    o.mods <- true;
    o.neg <- neg;
    o.abs <- abs
  | Decode.F64_imm v ->
    o.slot <- konst;
    o.f.(0) <- v
  | Decode.F64_cb { off; neg; abs } ->
    o.slot <- konst;
    o.f.(0) <- f64_mods (cb_read64 cb off) ~neg ~abs
  | Decode.F64_poison e -> set_poison o e

let set_v64 o cb (s : Decode.v64src) =
  match s with
  | Decode.V64_pair r ->
    o.slot <- r;
    o.raw <- true
  | Decode.V64_val f -> set_f64 o cb f

let set_pred o preds (p : Decode.predsrc) =
  match p with
  | Decode.P_src packed ->
    let q = packed land 7 in
    let m = if q = 7 then -1 else Array.unsafe_get preds q in
    set_konst o (if packed >= 8 then lnot m else m)
  | Decode.P_poison e -> set_poison o e

let set_dst o (d : Decode.dst) =
  match d with
  | Decode.D_reg r -> o.slot <- r
  | Decode.D_sink -> o.slot <- konst
  | Decode.D_poison e -> set_poison o e

let set_pdst o (pd : Decode.pdst) =
  match pd with
  | Decode.PD_reg p -> o.slot <- (if p = 7 then konst else p)
  | Decode.PD_poison e -> set_poison o e

(* Per-lane reads and writes. An arm copies each resolved operand's
   slot and value (and an FP32 source's has-modifiers flag) into locals
   for its lane loop; the record is read only on the rare paths,
   modifiers and poison. *)
let[@inline] rd_w (regs : int array) base s w o =
  if s >= 0 then Array.unsafe_get regs (base + s)
  else if s = konst then w
  else raise o.ex

let[@inline] rd_m (regs : int array) base s w m o =
  if s >= 0 then
    let v = Array.unsafe_get regs (base + s) in
    if m then Fp32.mod_word v ~neg:o.neg ~abs:o.abs ~ftz:o.ftz else v
  else if s = konst then w
  else raise o.ex

let[@inline] rd_f64 o (regs : int array) base =
  let s = o.slot in
  if s >= 0 then
    let v = pair_float regs base s in
    if o.mods then f64_mods v ~neg:o.neg ~abs:o.abs else v
  else if s = konst then Array.unsafe_get o.f 0
  else raise o.ex

let[@inline] rd_bits64 o (regs : int array) base =
  if o.raw then pair_bits regs base o.slot
  else Int64.bits_of_float (rd_f64 o regs base)

let[@inline] rd_pred lane s w o =
  if s = poison then raise o.ex else (w lsr lane) land 1 = 1

let[@inline] wr (regs : int array) base s o v =
  if s >= 0 then Array.unsafe_set regs (base + s) v
  else if s = poison then raise o.ex

let[@inline] wr_pair_bits (regs : int array) base s o b =
  if s >= 0 then begin
    if s <> 255 then
      Array.unsafe_set regs (base + s) (Int64.to_int b land 0xffffffff);
    let h = s + 1 in
    if h <> 255 then
      Array.unsafe_set regs (base + h)
        (Int64.to_int (Int64.shift_right_logical b 32) land 0xffffffff)
  end
  else if s = poison then raise o.ex

let[@inline] wr32 ~ftz (regs : int array) base s o v =
  wr regs base s o (if ftz then Fp32.ftz_word v else v)

let[@inline] wr_float (regs : int array) base s o v =
  wr_pair_bits regs base s o (Int64.bits_of_float v)

let[@inline] wr_pred (preds : int array) lane p o v =
  if p >= 0 then
    let m = Array.unsafe_get preds p in
    Array.unsafe_set preds p
      (if v then m lor (1 lsl lane) else m land lnot (1 lsl lane))
  else if p = poison then raise o.ex

(* A comparison's truth table, built once per step: bit 0 less, 1
   equal, 2 greater, 3 unordered. *)
let truth_bit c ord bit = if Isa.eval_cmp c ord then bit else 0

let truth (c : Isa.cmp) =
  truth_bit c (Some (-1)) 1
  lor truth_bit c (Some 0) 2
  lor truth_bit c (Some 1) 4
  lor truth_bit c None 8

let[@inline] order_float x y =
  if x < y then 1 else if x = y then 2 else if x > y then 4 else 8

(* Signed 32-bit order of two zero-extended words. *)
let[@inline] order_i32 x y =
  let x = x lxor 0x80000000 and y = y lxor 0x80000000 in
  if x < y then 1 else if x = y then 2 else 4

(* FCHK: would the fast reciprocal-based division path be unsafe for
   a / b? Exceptional denominators and range-extreme operands force the
   IEEE slow path. A NaN (or zero) numerator is left on the fast path:
   the Newton refinement still produces the IEEE-correct NaN (or zero)
   quotient there, so hardware has no reason to trap it — and that NaN
   consequently flows through the refinement FMAs, which is how precise
   compilation exposes more NaN sites than fast-math (Table 6). *)
let fchk_needs_slowpath a b =
  let extreme x =
    let e = (x lsr 23) land 0xff in
    e <= 23 || e >= 232
  in
  match Fp32.classify_word a, Fp32.classify_word b with
  | _, (Kind.Nan | Kind.Inf | Kind.Zero | Kind.Subnormal) -> true
  | (Kind.Inf | Kind.Subnormal), _ -> true
  | (Kind.Nan | Kind.Zero), Kind.Normal -> false
  | Kind.Normal, Kind.Normal -> extreme a || extreme b

let one_bits = 0x3f800000

let shared_mem_bytes = 48 * 1024

(* The device's warp states, grown to [count] warps of [nslots]-slot
   register files. *)
let warps_for (device : Device.t) ~count ~nslots =
  let need = warp_size * nslots in
  let fresh () =
    { Device.regs = Array.make need 0; preds = Array.make 8 0;
      pcs = Array.make warp_size done_pc; pc = done_pc; live = 0; at = 0;
      diverged = false }
  in
  let ws = device.Device.warps in
  let ws =
    if Array.length ws >= count then ws
    else begin
      let ws =
        Array.append ws
          (Array.init (count - Array.length ws) (fun _ -> fresh ()))
      in
      device.Device.warps <- ws;
      ws
    end
  in
  for w = 0 to count - 1 do
    if Array.length ws.(w).Device.regs < need then ws.(w) <- fresh ()
  done;
  ws

(* A diverged warp's one scan: the minimum pc of its live lanes (the
   min-pc reconvergence rule), the lanes parked there, and the live
   lanes. It reconverges once every live lane is at that pc. *)
let regroup (st : Device.warp) =
  let pcs = st.Device.pcs in
  let m = ref done_pc and at = ref 0 and live = ref 0 in
  for lane = 0 to warp_size - 1 do
    let p = Array.unsafe_get pcs lane in
    if p <> done_pc then begin
      live := !live lor (1 lsl lane);
      if p < !m then begin
        m := p;
        at := 1 lsl lane
      end
      else if p = !m then at := !at lor (1 lsl lane)
    end
  done;
  st.pc <- !m;
  st.at <- !at;
  st.live <- !live;
  if !at = !live then st.diverged <- false

(* Write a converged warp out as per-lane pcs, for the barrier release,
   which works on them; the next step regroups it. *)
let materialise (st : Device.warp) =
  for lane = 0 to warp_size - 1 do
    st.Device.pcs.(lane) <-
      (if (st.live lsr lane) land 1 = 1 then st.pc else done_pc)
  done;
  st.diverged <- true

(* After a step at [m]: the executing lanes go to [tgt] (the branch
   target, [done_pc] on EXIT, else [m + 1]), the rest of the lanes at
   [m] to [m + 1]. Only a branch taken by some but not all of them
   diverges a converged warp. *)
let advance (st : Device.warp) ~m ~exec ~tgt =
  let next = m + 1 in
  if not st.Device.diverged then begin
    if tgt = next || exec = 0 then st.pc <- next
    else if tgt = done_pc then begin
      let live = st.live land lnot exec in
      st.live <- live;
      st.at <- live;
      st.pc <- (if live = 0 then done_pc else next)
    end
    else if exec = st.live then st.pc <- tgt
    else begin
      for lane = 0 to warp_size - 1 do
        st.pcs.(lane) <-
          (if (exec lsr lane) land 1 = 1 then tgt
           else if (st.live lsr lane) land 1 = 1 then next
           else done_pc)
      done;
      st.diverged <- true
    end
  end
  else
    for lane = 0 to warp_size - 1 do
      if (st.at lsr lane) land 1 = 1 then
        st.pcs.(lane) <- (if (exec lsr lane) land 1 = 1 then tgt else next)
    done

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

(* The per-launch step budget when no fault plan caps it. *)
let max_dyn_instrs = 50_000_000

let run_decoded ?hooks ~device ~grid ~block ~params (d : Decode.t) =
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
  (* Blocks reuse the device's shared segment (zeroed, though real
     shared memory is not: clean programs stay clean) and warp states. *)
  if Bytes.length device.Device.shared < shared_mem_bytes then
    device.Device.shared <- Bytes.create shared_mem_bytes;
  let shared = device.Device.shared in
  let warps = warps_for device ~count:warps_per_block ~nslots in
  let od = opnd () and oa = opnd () and ob = opnd () and oc = opnd () in
  (* One warp step's data effects over the [exec] lanes, in ascending
     lane order; returns where the executing lanes go next. Source
     reads keep the reference core's evaluation order (OCaml
     right-to-left argument order there), so a poisoned operand raises
     at the same dynamic point with the same message. *)
  let dispatch (st : Device.warp) (u : Decode.uop) ~exec ~m ~w ~blk =
    let regs = st.Device.regs and preds = st.Device.preds in
    let next = m + 1 in
    match u with
    | Decode.U_fadd { d; a; b } ->
      set_dst od d; set_f32 oa cbank0 a; set_f32 ob cbank0 b;
      let sd = od.slot and sa = oa.slot and wa = oa.w and ma = oa.mods and
        sb = ob.slot and wb = ob.w and mb = ob.mods in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vb = rd_m regs base sb wb mb ob in
          let va = rd_m regs base sa wa ma oa in
          wr32 ~ftz regs base sd od (f32b (f32f va +. f32f vb))
        end
      done;
      next
    | Decode.U_fmul { d; a; b } ->
      set_dst od d; set_f32 oa cbank0 a; set_f32 ob cbank0 b;
      let sd = od.slot and sa = oa.slot and wa = oa.w and ma = oa.mods and
        sb = ob.slot and wb = ob.w and mb = ob.mods in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vb = rd_m regs base sb wb mb ob in
          let va = rd_m regs base sa wa ma oa in
          wr32 ~ftz regs base sd od (f32b (f32f va *. f32f vb))
        end
      done;
      next
    | Decode.U_ffma { d; a; b; c } ->
      set_dst od d; set_f32 oa cbank0 a; set_f32 ob cbank0 b;
      set_f32 oc cbank0 c;
      let sd = od.slot and sa = oa.slot and wa = oa.w and ma = oa.mods and
        sb = ob.slot and wb = ob.w and mb = ob.mods and
        sc = oc.slot and wc = oc.w and mc = oc.mods in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vc = rd_m regs base sc wc mc oc in
          let vb = rd_m regs base sb wb mb ob in
          let va = rd_m regs base sa wa ma oa in
          wr32 ~ftz regs base sd od
            (f32b (Float.fma (f32f va) (f32f vb) (f32f vc)))
        end
      done;
      next
    | Decode.U_mufu_f32 { d; m = op; a } ->
      set_dst od d; set_f32 oa cbank0 a;
      let sd = od.slot and sa = oa.slot and wa = oa.w and ma = oa.mods in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let va = rd_m regs base sa wa ma oa in
          let r = Isa.eval_mufu op (Int32.of_int va) in
          wr regs base sd od (Int32.to_int r land 0xffffffff)
        end
      done;
      next
    | Decode.U_mufu_64h { d; m = op; a } ->
      set_dst od d; set_i32 oa cbank0 a;
      let sd = od.slot and sa = oa.slot and wa = oa.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let va = rd_w regs base sa wa oa in
          let r = Isa.eval_mufu op (Int32.of_int va) in
          wr regs base sd od (Int32.to_int r land 0xffffffff)
        end
      done;
      next
    | Decode.U_hadd2 { d; a; b } ->
      set_dst od d; set_i32 oa cbank0 a; set_i32 ob cbank0 b;
      let sd = od.slot and sa = oa.slot and wa = oa.w and
        sb = ob.slot and wb = ob.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vb = rd_w regs base sb wb ob in
          let va = rd_w regs base sa wa oa in
          let r =
            Fpx_num.Fp16.add2 (Int32.of_int va) (Int32.of_int vb)
          in
          wr regs base sd od (Int32.to_int r land 0xffffffff)
        end
      done;
      next
    | Decode.U_hmul2 { d; a; b } ->
      set_dst od d; set_i32 oa cbank0 a; set_i32 ob cbank0 b;
      let sd = od.slot and sa = oa.slot and wa = oa.w and
        sb = ob.slot and wb = ob.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vb = rd_w regs base sb wb ob in
          let va = rd_w regs base sa wa oa in
          let r =
            Fpx_num.Fp16.mul2 (Int32.of_int va) (Int32.of_int vb)
          in
          wr regs base sd od (Int32.to_int r land 0xffffffff)
        end
      done;
      next
    | Decode.U_hfma2 { d; a; b; c } ->
      set_dst od d; set_i32 oa cbank0 a; set_i32 ob cbank0 b;
      set_i32 oc cbank0 c;
      let sd = od.slot and sa = oa.slot and wa = oa.w and
        sb = ob.slot and wb = ob.w and sc = oc.slot and wc = oc.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vc = rd_w regs base sc wc oc in
          let vb = rd_w regs base sb wb ob in
          let va = rd_w regs base sa wa oa in
          let r =
            Fpx_num.Fp16.fma2
              (Int32.of_int va)
              (Int32.of_int vb) (Int32.of_int vc)
          in
          wr regs base sd od (Int32.to_int r land 0xffffffff)
        end
      done;
      next
    | Decode.U_dadd { d; a; b } ->
      set_dst od d; set_f64 oa cbank0 a; set_f64 ob cbank0 b;
      let sd = od.slot in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vb = rd_f64 ob regs base in
          wr_float regs base sd od (rd_f64 oa regs base +. vb)
        end
      done;
      next
    | Decode.U_dmul { d; a; b } ->
      set_dst od d; set_f64 oa cbank0 a; set_f64 ob cbank0 b;
      let sd = od.slot in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vb = rd_f64 ob regs base in
          wr_float regs base sd od (rd_f64 oa regs base *. vb)
        end
      done;
      next
    | Decode.U_dfma { d; a; b; c } ->
      set_dst od d; set_f64 oa cbank0 a; set_f64 ob cbank0 b;
      set_f64 oc cbank0 c;
      let sd = od.slot in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vc = rd_f64 oc regs base in
          let vb = rd_f64 ob regs base in
          wr_float regs base sd od (Float.fma (rd_f64 oa regs base) vb vc)
        end
      done;
      next
    | Decode.U_fsel { d; a; b; p } ->
      (* raw 32-bit select: only the selected source is read *)
      set_dst od d; set_f32 oa cbank0 a; set_f32 ob cbank0 b;
      set_pred oc preds p;
      let sd = od.slot and sa = oa.slot and wa = oa.w and ma = oa.mods and
        sb = ob.slot and wb = ob.w and mb = ob.mods and
        sc = oc.slot and wc = oc.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          wr regs base sd od
            (if rd_pred lane sc wc oc then rd_m regs base sa wa ma oa
             else rd_m regs base sb wb mb ob)
        end
      done;
      next
    | Decode.U_fset { d; c; a; b } ->
      let tt = truth c in
      set_dst od d; set_f32 oa cbank0 a; set_f32 ob cbank0 b;
      let sd = od.slot and sa = oa.slot and wa = oa.w and ma = oa.mods and
        sb = ob.slot and wb = ob.w and mb = ob.mods in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vb = rd_m regs base sb wb mb ob in
          let va = rd_m regs base sa wa ma oa in
          let o = order_float (f32f va) (f32f vb) in
          wr regs base sd od (if tt land o <> 0 then one_bits else 0)
        end
      done;
      next
    | Decode.U_fsetp { pd; c; a; b } ->
      let tt = truth c in
      set_pdst od pd; set_f32 oa cbank0 a; set_f32 ob cbank0 b;
      let sd = od.slot and sa = oa.slot and wa = oa.w and ma = oa.mods and
        sb = ob.slot and wb = ob.w and mb = ob.mods in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vb = rd_m regs base sb wb mb ob in
          let va = rd_m regs base sa wa ma oa in
          let o = order_float (f32f va) (f32f vb) in
          wr_pred preds lane sd od (tt land o <> 0)
        end
      done;
      next
    | Decode.U_fmnmx { d; a; b; p } ->
      set_dst od d; set_f32 oa cbank0 a; set_f32 ob cbank0 b;
      set_pred oc preds p;
      let sd = od.slot and sa = oa.slot and wa = oa.w and ma = oa.mods and
        sb = ob.slot and wb = ob.w and mb = ob.mods and
        sc = oc.slot and wc = oc.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let va = rd_m regs base sa wa ma oa in
          let vb = rd_m regs base sb wb mb ob in
          wr32 ~ftz regs base sd od
            (if rd_pred lane sc wc oc then Fp32.min_nv_word va vb
             else Fp32.max_nv_word va vb)
        end
      done;
      next
    | Decode.U_dsetp { pd; c; a; b } ->
      let tt = truth c in
      set_pdst od pd; set_f64 oa cbank0 a; set_f64 ob cbank0 b;
      let sd = od.slot in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vb = rd_f64 ob regs base in
          let o = order_float (rd_f64 oa regs base) vb in
          wr_pred preds lane sd od (tt land o <> 0)
        end
      done;
      next
    | Decode.U_psetp { pd; op; p1; p2 } ->
      set_pdst od pd; set_pred oa preds p1; set_pred ob preds p2;
      let sd = od.slot and sa = oa.slot and wa = oa.w and
        sb = ob.slot and wb = ob.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let v1 = rd_pred lane sa wa oa in
          let v2 = rd_pred lane sb wb ob in
          wr_pred preds lane sd od (Isa.eval_pbool op v1 v2)
        end
      done;
      next
    | Decode.U_fchk { pd; a; b } ->
      set_pdst od pd; set_f32 oa cbank0 a; set_f32 ob cbank0 b;
      let sd = od.slot and sa = oa.slot and wa = oa.w and ma = oa.mods and
        sb = ob.slot and wb = ob.w and mb = ob.mods in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vb = rd_m regs base sb wb mb ob in
          let va = rd_m regs base sa wa ma oa in
          wr_pred preds lane sd od (fchk_needs_slowpath va vb)
        end
      done;
      next
    | Decode.U_f32_of_f64 { d; a } ->
      set_dst od d; set_f64 oa cbank0 a;
      let sd = od.slot in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          wr32 ~ftz regs base sd od (f32b (rd_f64 oa regs base))
        end
      done;
      next
    | Decode.U_f64_of_f32 { d; a } ->
      set_dst od d; set_f32 oa cbank0 a;
      let sd = od.slot and sa = oa.slot and wa = oa.w and ma = oa.mods in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let va = rd_m regs base sa wa ma oa in
          wr_float regs base sd od (f32f va)
        end
      done;
      next
    | Decode.U_f32_of_f32 { d; a } ->
      set_dst od d; set_f32 oa cbank0 a;
      let sd = od.slot and sa = oa.slot and wa = oa.w and ma = oa.mods in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let va = rd_m regs base sa wa ma oa in
          wr32 ~ftz regs base sd od va
        end
      done;
      next
    | Decode.U_f64_of_f64 { d; a } ->
      set_dst od d; set_f64 oa cbank0 a;
      let sd = od.slot in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          wr_float regs base sd od (rd_f64 oa regs base)
        end
      done;
      next
    | Decode.U_f16_of_f32 { d; a } ->
      set_dst od d; set_f32 oa cbank0 a;
      let sd = od.slot and sa = oa.slot and wa = oa.w and ma = oa.mods in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let va = rd_m regs base sa wa ma oa in
          wr regs base sd od (Fpx_num.Fp16.of_float (f32f va))
        end
      done;
      next
    | Decode.U_f32_of_f16 { d; a } ->
      set_dst od d; set_i32 oa cbank0 a;
      let sd = od.slot and sa = oa.slot and wa = oa.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let va = rd_w regs base sa wa oa in
          wr regs base sd od
            (f32b (Fpx_num.Fp16.to_float (va land 0xffff)))
        end
      done;
      next
    | Decode.U_i2f32 { d; a } ->
      set_dst od d; set_i32 oa cbank0 a;
      let sd = od.slot and sa = oa.slot and wa = oa.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let va = rd_w regs base sa wa oa in
          wr regs base sd od (f32b (Int32.to_float (Int32.of_int va)))
        end
      done;
      next
    | Decode.U_i2f64 { d; a } ->
      set_dst od d; set_i32 oa cbank0 a;
      let sd = od.slot and sa = oa.slot and wa = oa.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let va = rd_w regs base sa wa oa in
          wr_float regs base sd od (Int32.to_float (Int32.of_int va))
        end
      done;
      next
    | Decode.U_f2i32 { d; a } ->
      set_dst od d; set_f32 oa cbank0 a;
      let sd = od.slot and sa = oa.slot and wa = oa.w and ma = oa.mods in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let v = f32f (rd_m regs base sa wa ma oa) in
          wr regs base sd od
            (if Float.is_nan v then 0
             else Int32.to_int (Int32.of_float v) land 0xffffffff)
        end
      done;
      next
    | Decode.U_f2i64 { d; a } ->
      set_dst od d; set_f64 oa cbank0 a;
      let sd = od.slot in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let v = rd_f64 oa regs base in
          wr regs base sd od
            (if Float.is_nan v then 0
             else Int32.to_int (Int32.of_float v) land 0xffffffff)
        end
      done;
      next
    | Decode.U_mov { d; a } ->
      set_dst od d; set_i32 oa cbank0 a;
      let sd = od.slot and sa = oa.slot and wa = oa.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let va = rd_w regs base sa wa oa in
          wr regs base sd od va
        end
      done;
      next
    | Decode.U_iadd { d; a; b } ->
      set_dst od d; set_i32 oa cbank0 a; set_i32 ob cbank0 b;
      let sd = od.slot and sa = oa.slot and wa = oa.w and
        sb = ob.slot and wb = ob.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vb = rd_w regs base sb wb ob in
          let va = rd_w regs base sa wa oa in
          wr regs base sd od ((va + vb) land 0xffffffff)
        end
      done;
      next
    | Decode.U_imad { d; a; b; c } ->
      set_dst od d; set_i32 oa cbank0 a; set_i32 ob cbank0 b;
      set_i32 oc cbank0 c;
      let sd = od.slot and sa = oa.slot and wa = oa.w and
        sb = ob.slot and wb = ob.w and sc = oc.slot and wc = oc.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vc = rd_w regs base sc wc oc in
          let vb = rd_w regs base sb wb ob in
          let va = rd_w regs base sa wa oa in
          wr regs base sd od (((va * vb) + vc) land 0xffffffff)
        end
      done;
      next
    | Decode.U_isetp { pd; c; a; b } ->
      let tt = truth c in
      set_pdst od pd; set_i32 oa cbank0 a; set_i32 ob cbank0 b;
      let sd = od.slot and sa = oa.slot and wa = oa.w and
        sb = ob.slot and wb = ob.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vb = rd_w regs base sb wb ob in
          let va = rd_w regs base sa wa oa in
          wr_pred preds lane sd od (tt land order_i32 va vb <> 0)
        end
      done;
      next
    | Decode.U_shl { d; a; b } ->
      set_dst od d; set_i32 oa cbank0 a; set_i32 ob cbank0 b;
      let sd = od.slot and sa = oa.slot and wa = oa.w and
        sb = ob.slot and wb = ob.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vb = rd_w regs base sb wb ob in
          let va = rd_w regs base sa wa oa in
          wr regs base sd od ((va lsl (vb land 31)) land 0xffffffff)
        end
      done;
      next
    | Decode.U_shr { d; a; b } ->
      set_dst od d; set_i32 oa cbank0 a; set_i32 ob cbank0 b;
      let sd = od.slot and sa = oa.slot and wa = oa.w and
        sb = ob.slot and wb = ob.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vb = rd_w regs base sb wb ob in
          let va = rd_w regs base sa wa oa in
          wr regs base sd od (va lsr (vb land 31))
        end
      done;
      next
    | Decode.U_and { d; a; b } ->
      set_dst od d; set_i32 oa cbank0 a; set_i32 ob cbank0 b;
      let sd = od.slot and sa = oa.slot and wa = oa.w and
        sb = ob.slot and wb = ob.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vb = rd_w regs base sb wb ob in
          let va = rd_w regs base sa wa oa in
          wr regs base sd od (va land vb)
        end
      done;
      next
    | Decode.U_or { d; a; b } ->
      set_dst od d; set_i32 oa cbank0 a; set_i32 ob cbank0 b;
      let sd = od.slot and sa = oa.slot and wa = oa.w and
        sb = ob.slot and wb = ob.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vb = rd_w regs base sb wb ob in
          let va = rd_w regs base sa wa oa in
          wr regs base sd od (va lor vb)
        end
      done;
      next
    | Decode.U_xor { d; a; b } ->
      set_dst od d; set_i32 oa cbank0 a; set_i32 ob cbank0 b;
      let sd = od.slot and sa = oa.slot and wa = oa.w and
        sb = ob.slot and wb = ob.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let vb = rd_w regs base sb wb ob in
          let va = rd_w regs base sa wa oa in
          wr regs base sd od (va lxor vb)
        end
      done;
      next
    | Decode.U_ldg32 { d; addr } ->
      set_dst od d; set_i32 oa cbank0 addr;
      let sd = od.slot and sa = oa.slot and wa = oa.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let v = Memory.load_word mem ~addr:(rd_w regs base sa wa oa) in
          let v =
            (* modelled silent data corruption: a flipped bit in the
               loaded word, the raw material for downstream exception
               analysis *)
            match flt with
            | Some a when Fault.fire a Fault.Mem_bit_flip ->
              v lxor (1 lsl (Fault.draw a Fault.Mem_bit_flip land 31))
            | _ -> v
          in
          wr regs base sd od v
        end
      done;
      next
    | Decode.U_ldg64 { d; addr } ->
      set_dst od d; set_i32 oa cbank0 addr;
      let sd = od.slot and sa = oa.slot and wa = oa.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let v = Memory.load_i64 mem ~addr:(rd_w regs base sa wa oa) in
          let v =
            match flt with
            | Some a when Fault.fire a Fault.Mem_bit_flip ->
              Int64.logxor v
                (Int64.shift_left 1L (Fault.draw a Fault.Mem_bit_flip land 63))
            | _ -> v
          in
          wr_pair_bits regs base sd od v
        end
      done;
      next
    | Decode.U_stg32 { addr; v } ->
      set_i32 oa cbank0 addr; set_i32 ob cbank0 v;
      let sa = oa.slot and wa = oa.w and sb = ob.slot and wb = ob.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let addr = rd_w regs base sa wa oa in
          Memory.store_word mem ~addr (rd_w regs base sb wb ob)
        end
      done;
      next
    | Decode.U_stg64 { addr; v } ->
      set_i32 oa cbank0 addr; set_v64 ob cbank0 v;
      let sa = oa.slot and wa = oa.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let addr = rd_w regs base sa wa oa in
          Memory.store_i64 mem ~addr (rd_bits64 ob regs base)
        end
      done;
      next
    | Decode.U_lds32 { d; addr } ->
      set_dst od d; set_i32 oa cbank0 addr;
      let sd = od.slot and sa = oa.slot and wa = oa.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let addr = rd_w regs base sa wa oa in
          if addr + 4 > Bytes.length shared then
            trapf "shared load out of bounds";
          if addr + 4 > stats.Stats.shmem_hwm then
            stats.Stats.shmem_hwm <- addr + 4;
          wr regs base sd od
            (Int32.to_int (Bytes.get_int32_le shared addr) land 0xffffffff)
        end
      done;
      next
    | Decode.U_lds64 { d; addr } ->
      set_dst od d; set_i32 oa cbank0 addr;
      let sd = od.slot and sa = oa.slot and wa = oa.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let addr = rd_w regs base sa wa oa in
          if addr + 8 > Bytes.length shared then
            trapf "shared load out of bounds";
          if addr + 8 > stats.Stats.shmem_hwm then
            stats.Stats.shmem_hwm <- addr + 8;
          wr_pair_bits regs base sd od (Bytes.get_int64_le shared addr)
        end
      done;
      next
    | Decode.U_sts32 { addr; v } ->
      set_i32 oa cbank0 addr; set_i32 ob cbank0 v;
      let sa = oa.slot and wa = oa.w and sb = ob.slot and wb = ob.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let addr = rd_w regs base sa wa oa in
          if addr + 4 > Bytes.length shared then
            trapf "shared store out of bounds";
          if addr + 4 > stats.Stats.shmem_hwm then
            stats.Stats.shmem_hwm <- addr + 4;
          Bytes.set_int32_le shared addr
            (Int32.of_int (rd_w regs base sb wb ob))
        end
      done;
      next
    | Decode.U_sts64 { addr; v } ->
      set_i32 oa cbank0 addr; set_v64 ob cbank0 v;
      let sa = oa.slot and wa = oa.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let addr = rd_w regs base sa wa oa in
          if addr + 8 > Bytes.length shared then
            trapf "shared store out of bounds";
          if addr + 8 > stats.Stats.shmem_hwm then
            stats.Stats.shmem_hwm <- addr + 8;
          Bytes.set_int64_le shared addr (rd_bits64 ob regs base)
        end
      done;
      next
    | Decode.U_atom_add { d; fp; addr; v } ->
      (* lanes execute in ascending order, so the read-modify-write
         below is race-free and deterministic *)
      set_dst od d; set_i32 oa cbank0 addr; set_i32 ob cbank0 v;
      let sd = od.slot and sa = oa.slot and wa = oa.w and
        sb = ob.slot and wb = ob.w in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then begin
          let base = lane * nslots in
          let addr = rd_w regs base sa wa oa in
          let old = Memory.load_word mem ~addr in
          let vv = rd_w regs base sb wb ob in
          Memory.store_word mem ~addr
            (if fp then f32b (f32f old +. f32f vv)
             else (old + vv) land 0xffffffff);
          wr regs base sd od old
        end
      done;
      next
    | Decode.U_s2r { d; r } ->
      (* the value is [v0], plus the lane for the lane-indexed registers *)
      let v0 =
        match r with
        | Isa.Tid_x -> w * warp_size
        | Isa.Lane_id -> 0
        | Isa.Ntid_x -> block
        | Isa.Ctaid_x -> blk
        | Isa.Nctaid_x -> grid
      in
      let by_lane =
        match r with
        | Isa.Tid_x | Isa.Lane_id -> 1
        | Isa.Ntid_x | Isa.Ctaid_x | Isa.Nctaid_x -> 0
      in
      set_dst od d;
      let sd = od.slot in
      for lane = 0 to warp_size - 1 do
        if (exec lsr lane) land 1 = 1 then
          wr regs (lane * nslots) sd od
            ((v0 + (by_lane * lane)) land 0xffffffff)
      done;
      next
    | Decode.U_bra target -> target
    | Decode.U_bra_poison e | Decode.U_trap e -> raise e
    | Decode.U_exit -> done_pc
    | Decode.U_nop -> next
    | Decode.U_bar ->
      (* barriers are handled by the block scheduler, never here *)
      trapf "BAR reached the lane executor"
  in
  for blk = 0 to grid - 1 do
    Bytes.fill shared 0 shared_mem_bytes '\000';
    for w = 0 to warps_per_block - 1 do
      let st = warps.(w) in
      let n = max 0 (min warp_size (block - (w * warp_size))) in
      let live = (1 lsl n) - 1 in
      Array.fill st.Device.regs 0 (warp_size * nslots) 0;
      Array.fill st.preds 0 8 0;
      st.pc <- (if live = 0 then done_pc else 0);
      st.live <- live;
      st.at <- live;
      st.diverged <- false
    done;
    (* `Run: can make progress; `Bar: parked at a barrier; `Done *)
    let status = Array.make warps_per_block `Run in
    let diverged = Array.make warps_per_block false in
    let run_warp_slice w =
      let st = warps.(w) in
      let regs = st.Device.regs in
      let preds = st.Device.preds in
      let warp_index = (blk * warps_per_block) + w in
      let api = { warp_index; executing = 0; regs; nslots } in
      let fire inj =
        stats.tool_cycles <- stats.tool_cycles + inj.fixed_cost;
        inj.fn stats api
      in
      let rec step () =
        if st.diverged then regroup st;
        let m = st.pc in
        if m = done_pc then `Done
        else begin
          decr budget;
          if !budget <= 0 then
            watchdogf "watchdog: kernel %s exceeded %d instrs"
              prog.Program.name effective_budget;
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
            let dv = st.diverged in
            if dv then
              Option.iter Fpx_obs.Metrics.incr divergent_steps;
            if dv <> diverged.(w) then begin
              diverged.(w) <- dv;
              Fpx_obs.Span.instant a.Fpx_obs.Sink.trace ~tid:warp_index
                ~name:(if dv then "warp_diverge" else "warp_reconverge")
                ~cat:"simt"
                ~ts:
                  (Fpx_obs.Sink.now a
                     ~launch_cycles:(Stats.total_cycles stats))
                ~args:
                  [ ("kernel", Fpx_obs.Span.S prog.Program.name);
                    ("pc", Fpx_obs.Span.I m) ]
                ()
            end);
          stats.dyn_instrs <- stats.dyn_instrs + 1;
          stats.base_cycles <- stats.base_cycles + e.Decode.cost;
          match e.Decode.uop with
          | Decode.U_bar ->
            (* every live lane must have arrived *)
            if st.diverged then
              trapf "divergent barrier in kernel %s at pc %d"
                prog.Program.name m;
            materialise st;
            `Bar
          | u ->
            let mask =
              match e.Decode.guard with
              | Decode.G_none -> -1
              | Decode.G_p packed ->
                let q = packed land 7 in
                let mv = if q = 7 then -1 else Array.unsafe_get preds q in
                if packed >= 8 then lnot mv else mv
              | Decode.G_poison ex -> raise ex
            in
            let exec = st.at land mask in
            let before = hooks.before.(m) and after = hooks.after.(m) in
            (match before, after with
            | [], [] -> ()
            | _ -> api.executing <- exec);
            (match before with [] -> () | l -> List.iter fire l);
            let tgt =
              if exec = 0 then m + 1
              else
                try dispatch st u ~exec ~m ~w ~blk
                with Memory.Fault { addr; size } ->
                  trapf
                    "global access out of bounds: %d bytes at 0x%x in \
                     kernel %s"
                    size addr prog.Program.name
            in
            advance st ~m ~exec ~tgt;
            (match after with [] -> () | l -> List.iter fire l);
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
              let pcs = warps.(w).Device.pcs in
              let m = ref done_pc in
              for lane = 0 to warp_size - 1 do
                if pcs.(lane) < !m then m := pcs.(lane)
              done;
              for lane = 0 to warp_size - 1 do
                if pcs.(lane) = !m then pcs.(lane) <- !m + 1
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

let run ?hooks ~device ~grid ~block ~params prog =
  run_decoded ?hooks ~device ~grid ~block ~params (Decode.program prog)
