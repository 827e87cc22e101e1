open Fpx_sass
open Fpx_gpu
module Fp32 = Fpx_num.Fp32
module Fp64 = Fpx_num.Fp64
module Sfu = Fpx_num.Sfu
module Kind = Fpx_num.Kind
module Fault = Fpx_fault.Fault

exception Trap = Decode.Trap

type warp_api = Exec.warp_api = {
  warp_index : int;
  mutable executing : int;
  regs : int array;
  nslots : int;
}

type callback = Stats.t -> warp_api -> unit
type injection = Exec.injection = { fixed_cost : int; fn : callback }

type hooks = Exec.hooks = {
  before : injection list array;
  after : injection list array;
}

let no_hooks = Exec.no_hooks

let warp_size = 32
let done_pc = max_int

let trapf fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt
let watchdogf fmt = Printf.ksprintf (fun s -> raise (Exec.Watchdog s)) fmt

let parse_generic_f64 s =
  match s with
  | "+INF" | "INF" -> infinity
  | "-INF" -> neg_infinity
  | "+QNAN" | "QNAN" | "+SNAN" -> Float.nan
  | "-QNAN" | "-SNAN" -> -.Float.nan
  | _ -> (
    match float_of_string_opt s with
    | Some v -> v
    | None -> trapf "bad GENERIC operand %S" s)

type warp_state = {
  regs : int32 array array;  (* [lane].[reg] *)
  preds : bool array array;  (* [lane].[pred] *)
  pcs : int array;
}

let get_reg st ~lane r =
  if r = Operand.rz then 0l
  else if r < Array.length st.regs.(lane) then st.regs.(lane).(r)
  else trapf "register R%d out of range" r

let write_reg st ~lane r v =
  if r <> Operand.rz then
    if r < Array.length st.regs.(lane) then st.regs.(lane).(r) <- v
    else trapf "register R%d out of range" r

let read_pred_raw st ~lane p =
  if p = Operand.pt then true else st.preds.(lane).(p)

let write_pred st ~lane p v = if p <> Operand.pt then st.preds.(lane).(p) <- v

(* Operand resolution ------------------------------------------------- *)

let cbank_read cbank0 ~offset =
  if offset + 4 <= Bytes.length cbank0 then Bytes.get_int32_le cbank0 offset
  else 0l

let cbank_read64 cbank0 ~offset =
  if offset + 8 <= Bytes.length cbank0 then
    Int64.float_of_bits (Bytes.get_int64_le cbank0 offset)
  else 0.0

let i32_value st cbank0 ~lane (o : Operand.t) =
  match o.base with
  | Operand.Reg n -> get_reg st ~lane n
  | Operand.Imm_i v -> v
  | Operand.Imm_f32 b -> b
  | Operand.Cbank { offset; _ } -> cbank_read cbank0 ~offset
  | Operand.Imm_f64 _ | Operand.Generic _ | Operand.Pred _ | Operand.Label _
    -> trapf "integer operand expected, got %s" (Operand.to_string o)

let f32_value ~ftz st cbank0 ~lane (o : Operand.t) =
  let raw =
    match o.base with
    | Operand.Reg n -> get_reg st ~lane n
    | Operand.Imm_f32 b -> b
    | Operand.Imm_f64 v -> Fp32.of_float v
    | Operand.Imm_i v -> v
    | Operand.Generic s -> Fp32.of_float (parse_generic_f64 s)
    | Operand.Cbank { offset; _ } -> cbank_read cbank0 ~offset
    | Operand.Pred _ | Operand.Label _ ->
      trapf "FP32 operand expected, got %s" (Operand.to_string o)
  in
  let v = if ftz then Fp32.ftz raw else raw in
  let v = if o.abs then Fp32.abs v else v in
  if o.neg then Fp32.neg v else v

let f64_value st cbank0 ~lane (o : Operand.t) =
  let raw =
    match o.base with
    | Operand.Reg n ->
      Fp64.of_words ~lo:(get_reg st ~lane n) ~hi:(get_reg st ~lane (n + 1))
    | Operand.Imm_f64 v -> v
    | Operand.Imm_f32 b -> Fp32.to_float b
    | Operand.Generic s -> parse_generic_f64 s
    | Operand.Cbank { offset; _ } -> cbank_read64 cbank0 ~offset
    | Operand.Imm_i _ | Operand.Pred _ | Operand.Label _ ->
      trapf "FP64 operand expected, got %s" (Operand.to_string o)
  in
  let v = if o.abs then Fp64.abs raw else raw in
  if o.neg then Fp64.neg v else v

let pred_value st ~lane (o : Operand.t) =
  match o.base with
  | Operand.Pred p ->
    let v = read_pred_raw st ~lane p in
    if o.pred_not then not v else v
  | Operand.Reg _ | Operand.Imm_f32 _ | Operand.Imm_f64 _ | Operand.Imm_i _
  | Operand.Generic _ | Operand.Cbank _ | Operand.Label _ ->
    trapf "predicate operand expected, got %s" (Operand.to_string o)

let dest_reg (i : Instr.t) =
  match Instr.dest_reg_num i with
  | Some d -> d
  | None -> trapf "instruction %s lacks a register destination"
              (Instr.sass_string i)

let dest_pred (i : Instr.t) =
  match (Instr.get_operand i 0).base with
  | Operand.Pred p -> p
  | _ -> trapf "instruction %s lacks a predicate destination"
           (Instr.sass_string i)

let label_target (o : Operand.t) =
  match o.base with
  | Operand.Label pc -> pc
  | _ -> trapf "branch target expected, got %s" (Operand.to_string o)

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

(* Per-lane instruction effect. Returns the lane's next pc. ----------- *)

let execute_lane ~ftz ~flt ~stats st cbank0 ~mem ~shared ~lane ~warp_in_block
    ~block ~grid ~block_dim (i : Instr.t) =
  let shmem_touch hi =
    if hi > stats.Stats.shmem_hwm then stats.Stats.shmem_hwm <- hi
  in
  let op_ i k = Instr.get_operand i k in
  let f32 k = f32_value ~ftz st cbank0 ~lane (op_ i k) in
  let f64 k = f64_value st cbank0 ~lane (op_ i k) in
  let i32 k = i32_value st cbank0 ~lane (op_ i k) in
  let out32 v = if ftz then Fp32.ftz v else v in
  let wr v = write_reg st ~lane (dest_reg i) (out32 v) in
  let wr_raw v = write_reg st ~lane (dest_reg i) v in
  let wr_pair v =
    let d = dest_reg i in
    let lo, hi = Fp64.to_words v in
    write_reg st ~lane d lo;
    write_reg st ~lane (d + 1) hi
  in
  let wr_pred v = write_pred st ~lane (dest_pred i) v in
  let next = i.pc + 1 in
  match i.op with
  | Isa.FADD | Isa.FADD32I -> wr (Fp32.add (f32 1) (f32 2)); next
  | Isa.FMUL | Isa.FMUL32I -> wr (Fp32.mul (f32 1) (f32 2)); next
  | Isa.FFMA | Isa.FFMA32I -> wr (Fp32.fma (f32 1) (f32 2) (f32 3)); next
  | Isa.MUFU m ->
    (match m with
     | Isa.Rcp -> wr_raw (Sfu.rcp (f32 1))
     | Isa.Rsq -> wr_raw (Sfu.rsq (f32 1))
     | Isa.Sqrt -> wr_raw (Sfu.sqrt (f32 1))
     | Isa.Ex2 -> wr_raw (Sfu.ex2 (f32 1))
     | Isa.Lg2 -> wr_raw (Sfu.lg2 (f32 1))
     | Isa.Sin -> wr_raw (Sfu.sin (f32 1))
     | Isa.Cos -> wr_raw (Sfu.cos (f32 1))
     | Isa.Rcp64h -> wr_raw (Sfu.rcp64h (i32 1))
     | Isa.Rsq64h -> wr_raw (Sfu.rsq64h (i32 1)));
    next
  | Isa.HADD2 ->
    wr_raw (Fpx_num.Fp16.add2 (i32 1) (i32 2));
    next
  | Isa.HMUL2 ->
    wr_raw (Fpx_num.Fp16.mul2 (i32 1) (i32 2));
    next
  | Isa.HFMA2 ->
    wr_raw (Fpx_num.Fp16.fma2 (i32 1) (i32 2) (i32 3));
    next
  | Isa.DADD -> wr_pair (Fp64.add (f64 1) (f64 2)); next
  | Isa.DMUL -> wr_pair (Fp64.mul (f64 1) (f64 2)); next
  | Isa.DFMA -> wr_pair (Fp64.fma (f64 1) (f64 2) (f64 3)); next
  | Isa.FSEL ->
    (* FSEL is a raw 32-bit select: no FTZ, so selecting words of FP64
       pairs through it is safe. neg/abs modifiers still apply. *)
    let raw k = f32_value ~ftz:false st cbank0 ~lane (op_ i k) in
    wr_raw (if pred_value st ~lane (op_ i 3) then raw 1 else raw 2);
    next
  | Isa.FSET c ->
    let r = Isa.eval_cmp c (Fp32.compare_ieee (f32 1) (f32 2)) in
    wr_raw (if r then Fp32.one else Fp32.zero);
    next
  | Isa.FSETP c ->
    wr_pred (Isa.eval_cmp c (Fp32.compare_ieee (f32 1) (f32 2)));
    next
  | Isa.FMNMX ->
    let a = f32 1 and b = f32 2 in
    wr (if pred_value st ~lane (op_ i 3) then Fp32.min_nv a b
        else Fp32.max_nv a b);
    next
  | Isa.DSETP c ->
    wr_pred (Isa.eval_cmp c (Fp64.compare_ieee (f64 1) (f64 2)));
    next
  | Isa.SEL ->
    let raw k = f32_value ~ftz:false st cbank0 ~lane (op_ i k) in
    wr_raw (if pred_value st ~lane (op_ i 3) then raw 1 else raw 2);
    next
  | Isa.PSETP b ->
    let p1 = pred_value st ~lane (op_ i 1)
    and p2 = pred_value st ~lane (op_ i 2) in
    wr_pred
      (match b with
      | Isa.Pand -> p1 && p2
      | Isa.Por -> p1 || p2
      | Isa.Pxor -> p1 <> p2);
    next
  | Isa.FCHK -> wr_pred (fchk_needs_slowpath (f32 1) (f32 2)); next
  | Isa.F2F (Isa.FP32, Isa.FP64) -> wr (Fp32.of_float (f64 1)); next
  | Isa.F2F (Isa.FP64, Isa.FP32) -> wr_pair (Fp32.to_float (f32 1)); next
  | Isa.F2F (Isa.FP32, Isa.FP32) -> wr (f32 1); next
  | Isa.F2F (Isa.FP64, Isa.FP64) -> wr_pair (f64 1); next
  | Isa.F2F (Isa.FP16, Isa.FP32) ->
    (* narrow to a half in the low lane *)
    wr_raw (Int32.of_int (Fpx_num.Fp16.of_float (Fp32.to_float (f32 1))));
    next
  | Isa.F2F (Isa.FP32, Isa.FP16) ->
    let lo, _ = Fpx_num.Fp16.unpack2 (i32 1) in
    wr_raw (Fp32.of_float (Fpx_num.Fp16.to_float lo));
    next
  | Isa.F2F (Isa.FP16, (Isa.FP16 | Isa.FP64)) | Isa.F2F (Isa.FP64, Isa.FP16)
    ->
    trapf "unsupported conversion %s" (Isa.opcode_to_string i.op)
  | Isa.I2F Isa.FP16 | Isa.F2I Isa.FP16 ->
    trapf "unsupported conversion %s" (Isa.opcode_to_string i.op)
  | Isa.I2F Isa.FP32 ->
    wr_raw (Fp32.of_float (Int32.to_float (i32 1)));
    next
  | Isa.I2F Isa.FP64 -> wr_pair (Int32.to_float (i32 1)); next
  | Isa.F2I Isa.FP32 ->
    let v = Fp32.to_float (f32 1) in
    wr_raw (if Float.is_nan v then 0l else Int32.of_float v);
    next
  | Isa.F2I Isa.FP64 ->
    let v = f64 1 in
    wr_raw (if Float.is_nan v then 0l else Int32.of_float v);
    next
  | Isa.MOV | Isa.MOV32I -> wr_raw (i32 1); next
  | Isa.IADD -> wr_raw (Int32.add (i32 1) (i32 2)); next
  | Isa.IMAD -> wr_raw (Int32.add (Int32.mul (i32 1) (i32 2)) (i32 3)); next
  | Isa.ISETP c ->
    wr_pred (Isa.eval_cmp c (Some (Int32.compare (i32 1) (i32 2))));
    next
  | Isa.SHL ->
    wr_raw (Int32.shift_left (i32 1) (Int32.to_int (i32 2) land 31));
    next
  | Isa.SHR ->
    wr_raw (Int32.shift_right_logical (i32 1) (Int32.to_int (i32 2) land 31));
    next
  | Isa.LOP_AND -> wr_raw (Int32.logand (i32 1) (i32 2)); next
  | Isa.LOP_OR -> wr_raw (Int32.logor (i32 1) (i32 2)); next
  | Isa.LOP_XOR -> wr_raw (Int32.logxor (i32 1) (i32 2)); next
  | Isa.LDG Isa.W32 ->
    let addr = Int32.to_int (i32 1) land 0xffffffff in
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
    wr_raw v;
    next
  | Isa.LDG Isa.W64 ->
    let addr = Int32.to_int (i32 1) land 0xffffffff in
    let v = Memory.load_i64 mem ~addr in
    let v =
      match flt with
      | Some a when Fault.fire a Fault.Mem_bit_flip ->
        Int64.logxor v
          (Int64.shift_left 1L (Fault.draw a Fault.Mem_bit_flip land 63))
      | _ -> v
    in
    let d = dest_reg i in
    write_reg st ~lane d (Int64.to_int32 (Int64.logand v 0xffffffffL));
    write_reg st ~lane (d + 1)
      (Int64.to_int32 (Int64.shift_right_logical v 32));
    next
  | Isa.STG Isa.W32 ->
    let addr = Int32.to_int (i32 0) land 0xffffffff in
    Memory.store_i32 mem ~addr (i32 1);
    next
  | Isa.STG Isa.W64 ->
    let addr = Int32.to_int (i32 0) land 0xffffffff in
    let s =
      match (op_ i 1).base with
      | Operand.Reg n ->
        Fp64.of_words
          ~lo:(get_reg st ~lane n)
          ~hi:(get_reg st ~lane (n + 1))
      | _ -> f64 1
    in
    Memory.store_i64 mem ~addr (Int64.bits_of_float s);
    next
  | Isa.LDS Isa.W32 ->
    let addr = Int32.to_int (i32 1) land 0xffffffff in
    if addr + 4 > Bytes.length shared then trapf "shared load out of bounds";
    shmem_touch (addr + 4);
    wr_raw (Bytes.get_int32_le shared addr);
    next
  | Isa.LDS Isa.W64 ->
    let addr = Int32.to_int (i32 1) land 0xffffffff in
    if addr + 8 > Bytes.length shared then trapf "shared load out of bounds";
    shmem_touch (addr + 8);
    let v = Bytes.get_int64_le shared addr in
    let d = dest_reg i in
    write_reg st ~lane d (Int64.to_int32 (Int64.logand v 0xffffffffL));
    write_reg st ~lane (d + 1)
      (Int64.to_int32 (Int64.shift_right_logical v 32));
    next
  | Isa.STS Isa.W32 ->
    let addr = Int32.to_int (i32 0) land 0xffffffff in
    if addr + 4 > Bytes.length shared then trapf "shared store out of bounds";
    shmem_touch (addr + 4);
    Bytes.set_int32_le shared addr (i32 1);
    next
  | Isa.STS Isa.W64 ->
    let addr = Int32.to_int (i32 0) land 0xffffffff in
    if addr + 8 > Bytes.length shared then trapf "shared store out of bounds";
    shmem_touch (addr + 8);
    let x =
      match (op_ i 1).base with
      | Operand.Reg n ->
        Int64.logor
          (Int64.logand (Int64.of_int32 (get_reg st ~lane n)) 0xffffffffL)
          (Int64.shift_left (Int64.of_int32 (get_reg st ~lane (n + 1))) 32)
      | _ -> Int64.bits_of_float (f64 1)
    in
    Bytes.set_int64_le shared addr x;
    next
  | Isa.ATOM_ADD aty ->
    (* lanes execute in ascending order (the executor's lane loop), so
       the read-modify-write below is race-free and deterministic *)
    let addr = Int32.to_int (i32 1) land 0xffffffff in
    let old = Memory.load_i32 mem ~addr in
    let v = i32 2 in
    let updated =
      match aty with
      | Isa.Af32 -> Fp32.add old v
      | Isa.Ai32 -> Int32.add old v
    in
    Memory.store_i32 mem ~addr updated;
    wr_raw old;
    next
  | Isa.BAR ->
    (* barriers are handled by the block scheduler, never here *)
    trapf "BAR reached the lane executor"
  | Isa.S2R r ->
    let v =
      match r with
      | Isa.Tid_x -> (warp_in_block * warp_size) + lane
      | Isa.Ntid_x -> block_dim
      | Isa.Ctaid_x -> block
      | Isa.Nctaid_x -> grid
      | Isa.Lane_id -> lane mod warp_size
    in
    wr_raw (Int32.of_int v);
    next
  | Isa.BRA -> label_target (op_ i 0)
  | Isa.EXIT -> done_pc
  | Isa.NOP -> next

let shared_mem_bytes = 48 * 1024

(* The decoded engine's default step budget. *)
let max_dyn_instrs = 50_000_000

let run ?hooks ~device ~grid ~block ~params prog =
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
  for blk = 0 to grid - 1 do
    (* one shared-memory segment per block; real shared memory is
       uninitialised, but zero-filled keeps clean programs clean *)
    let shared = Bytes.make shared_mem_bytes '\000' in
    let make_warp w =
      let lanes_in_warp =
        max 0 (min warp_size (block - (w * warp_size)))
      in
      {
        regs =
          Array.init warp_size (fun _ ->
              Array.make (prog.Program.n_regs + 2) 0l);
        preds = Array.init warp_size (fun _ -> Array.make 8 false);
        pcs =
          Array.init warp_size (fun lane ->
              if lane < lanes_in_warp then 0 else done_pc);
      }
    in
    let warps = Array.init warps_per_block make_warp in
    (* `Run: can make progress; `Bar: parked at a barrier; `Done *)
    let status = Array.make warps_per_block `Run in
    let diverged = Array.make warps_per_block false in
    let run_warp_slice w =
      let st = warps.(w) in
      let warp_index = (blk * warps_per_block) + w in
      (* Hooks read registers through [Exec.word], over a flat
         zero-extended copy of this warp's file refreshed before each
         callback. *)
      let nslots = prog.Program.n_regs + 2 in
      let api =
        { warp_index; executing = 0; regs = Array.make (warp_size * nslots) 0;
          nslots }
      in
      let fire inj =
        stats.tool_cycles <- stats.tool_cycles + inj.fixed_cost;
        for lane = 0 to warp_size - 1 do
          for r = 0 to nslots - 1 do
            api.regs.((lane * nslots) + r) <-
              Int32.to_int st.regs.(lane).(r) land 0xffffffff
          done
        done;
        inj.fn stats api
      in
      let min_pc () =
        let m = ref done_pc in
        for lane = 0 to warp_size - 1 do
          if st.pcs.(lane) < !m then m := st.pcs.(lane)
        done;
        !m
      in
      let lane_executes (i : Instr.t) lane =
        match i.Instr.guard with
        | None -> true
        | Some g -> pred_value st ~lane g
      in
      let rec step () =
        let m = min_pc () in
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
             warp scheduling are. *)
          (match flt with
          | Some a when not (Fault.arch_fired a) -> (
            match Fault.arch_tick a with
            | Some (Fault.Reg_flip { lane; reg; bit; _ }) ->
              let lane = lane land (warp_size - 1) in
              let file = st.regs.(lane) in
              let r = reg mod Array.length file in
              file.(r) <-
                Int32.logxor file.(r) (Int32.shift_left 1l (bit land 31))
            | Some (Fault.Shmem_flip { word; bit; _ }) ->
              let addr = word mod (Bytes.length shared / 4) * 4 in
              let v = Bytes.get_int32_le shared addr in
              Bytes.set_int32_le shared addr
                (Int32.logxor v (Int32.shift_left 1l (bit land 31)))
            | Some (Fault.Instr_flip _) | None -> ())
          | _ -> ());
          let i = Program.instr prog m in
          (match obs with
          | None -> ()
          | Some a ->
            pc_counts.(m) <- pc_counts.(m) + 1;
            let d = ref false in
            for lane = 0 to warp_size - 1 do
              if st.pcs.(lane) <> m && st.pcs.(lane) <> done_pc then d := true
            done;
            if !d then
              Option.iter Fpx_obs.Metrics.incr divergent_steps;
            if !d <> diverged.(w) then begin
              diverged.(w) <- !d;
              Fpx_obs.Span.instant a.Fpx_obs.Sink.trace ~tid:warp_index
                ~name:(if !d then "warp_diverge" else "warp_reconverge")
                ~cat:"simt"
                ~ts:
                  (Fpx_obs.Sink.now a
                     ~launch_cycles:(Stats.total_cycles stats))
                ~args:
                  [ ("kernel", Fpx_obs.Span.S prog.Program.name);
                    ("pc", Fpx_obs.Span.I m) ]
                ()
            end);
          if i.Instr.op = Isa.BAR then begin
            (* every live lane must have arrived *)
            for lane = 0 to warp_size - 1 do
              if st.pcs.(lane) <> m && st.pcs.(lane) <> done_pc then
                trapf "divergent barrier in kernel %s at pc %d"
                  prog.Program.name m
            done;
            stats.dyn_instrs <- stats.dyn_instrs + 1;
            stats.base_cycles <- stats.base_cycles + Isa.base_cost i.Instr.op;
            `Bar
          end
          else begin
            stats.dyn_instrs <- stats.dyn_instrs + 1;
            stats.base_cycles <- stats.base_cycles + Isa.base_cost i.Instr.op;
            let hooked = hooks.before.(m) <> [] || hooks.after.(m) <> [] in
            if hooked then begin
              let executing = ref 0 in
              for lane = warp_size - 1 downto 0 do
                if st.pcs.(lane) = m && lane_executes i lane then
                  executing := !executing lor (1 lsl lane)
              done;
              api.executing <- !executing
            end;
            if hooked then List.iter fire hooks.before.(m);
            for lane = 0 to warp_size - 1 do
              if st.pcs.(lane) = m then
                if lane_executes i lane then
                  st.pcs.(lane) <-
                    (try
                       execute_lane ~ftz ~flt ~stats st cbank0 ~mem ~shared
                         ~lane ~warp_in_block:w ~block:blk ~grid
                         ~block_dim:block i
                     with Memory.Fault { addr; size } ->
                       trapf
                         "global access out of bounds: %d bytes at 0x%x in \
                          kernel %s"
                         size addr prog.Program.name)
                else st.pcs.(lane) <- m + 1
            done;
            if hooked then List.iter fire hooks.after.(m);
            step ()
          end
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
  stats
