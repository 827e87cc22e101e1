open Fpx_sass
module Fp32 = Fpx_num.Fp32
module Fp64 = Fpx_num.Fp64
module A = Absval

type fact = {
  reachable : bool;
  dest32 : A.t;
  dest64 : A.t;
  src_cls : A.cls;
}

type t = { prog : Program.t; cfg : Cfg.t; facts : fact array }

let fact t pc = t.facts.(pc)

let bot_fact =
  { reachable = false; dest32 = A.bot; dest64 = A.bot; src_cls = A.m_none }

(* --- environments ----------------------------------------------------

   [regs] is the FP32 view of each 32-bit register; [pairs.(d)] the FP64
   view of the pair (d, d+1) when one was written as a unit ([None]
   falls back to reconstructing a constant from the two words, else ⊤);
   [preds] is a 2-bit may-set per predicate: bit 1 = may be false,
   bit 2 = may be true. *)

type env = { regs : A.t array; pairs : A.t option array; preds : int array }

let top64 = A.of_cls A.W64 A.m_all

let init_env (prog : Program.t) =
  let n = prog.Program.n_regs + 2 in
  {
    regs = Array.make n (A.of_const32 0l);
    pairs = Array.make n None;
    preds = Array.make 8 1;  (* predicates initialise to false *)
  }

let copy_env e =
  {
    regs = Array.copy e.regs;
    pairs = Array.copy e.pairs;
    preds = Array.copy e.preds;
  }

(* dst := dst ⊔ src; returns whether dst changed. *)
let join_env_into ~widen dst src =
  let changed = ref false in
  let comb = if widen then A.widen else A.join in
  Array.iteri
    (fun r v ->
      let j = comb dst.regs.(r) v in
      if not (A.equal j dst.regs.(r)) then begin
        dst.regs.(r) <- j;
        changed := true
      end)
    src.regs;
  Array.iteri
    (fun r p ->
      let j =
        match (dst.pairs.(r), p) with
        | Some a, Some b -> Some (comb a b)
        | _ -> None
      in
      (match (j, dst.pairs.(r)) with
      | Some a, Some b when A.equal a b -> ()
      | None, None -> ()
      | _ ->
        dst.pairs.(r) <- j;
        changed := true))
    src.pairs;
  Array.iteri
    (fun p v ->
      let j = dst.preds.(p) lor v in
      if j <> dst.preds.(p) then begin
        dst.preds.(p) <- j;
        changed := true
      end)
    src.preds;
  !changed

(* --- operand reads ---------------------------------------------------- *)

let reg32 env n =
  if n = Operand.rz then A.of_const32 0l
  else if n < Array.length env.regs then env.regs.(n)
  else A.top

let rd32 ~ftz env (o : Operand.t) =
  let raw =
    match o.Operand.base with
    | Operand.Reg n -> reg32 env n
    | Operand.Imm_f32 b -> A.of_const32 b
    | Operand.Imm_i v -> A.of_const32 v
    | Operand.Imm_f64 v -> A.of_const32 (Fp32.of_float v)
    | Operand.Generic s -> (
      match Operand.generic_value s with
      | Some v -> A.of_const32 (Fp32.of_float v)
      | None -> A.top)
    | Operand.Cbank _ -> A.top
    | Operand.Pred _ | Operand.Label _ -> A.top
  in
  let v = if ftz then A.ftz32 raw else raw in
  let v = if o.Operand.abs then A.abs_mod A.W32 v else v in
  if o.Operand.neg then A.neg_mod A.W32 v else v

let pair_read env n =
  if n = Operand.rz then A.of_const64 0.
  else if n + 1 >= Array.length env.regs then top64
  else
    match env.pairs.(n) with
    | Some v -> v
    | None -> (
      match ((reg32 env n).A.const32, (reg32 env (n + 1)).A.const32) with
      | Some lo, Some hi -> A.of_const64 (Fp64.of_words ~lo ~hi)
      | _ -> top64)

let rd64 env (o : Operand.t) =
  let raw =
    match o.Operand.base with
    | Operand.Reg n -> pair_read env n
    | Operand.Imm_f64 v -> A.of_const64 v
    | Operand.Imm_f32 b -> A.of_const64 (Fp32.to_float b)
    | Operand.Generic s -> (
      match Operand.generic_value s with
      | Some v -> A.of_const64 v
      | None -> top64)
    | Operand.Cbank _ -> top64
    | Operand.Imm_i _ | Operand.Pred _ | Operand.Label _ -> top64
  in
  let v = if o.Operand.abs then A.abs_mod A.W64 raw else raw in
  if o.Operand.neg then A.neg_mod A.W64 v else v

(* Raw word read (MOV, I2F, MUFU.*64H input): no modifiers, no flush —
   mirrors [Exec]'s integer source reads. *)
let rdi env (o : Operand.t) =
  match o.Operand.base with
  | Operand.Reg n -> reg32 env n
  | Operand.Imm_i v -> A.of_const32 v
  | Operand.Imm_f32 b -> A.of_const32 b
  | Operand.Cbank _ | Operand.Imm_f64 _ | Operand.Generic _ | Operand.Pred _
  | Operand.Label _ -> A.top

let p_not p = ((p land 1) lsl 1) lor ((p lsr 1) land 1)

let rd_pred env (o : Operand.t) =
  match o.Operand.base with
  | Operand.Pred p ->
    let v = if p = Operand.pt then 2 else env.preds.(p) in
    if o.Operand.pred_not then p_not v else v
  | _ -> 3

let guard_val env = function None -> 2 | Some g -> rd_pred env g

(* --- writes ----------------------------------------------------------- *)

let wr32 env d v =
  if d <> Operand.rz && d < Array.length env.regs then begin
    env.regs.(d) <- v;
    env.pairs.(d) <- None;
    if d > 0 then env.pairs.(d - 1) <- None
  end

let wr_pair env d v =
  if d <> Operand.rz && d + 1 < Array.length env.regs then begin
    (match v.A.const64 with
    | Some f ->
      let lo, hi = Fp64.to_words f in
      env.regs.(d) <- A.of_const32 lo;
      env.regs.(d + 1) <- A.of_const32 hi
    | None ->
      env.regs.(d) <- A.top;
      env.regs.(d + 1) <- A.top);
    env.pairs.(d) <- Some v;
    if d > 0 then env.pairs.(d - 1) <- None;
    env.pairs.(d + 1) <- None
  end

let wr_pred env (i : Instr.t) v =
  match (Instr.get_operand i 0).Operand.base with
  | Operand.Pred p -> if p <> Operand.pt then env.preds.(p) <- v
  | _ -> ()

(* --- abstract comparisons and predicate logic ------------------------- *)

let definitely_nan v =
  not (A.is_bot v) && v.A.cls land lnot A.m_nan = 0

let acmp32 (c : Isa.cmp) a b =
  match (a.A.const32, b.A.const32) with
  | Some x, Some y -> if Isa.eval_cmp c (Fp32.compare_ieee x y) then 2 else 1
  | _ ->
    if definitely_nan a || definitely_nan b then
      if c.Isa.or_unordered then 2 else 1
    else 3

let acmp64 (c : Isa.cmp) a b =
  match (a.A.const64, b.A.const64) with
  | Some x, Some y -> if Isa.eval_cmp c (Fp64.compare_ieee x y) then 2 else 1
  | _ ->
    if definitely_nan a || definitely_nan b then
      if c.Isa.or_unordered then 2 else 1
    else 3

let pvals p =
  (if p land 2 <> 0 then [ true ] else [])
  @ if p land 1 <> 0 then [ false ] else []

let plift2 f p q =
  List.fold_left
    (fun acc a ->
      List.fold_left
        (fun acc b -> acc lor if f a b then 2 else 1)
        acc (pvals q))
    0 (pvals p)

let ifold2 f a b =
  match (a.A.const32, b.A.const32) with
  | Some x, Some y -> A.of_const32 (f x y)
  | _ -> A.top

let f2i_fold v =
  if Float.is_nan v then Some 0l
  else if Float.abs v < 2147483648. then Some (Int32.of_float v)
  else None

(* --- per-instruction transfer ------------------------------------------

   Mutates [env]; returns the FP source abstract values (the linter's
   cause material). *)

let exec_abs ~ftz env (i : Instr.t) =
  let opnd k = Instr.get_operand i k in
  let f32 k = rd32 ~ftz env (opnd k) in
  let f32r k = rd32 ~ftz:false env (opnd k) in
  let f64 k = rd64 env (opnd k) in
  let int k = rdi env (opnd k) in
  let d () = match Instr.dest_reg_num i with Some d -> d | None -> Operand.rz in
  match i.Instr.op with
  | Isa.FADD | Isa.FADD32I ->
    let a = f32 1 and b = f32 2 in
    wr32 env (d ()) (A.add A.W32 ~ftz a b);
    [ a; b ]
  | Isa.FMUL | Isa.FMUL32I ->
    let a = f32 1 and b = f32 2 in
    wr32 env (d ()) (A.mul A.W32 ~ftz a b);
    [ a; b ]
  | Isa.FFMA | Isa.FFMA32I ->
    let a = f32 1 and b = f32 2 and c = f32 3 in
    wr32 env (d ()) (A.fma A.W32 ~ftz a b c);
    [ a; b; c ]
  | Isa.MUFU ((Isa.Rcp64h | Isa.Rsq64h) as m) ->
    let x = int 1 in
    let dv, pv = A.mufu64h m x in
    let dd = d () in
    wr32 env dd dv;
    if dd > 0 && dd - 1 < Array.length env.pairs then
      env.pairs.(dd - 1) <- Some pv;
    [ x ]
  | Isa.MUFU m ->
    let x = f32 1 in
    wr32 env (d ()) (A.mufu m x);
    [ x ]
  | Isa.HADD2 | Isa.HMUL2 | Isa.HFMA2 ->
    wr32 env (d ()) A.top;
    []
  | Isa.DADD ->
    let a = f64 1 and b = f64 2 in
    wr_pair env (d ()) (A.add A.W64 ~ftz:false a b);
    [ a; b ]
  | Isa.DMUL ->
    let a = f64 1 and b = f64 2 in
    wr_pair env (d ()) (A.mul A.W64 ~ftz:false a b);
    [ a; b ]
  | Isa.DFMA ->
    let a = f64 1 and b = f64 2 and c = f64 3 in
    wr_pair env (d ()) (A.fma A.W64 ~ftz:false a b c);
    [ a; b; c ]
  | Isa.FSEL | Isa.SEL ->
    let a = f32r 1 and b = f32r 2 in
    let v =
      match rd_pred env (opnd 3) with
      | 2 -> a
      | 1 -> b
      | _ -> A.select a b
    in
    wr32 env (d ()) v;
    [ a; b ]
  | Isa.FSET c ->
    let a = f32 1 and b = f32 2 in
    let v =
      match acmp32 c a b with
      | 2 -> A.of_const32 Fp32.one
      | 1 -> A.of_const32 Fp32.zero
      | _ -> A.fset_result
    in
    wr32 env (d ()) v;
    [ a; b ]
  | Isa.FSETP c ->
    let a = f32 1 and b = f32 2 in
    wr_pred env i (acmp32 c a b);
    [ a; b ]
  | Isa.FMNMX ->
    let a = f32 1 and b = f32 2 in
    let is_min =
      match rd_pred env (opnd 3) with 2 -> Some true | 1 -> Some false
                                    | _ -> None
    in
    wr32 env (d ()) (A.minmax_nv ~ftz ?is_min a b);
    [ a; b ]
  | Isa.DSETP c ->
    let a = f64 1 and b = f64 2 in
    wr_pred env i (acmp64 c a b);
    [ a; b ]
  | Isa.PSETP b ->
    let p1 = rd_pred env (opnd 1) and p2 = rd_pred env (opnd 2) in
    wr_pred env i (plift2 (Isa.eval_pbool b) p1 p2);
    []
  | Isa.FCHK ->
    wr_pred env i 3;
    []
  | Isa.F2F (Isa.FP32, Isa.FP64) ->
    let x = f64 1 in
    wr32 env (d ()) (A.f2f_narrow ~ftz x);
    [ x ]
  | Isa.F2F (Isa.FP64, Isa.FP32) ->
    let x = f32 1 in
    wr_pair env (d ()) (A.f2f_widen x);
    [ x ]
  | Isa.F2F (Isa.FP32, Isa.FP32) ->
    let x = f32 1 in
    wr32 env (d ()) (if ftz then A.ftz32 x else x);
    [ x ]
  | Isa.F2F (Isa.FP64, Isa.FP64) ->
    let x = f64 1 in
    wr_pair env (d ()) x;
    [ x ]
  | Isa.F2F (Isa.FP16, _) ->
    wr32 env (d ()) A.top;
    []
  | Isa.F2F _ ->
    wr32 env (d ()) A.top;
    []
  | Isa.I2F Isa.FP32 ->
    wr32 env (d ()) (A.i2f_result A.W32 (int 1));
    []
  | Isa.I2F Isa.FP64 ->
    wr_pair env (d ()) (A.i2f_result A.W64 (int 1));
    []
  | Isa.I2F Isa.FP16 ->
    wr32 env (d ()) A.top;
    []
  | Isa.F2I Isa.FP32 ->
    let x = f32 1 in
    wr32 env (d ())
      (match x.A.const32 with
      | Some b -> (
        match f2i_fold (Fp32.to_float b) with
        | Some v -> A.of_const32 v
        | None -> A.top)
      | None -> A.top);
    []
  | Isa.F2I (Isa.FP64 | Isa.FP16) ->
    let x = f64 1 in
    wr32 env (d ())
      (match x.A.const64 with
      | Some v -> (
        match f2i_fold v with Some v -> A.of_const32 v | None -> A.top)
      | None -> A.top);
    []
  | Isa.MOV | Isa.MOV32I ->
    wr32 env (d ()) (int 1);
    []
  | Isa.IADD ->
    wr32 env (d ()) (ifold2 Int32.add (int 1) (int 2));
    []
  | Isa.IMAD ->
    let p = ifold2 Int32.mul (int 1) (int 2) in
    wr32 env (d ()) (ifold2 Int32.add p (int 3));
    []
  | Isa.ISETP c ->
    let a = int 1 and b = int 2 in
    wr_pred env i
      (match (a.A.const32, b.A.const32) with
      | Some x, Some y ->
        if Isa.eval_cmp c (Some (Int32.compare x y)) then 2 else 1
      | _ -> 3);
    []
  | Isa.SHL ->
    wr32 env (d ())
      (ifold2
         (fun x y -> Int32.shift_left x (Int32.to_int y land 31))
         (int 1) (int 2));
    []
  | Isa.SHR ->
    wr32 env (d ())
      (ifold2
         (fun x y -> Int32.shift_right_logical x (Int32.to_int y land 31))
         (int 1) (int 2));
    []
  | Isa.LOP_AND ->
    wr32 env (d ()) (ifold2 Int32.logand (int 1) (int 2));
    []
  | Isa.LOP_OR ->
    wr32 env (d ()) (ifold2 Int32.logor (int 1) (int 2));
    []
  | Isa.LOP_XOR ->
    wr32 env (d ()) (ifold2 Int32.logxor (int 1) (int 2));
    []
  | Isa.LDG Isa.W32 | Isa.LDS Isa.W32 | Isa.ATOM_ADD _ | Isa.S2R _ ->
    wr32 env (d ()) A.top;
    []
  | Isa.LDG Isa.W64 | Isa.LDS Isa.W64 ->
    let dd = d () in
    wr32 env dd A.top;
    wr32 env (dd + 1) A.top;
    []
  | Isa.STG _ | Isa.STS _ | Isa.BRA | Isa.BAR | Isa.EXIT | Isa.NOP -> []

(* --- the fixpoint ------------------------------------------------------ *)

let src_cls_of srcs =
  List.fold_left (fun acc (v : A.t) -> acc lor v.A.cls) A.m_none srcs

(* Step one instruction with guard handling. [record] sees the stepped
   (executing-lane) environment before the weak-update join. *)
let transfer ~ftz ?record env (i : Instr.t) =
  let note srcs =
    match record with
    | None -> ()
    | Some f ->
      let dest32 =
        match Instr.dest_reg_num i with
        | Some d -> reg32 env d
        | None -> A.bot
      in
      let dest64 =
        match (i.Instr.op, Instr.dest_reg_num i) with
        | Isa.MUFU (Isa.Rcp64h | Isa.Rsq64h), Some d when d > 0 ->
          pair_read env (d - 1)
        | (Isa.DADD | Isa.DMUL | Isa.DFMA), Some d -> pair_read env d
        | _ -> A.bot
      in
      f ~dest32 ~dest64 ~src_cls:(src_cls_of srcs)
  in
  match guard_val env i.Instr.guard with
  | g when g land 2 = 0 -> ()  (* guard definitely false: no lane executes *)
  | 2 ->
    let srcs = exec_abs ~ftz env i in
    note srcs
  | _ ->
    let saved = copy_env env in
    let srcs = exec_abs ~ftz env i in
    note srcs;
    ignore (join_env_into ~widen:false env saved : bool)

let branch_target (i : Instr.t) =
  match (Instr.get_operand i 0).Operand.base with
  | Operand.Label pc -> pc
  | _ -> -1

let analyze (prog : Program.t) =
  let cfg = Cfg.build prog in
  let ftz = prog.Program.ftz in
  let n = Program.length prog in
  let nb = Array.length cfg.Cfg.blocks in
  let in_envs = Array.make nb None in
  let visits = Array.make nb 0 in
  let entry = (Cfg.entry cfg).Cfg.id in
  in_envs.(entry) <- Some (init_env prog);
  let step_block ?record env (blk : Cfg.block) =
    for pc = blk.Cfg.first to blk.Cfg.last do
      let i = Program.instr prog pc in
      let record =
        match record with None -> None | Some f -> Some (f pc)
      in
      transfer ~ftz ?record env i
    done
  in
  (* Which successors can actually be reached, given the abstract value
     of the terminator's guard? *)
  let feasible_succs env (blk : Cfg.block) =
    let last = Program.instr prog blk.Cfg.last in
    match last.Instr.op with
    | Isa.BRA ->
      let gv = guard_val env last.Instr.guard in
      let tgt =
        let t = branch_target last in
        if t >= 0 && t < n then Some cfg.Cfg.block_of_pc.(t) else None
      in
      let fall =
        if blk.Cfg.last + 1 < n then Some cfg.Cfg.block_of_pc.(blk.Cfg.last + 1)
        else None
      in
      List.filter
        (fun s ->
          (Some s = tgt && gv land 2 <> 0)
          || (Some s = fall && gv land 1 <> 0))
        blk.Cfg.succs
    | _ -> blk.Cfg.succs
  in
  let worklist = Queue.create () in
  Queue.add entry worklist;
  let queued = Array.make nb false in
  queued.(entry) <- true;
  while not (Queue.is_empty worklist) do
    let b = Queue.pop worklist in
    queued.(b) <- false;
    match in_envs.(b) with
    | None -> ()
    | Some in_env ->
      visits.(b) <- visits.(b) + 1;
      let out = copy_env in_env in
      step_block out cfg.Cfg.blocks.(b);
      List.iter
        (fun s ->
          let changed =
            match in_envs.(s) with
            | None ->
              in_envs.(s) <- Some (copy_env out);
              true
            | Some cur ->
              join_env_into ~widen:(visits.(s) > 4) cur out
          in
          if changed && not queued.(s) then begin
            queued.(s) <- true;
            Queue.add s worklist
          end)
        (feasible_succs out cfg.Cfg.blocks.(b))
  done;
  (* Final pass: replay each reachable block from its stable in-env,
     recording per-site facts (joined across visits of the replay —
     one replay suffices since the in-envs are fixpoints). *)
  let facts = Array.make n bot_fact in
  Array.iter
    (fun (blk : Cfg.block) ->
      match in_envs.(blk.Cfg.id) with
      | None -> ()
      | Some in_env ->
        let env = copy_env in_env in
        let record pc ~dest32 ~dest64 ~src_cls =
          let old = facts.(pc) in
          facts.(pc) <-
            {
              reachable = true;
              dest32 = A.join old.dest32 dest32;
              dest64 = A.join old.dest64 dest64;
              src_cls = old.src_cls lor src_cls;
            }
        in
        step_block ~record env blk)
    cfg.Cfg.blocks;
  { prog; cfg; facts }
