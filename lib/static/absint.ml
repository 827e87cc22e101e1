open Fpx_sass
module Fp32 = Fpx_num.Fp32
module Fp64 = Fpx_num.Fp64
module A = Absval
module D = Decode

type fact = {
  reachable : bool;
  dest32 : A.t;
  dest64 : A.t;
  src_cls : A.cls;
}

type t = { dec : D.t; facts : fact array }

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

(* --- operand reads ------------------------------------------------------

   Operands arrive as {!Decode}'s descriptors, so RZ, immediates,
   GENERIC tokens and the program-level FTZ are already resolved and
   every register index is inside the file. A poisoned source reads as
   ⊤ and a poisoned predicate as unknown: the concrete core traps
   there, so nothing it reads flows on. *)

let flush ftz v = if ftz then A.flush32 v else v

let mods w ~neg ~abs v =
  let v = if abs then A.abs_mod w v else v in
  if neg then A.neg_mod w v else v

let rd32 env : D.f32src -> A.t = function
  | D.F32_reg r -> env.regs.(r)
  | D.F32_reg_m { r; neg; abs; ftz } ->
    mods A.W32 ~neg ~abs (flush ftz env.regs.(r))
  | D.F32_imm b -> A.of_const32 (Int32.of_int b)
  | D.F32_cb _ | D.F32_poison _ -> A.top
  | D.F32_cb_m { neg; abs; ftz; _ } -> mods A.W32 ~neg ~abs (flush ftz A.top)

let pair_read env n =
  if n = Operand.rz then A.of_const64 0.
  else if n + 1 >= Array.length env.regs then top64
  else
    match env.pairs.(n) with
    | Some v -> v
    | None -> (
      match (env.regs.(n).A.const32, env.regs.(n + 1).A.const32) with
      | Some lo, Some hi -> A.of_const64 (Fp64.of_words ~lo ~hi)
      | _ -> top64)

let rd64 env : D.f64src -> A.t = function
  | D.F64_reg r -> pair_read env r
  | D.F64_reg_m { r; neg; abs } -> mods A.W64 ~neg ~abs (pair_read env r)
  | D.F64_imm v -> A.of_const64 v
  | D.F64_cb { neg; abs; _ } -> mods A.W64 ~neg ~abs top64
  | D.F64_poison _ -> top64

(* Raw word read (MOV, I2F, MUFU.*64H input): no modifiers, no flush. *)
let rdi env : D.i32src -> A.t = function
  | D.I32_reg r -> env.regs.(r)
  | D.I32_imm v -> A.of_const32 (Int32.of_int v)
  | D.I32_cb _ | D.I32_poison _ -> A.top

let p_not p = ((p land 1) lsl 1) lor ((p lsr 1) land 1)

(* A packed predicate: [p lor (negated lsl 3)]. *)
let pred env packed =
  let p = packed land 7 in
  let v = if p = Operand.pt then 2 else env.preds.(p) in
  if packed land 8 <> 0 then p_not v else v

let rd_pred env = function D.P_src p -> pred env p | D.P_poison _ -> 3

let guard_val env = function
  | D.G_none -> 2
  | D.G_p p -> pred env p
  | D.G_poison _ -> 3

(* --- writes -------------------------------------------------------------

   RZ and poisoned destinations are not written: {!Decode} turned them
   into [D_sink] / [D_poison]. *)

let set32 env d v =
  env.regs.(d) <- v;
  env.pairs.(d) <- None;
  if d > 0 then env.pairs.(d - 1) <- None

let wr32 env (d : D.dst) v =
  match d with D.D_reg d -> set32 env d v | D.D_sink | D.D_poison _ -> ()

(* Both words of a pair destination, each a 32-bit write. *)
let wr_words env (d : D.dst) v =
  match d with
  | D.D_reg d ->
    set32 env d v;
    if d + 1 < Array.length env.regs then set32 env (d + 1) v
  | D.D_sink | D.D_poison _ -> ()

let wr_pair env (d : D.dst) v =
  match d with
  | D.D_reg d when d + 1 < Array.length env.regs ->
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
  | D.D_reg _ | D.D_sink | D.D_poison _ -> ()

let wr_pred env (pd : D.pdst) v =
  match pd with
  | D.PD_reg p when p <> Operand.pt -> env.preds.(p) <- v
  | D.PD_reg _ | D.PD_poison _ -> ()

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

let f2i_const = function
  | Some v -> (
    match f2i_fold v with Some v -> A.of_const32 v | None -> A.top)
  | None -> A.top

let exec_abs ~ftz env (u : D.uop) =
  let f32 = rd32 env and f64 = rd64 env and int = rdi env in
  match u with
  | D.U_fadd { d; a; b } ->
    let a = f32 a and b = f32 b in
    wr32 env d (A.add A.W32 ~ftz a b);
    [ a; b ]
  | D.U_fmul { d; a; b } ->
    let a = f32 a and b = f32 b in
    wr32 env d (A.mul A.W32 ~ftz a b);
    [ a; b ]
  | D.U_ffma { d; a; b; c } ->
    let a = f32 a and b = f32 b and c = f32 c in
    wr32 env d (A.fma A.W32 ~ftz a b c);
    [ a; b; c ]
  | D.U_mufu_64h { d; m; a } ->
    let x = int a in
    let dv, pv = A.mufu64h m x in
    wr32 env d dv;
    (match d with
    | D.D_reg d when d > 0 -> env.pairs.(d - 1) <- Some pv
    | D.D_reg _ | D.D_sink | D.D_poison _ -> ());
    [ x ]
  | D.U_mufu_f32 { d; m; a } ->
    let x = f32 a in
    wr32 env d (A.mufu m x);
    [ x ]
  | D.U_hadd2 { d; _ } | D.U_hmul2 { d; _ } | D.U_hfma2 { d; _ }
  | D.U_f16_of_f32 { d; _ } | D.U_f32_of_f16 { d; _ } ->
    wr32 env d A.top;
    []
  | D.U_dadd { d; a; b } ->
    let a = f64 a and b = f64 b in
    wr_pair env d (A.add A.W64 ~ftz:false a b);
    [ a; b ]
  | D.U_dmul { d; a; b } ->
    let a = f64 a and b = f64 b in
    wr_pair env d (A.mul A.W64 ~ftz:false a b);
    [ a; b ]
  | D.U_dfma { d; a; b; c } ->
    let a = f64 a and b = f64 b and c = f64 c in
    wr_pair env d (A.fma A.W64 ~ftz:false a b c);
    [ a; b; c ]
  | D.U_fsel { d; a; b; p } ->
    (* FSEL/SEL sources are decoded FTZ-free *)
    let a = f32 a and b = f32 b in
    let v =
      match rd_pred env p with 2 -> a | 1 -> b | _ -> A.select a b
    in
    wr32 env d v;
    [ a; b ]
  | D.U_fset { d; c; a; b } ->
    let a = f32 a and b = f32 b in
    let v =
      match acmp32 c a b with
      | 2 -> A.of_const32 Fp32.one
      | 1 -> A.of_const32 Fp32.zero
      | _ -> A.fset_result
    in
    wr32 env d v;
    [ a; b ]
  | D.U_fsetp { pd; c; a; b } ->
    let a = f32 a and b = f32 b in
    wr_pred env pd (acmp32 c a b);
    [ a; b ]
  | D.U_fmnmx { d; a; b; p } ->
    let a = f32 a and b = f32 b in
    let is_min =
      match rd_pred env p with 2 -> Some true | 1 -> Some false | _ -> None
    in
    wr32 env d (A.minmax_nv ~ftz ?is_min a b);
    [ a; b ]
  | D.U_dsetp { pd; c; a; b } ->
    let a = f64 a and b = f64 b in
    wr_pred env pd (acmp64 c a b);
    [ a; b ]
  | D.U_psetp { pd; op; p1; p2 } ->
    wr_pred env pd
      (plift2 (Isa.eval_pbool op) (rd_pred env p1) (rd_pred env p2));
    []
  | D.U_fchk { pd; _ } ->
    wr_pred env pd 3;
    []
  | D.U_f32_of_f64 { d; a } ->
    let x = f64 a in
    wr32 env d (A.f2f_narrow ~ftz x);
    [ x ]
  | D.U_f64_of_f32 { d; a } ->
    let x = f32 a in
    wr_pair env d (A.f2f_widen x);
    [ x ]
  | D.U_f32_of_f32 { d; a } ->
    let x = f32 a in
    wr32 env d (flush ftz x);
    [ x ]
  | D.U_f64_of_f64 { d; a } ->
    let x = f64 a in
    wr_pair env d x;
    [ x ]
  | D.U_i2f32 { d; a } ->
    wr32 env d (A.i2f_result A.W32 (int a));
    []
  | D.U_i2f64 { d; a } ->
    wr_pair env d (A.i2f_result A.W64 (int a));
    []
  | D.U_f2i32 { d; a } ->
    wr32 env d
      (f2i_const (Option.map Fp32.to_float (f32 a).A.const32));
    []
  | D.U_f2i64 { d; a } ->
    wr32 env d (f2i_const (f64 a).A.const64);
    []
  | D.U_mov { d; a } ->
    wr32 env d (int a);
    []
  | D.U_iadd { d; a; b } ->
    wr32 env d (ifold2 Int32.add (int a) (int b));
    []
  | D.U_imad { d; a; b; c } ->
    wr32 env d (ifold2 Int32.add (ifold2 Int32.mul (int a) (int b)) (int c));
    []
  | D.U_isetp { pd; c; a; b } ->
    wr_pred env pd
      (match ((int a).A.const32, (int b).A.const32) with
      | Some x, Some y ->
        if Isa.eval_cmp c (Some (Int32.compare x y)) then 2 else 1
      | _ -> 3);
    []
  | D.U_shl { d; a; b } ->
    wr32 env d
      (ifold2
         (fun x y -> Int32.shift_left x (Int32.to_int y land 31))
         (int a) (int b));
    []
  | D.U_shr { d; a; b } ->
    wr32 env d
      (ifold2
         (fun x y -> Int32.shift_right_logical x (Int32.to_int y land 31))
         (int a) (int b));
    []
  | D.U_and { d; a; b } ->
    wr32 env d (ifold2 Int32.logand (int a) (int b));
    []
  | D.U_or { d; a; b } ->
    wr32 env d (ifold2 Int32.logor (int a) (int b));
    []
  | D.U_xor { d; a; b } ->
    wr32 env d (ifold2 Int32.logxor (int a) (int b));
    []
  | D.U_ldg32 { d; _ } | D.U_lds32 { d; _ } | D.U_atom_add { d; _ }
  | D.U_s2r { d; _ } ->
    wr32 env d A.top;
    []
  | D.U_ldg64 { d; _ } | D.U_lds64 { d; _ } ->
    wr_words env d A.top;
    []
  (* U_trap: the concrete core traps here, so nothing is written. *)
  | D.U_stg32 _ | D.U_stg64 _ | D.U_sts32 _ | D.U_sts64 _ | D.U_bra _
  | D.U_bra_poison _ | D.U_bar | D.U_exit | D.U_nop | D.U_trap _ ->
    []

(* --- the fixpoint ------------------------------------------------------ *)

let src_cls_of srcs =
  List.fold_left (fun acc (v : A.t) -> acc lor v.A.cls) A.m_none srcs

(* Step one instruction with guard handling. [record] sees the stepped
   (executing-lane) environment before the weak-update join. *)
let transfer ~ftz ?record env (e : D.entry) =
  let step () =
    let srcs = exec_abs ~ftz env e.D.uop in
    Option.iter (fun f -> f env srcs) record
  in
  match guard_val env e.D.guard with
  | g when g land 2 = 0 -> ()  (* guard definitely false: no lane executes *)
  | 2 -> step ()
  | _ ->
    let saved = copy_env env in
    step ();
    ignore (join_env_into ~widen:false env saved : bool)

(* Join one executing-lane visit into a site's facts: the written
   register's FP32 view and, for an FP64 Algorithm-1 check, the pair
   that check reads. *)
let record_fact old env (i : Instr.t) (e : D.entry) srcs =
  let dest32 =
    match D.dst e.D.uop with
    | Some (D.D_reg d, _) -> env.regs.(d)
    | Some (D.D_sink, _) -> A.of_const32 0l
    | Some (D.D_poison _, _) -> A.top
    | None -> A.bot
  in
  let dest64 =
    match Site.plan i with
    | Some (Site.Check_64 (lo, _) | Site.Div0_64 (lo, _)) when lo >= 0 ->
      pair_read env lo
    | Some _ | None -> A.bot
  in
  {
    reachable = true;
    dest32 = A.join old.dest32 dest32;
    dest64 = A.join old.dest64 dest64;
    src_cls = old.src_cls lor src_cls_of srcs;
  }

let analyze (prog : Program.t) =
  let dec = D.program prog in
  let cfg = Cfg.build dec in
  let ftz = prog.Program.ftz in
  let n = Program.length prog in
  let nb = Array.length cfg.Cfg.blocks in
  let in_envs = Array.make nb None in
  let visits = Array.make nb 0 in
  let entry = (Cfg.entry cfg).Cfg.id in
  in_envs.(entry) <- Some (init_env prog);
  let step_block ?record env (blk : Cfg.block) =
    for pc = blk.Cfg.first to blk.Cfg.last do
      let record = Option.map (fun f -> f pc) record in
      transfer ~ftz ?record env dec.D.entries.(pc)
    done
  in
  (* Which successors can actually be reached, given the abstract value
     of the terminator's guard? *)
  let feasible_succs env (blk : Cfg.block) =
    let gv = guard_val env dec.D.entries.(blk.Cfg.last).D.guard in
    Cfg.succs_when cfg blk ~may_true:(gv land 2 <> 0)
      ~may_false:(gv land 1 <> 0)
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
        let record pc env srcs =
          facts.(pc) <-
            record_fact facts.(pc) env (Program.instr prog pc)
              dec.D.entries.(pc) srcs
        in
        step_block ~record env blk)
    cfg.Cfg.blocks;
  { dec; facts }
