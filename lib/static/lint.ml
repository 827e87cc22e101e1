open Fpx_sass
module A = Absval

type fate = Killed | Guarded | Surviving

let fate_to_string = function
  | Killed -> "dies (absorbed by arithmetic)"
  | Guarded -> "deselected by a guard"
  | Surviving -> "still live at the last sighting"

type finding = {
  pc : int;
  loc : string;
  sass : string;
  fmt : Isa.fp_format;
  div0 : bool;
  kinds : A.cls;
  cause : string;
  fate : fate;
  sink_pc : int option;
}

type report = {
  kernel : string;
  n_sites : int;
  n_clean : int;
  findings : finding list;
}

(* --- forward taint from one site's destination ------------------------ *)

let reads_pair (i : Instr.t) k =
  match (i.Instr.op, k) with
  | (Isa.DADD | Isa.DMUL | Isa.DFMA | Isa.DSETP _), (1 | 2 | 3) -> true
  | Isa.F2F (_, Isa.FP64), 1 -> true
  | Isa.F2I Isa.FP64, 1 -> true
  | (Isa.STG Isa.W64 | Isa.STS Isa.W64), 1 -> true
  | _ -> false

let operand_regs (i : Instr.t) k =
  match (Instr.get_operand i k).Operand.base with
  | Operand.Reg n when n <> Operand.rz ->
    if reads_pair i k then [ n; n + 1 ] else [ n ]
  | _ -> []
  | exception _ -> []

(* Source operand indices actually read as values (addresses excluded —
   an exceptional FP value never flows through an address untrapped). *)
let use_indices (i : Instr.t) =
  let n = Array.length i.Instr.operands in
  let from k = List.init (max 0 (n - k)) (fun j -> j + k) in
  match i.Instr.op with
  | Isa.STG _ | Isa.STS _ -> [ 1 ]
  | Isa.ATOM_ADD _ -> [ 2 ]
  | Isa.LDG _ | Isa.LDS _ -> []
  | Isa.BRA | Isa.BAR | Isa.EXIT | Isa.NOP | Isa.S2R _ -> []
  | _ -> from 1

let writes_pair (i : Instr.t) =
  match i.Instr.op with
  | Isa.DADD | Isa.DMUL | Isa.DFMA | Isa.F2F (Isa.FP64, _)
  | Isa.I2F Isa.FP64 | Isa.LDG Isa.W64 | Isa.LDS Isa.W64 -> true
  | _ -> false

let is_guard_use (i : Instr.t) =
  match i.Instr.op with
  | Isa.FSETP _ | Isa.DSETP _ | Isa.FSET _ | Isa.FCHK | Isa.FMNMX -> true
  | _ -> false

let is_escape (i : Instr.t) =
  match i.Instr.op with
  | Isa.STG _ | Isa.STS _ | Isa.ATOM_ADD _ -> true
  | _ -> false

(* Path-insensitive may-taint: seed the origin's destination registers,
   sweep the whole program until stable, note the first escape and the
   first guard use. Deliberately coarse — it answers "where could this
   value show up", the question the dynamic flow chains answer
   precisely. *)
let taint_from prog ~origin_pc ~dest_regs =
  let nregs = prog.Program.n_regs + 2 in
  let tainted = Array.make nregs false in
  List.iter (fun r -> if r < nregs then tainted.(r) <- true) dest_regs;
  let escape = ref None and guard = ref None in
  let changed = ref true in
  let passes = ref 0 in
  while !changed && !passes < 8 do
    changed := false;
    incr passes;
    Array.iter
      (fun (i : Instr.t) ->
        if i.Instr.pc > origin_pc || !passes > 1 then begin
          let used =
            List.exists
              (fun k -> List.exists (fun r -> tainted.(r)) (operand_regs i k))
              (use_indices i)
          in
          if used then begin
            if is_escape i && !escape = None then escape := Some i.Instr.pc;
            if is_guard_use i && !guard = None then guard := Some i.Instr.pc;
            match Instr.dest_reg_num i with
            | Some d when d <> Operand.rz && d < nregs ->
              if not tainted.(d) then begin
                tainted.(d) <- true;
                changed := true
              end;
              if writes_pair i && d + 1 < nregs && not tainted.(d + 1) then begin
                tainted.(d + 1) <- true;
                changed := true
              end
            | _ -> ()
          end
        end)
      prog.Program.instrs
  done;
  match (!escape, !guard) with
  | Some pc, _ -> (Surviving, Some pc)
  | None, Some pc -> (Guarded, Some pc)
  | None, None -> (Killed, None)

(* --- causes ----------------------------------------------------------- *)

let kinds_to_string ~div0 kinds =
  if div0 then "DIV0"
  else
    String.concat "+"
      (List.filter_map
         (fun (m, s) -> if kinds land m <> 0 then Some s else None)
         [ (A.m_nan, "NaN"); (A.m_inf, "INF"); (A.m_sub, "SUB") ])

let cause_of (i : Instr.t) ~src_cls ~fired =
  let dest_s = A.cls_to_string fired in
  match i.Instr.op with
  | Isa.MUFU (Isa.Rcp | Isa.Rcp64h) when A.may A.m_zero src_cls ->
    "divisor may be Zero — the reciprocal lands in " ^ dest_s
  | Isa.MUFU (Isa.Rsq | Isa.Rsq64h) when A.may A.m_zero src_cls ->
    "rsqrt input may be Zero — the result lands in " ^ dest_s
  | Isa.MUFU (Isa.Rsq | Isa.Sqrt | Isa.Lg2) ->
    Printf.sprintf "input in %s (sign unknown) can land the result in %s"
      (A.cls_to_string src_cls) dest_s
  | Isa.HADD2 | Isa.HMUL2 | Isa.HFMA2 | Isa.F2F (Isa.FP16, _) ->
    "packed FP16 ranges are not tracked statically — always checked"
  | _ ->
    Printf.sprintf "operands in %s can drive the result into %s"
      (A.cls_to_string src_cls) dest_s

let lint prog =
  let p = Prune.analyze prog in
  let findings = ref [] in
  Array.iter
    (fun (i : Instr.t) ->
      let pc = i.Instr.pc in
      match (Site.plan i, Prune.firing_mask p pc) with
      | Some check, Some mask when Prune.verdict p pc = Prune.May_except ->
        let f = Absint.fact p.Prune.analysis pc in
        let dv = Prune.dest_val p pc in
        let fired =
          (* never-clean FP16 sites carry no tracked dest classes *)
          if A.is_bot dv && f.Absint.reachable then mask
          else dv.A.cls land mask
        in
        let fate, sink_pc =
          taint_from prog ~origin_pc:pc ~dest_regs:(Site.regs check)
        in
        findings :=
          {
            pc;
            loc = Instr.loc_string i;
            sass = Instr.sass_string i;
            fmt = Site.fmt check;
            div0 = Site.is_div0 check;
            kinds = fired;
            cause = cause_of i ~src_cls:f.Absint.src_cls ~fired;
            fate;
            sink_pc;
          }
          :: !findings
      | _ -> ())
    prog.Program.instrs;
  {
    kernel = prog.Program.name;
    n_sites = Prune.n_sites p;
    n_clean = Prune.n_clean p;
    findings = List.rev !findings;
  }

let to_lines r =
  let header =
    Printf.sprintf
      "kernel [%s]: %d instrumentable sites, %d provably clean, %d flagged"
      r.kernel r.n_sites r.n_clean
      (List.length r.findings)
  in
  header
  :: List.concat_map
       (fun f ->
         let sink =
           match f.sink_pc with
           | Some pc -> Printf.sprintf " at /*%04x*/" (pc * 16)
           | None -> ""
         in
         [
           Printf.sprintf "  /*%04x*/ %s  @ %s" (f.pc * 16) f.sass f.loc;
           Printf.sprintf "    may raise %s [%s]: %s"
             (kinds_to_string ~div0:f.div0 f.kinds)
             (Isa.fp_format_to_string f.fmt)
             f.cause;
           Printf.sprintf "    flow: %s%s" (fate_to_string f.fate) sink;
         ])
       r.findings
