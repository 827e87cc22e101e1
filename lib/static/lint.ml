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

let is_guard_use = function
  | Decode.(U_fsetp _ | U_dsetp _ | U_fset _ | U_fchk _ | U_fmnmx _) -> true
  | _ -> false

let is_escape = function
  | Decode.(U_stg32 _ | U_stg64 _ | U_sts32 _ | U_sts64 _ | U_atom_add _) ->
    true
  | _ -> false

(* Path-insensitive may-taint: seed the origin's destination registers,
   sweep the whole program until stable, note the first escape and the
   first guard use. Deliberately coarse — it answers "where could this
   value show up", the question the dynamic flow chains answer
   precisely. Uses are {!Decode.reads}, so an address never carries the
   taint. *)
let taint_from (dec : Decode.t) ~origin_pc ~dest_regs =
  let nregs = dec.Decode.nslots in
  let tainted = Array.make nregs false in
  List.iter (fun r -> if r < nregs then tainted.(r) <- true) dest_regs;
  let escape = ref None and guard = ref None in
  let changed = ref true in
  let passes = ref 0 in
  while !changed && !passes < 8 do
    changed := false;
    incr passes;
    Array.iteri
      (fun pc (e : Decode.entry) ->
        let u = e.Decode.uop in
        if
          (pc > origin_pc || !passes > 1)
          && List.exists (fun r -> tainted.(r)) (Decode.words (Decode.reads u))
        then begin
          if is_escape u && !escape = None then escape := Some pc;
          if is_guard_use u && !guard = None then guard := Some pc;
          List.iter
            (fun r ->
              if not tainted.(r) then begin
                tainted.(r) <- true;
                changed := true
              end)
            (Decode.words (Decode.writes u))
        end)
      dec.Decode.entries
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
          taint_from p.Prune.analysis.Absint.dec ~origin_pc:pc
            ~dest_regs:(Site.regs check)
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
