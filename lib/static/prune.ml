open Fpx_sass
module A = Absval

type verdict = Provably_clean | May_except

type t = { analysis : Absint.t; verdicts : verdict array }

(* What a site's Algorithm-1 check ({!Site.plan}) reports on: the
   destination classes that make it fire, and the value view it reads
   (the pair for FP64 checks). *)
let mask c = if Site.is_div0 c then A.m_div0 else A.m_exce

let view (f : Absint.fact) c =
  if Site.fmt c = Isa.FP64 then f.Absint.dest64 else f.Absint.dest32

let analyze prog =
  let analysis = Absint.analyze prog in
  let verdicts =
    Array.map
      (fun (i : Instr.t) ->
        match Site.plan i with
        | None -> May_except
        | Some c ->
          let f = Absint.fact analysis i.Instr.pc in
          (* the 32-bit domain does not track packed-FP16 halves *)
          let may_fire =
            Site.fmt c = Isa.FP16 || A.may (mask c) (view f c).A.cls
          in
          if f.Absint.reachable && may_fire then May_except
          else Provably_clean)
      prog.Program.instrs
  in
  { analysis; verdicts }

let verdict t pc = t.verdicts.(pc)
let is_clean t pc =
  pc >= 0 && pc < Array.length t.verdicts && t.verdicts.(pc) = Provably_clean

let plan t pc =
  Site.plan (Program.instr t.analysis.Absint.dec.Decode.prog pc)

let count t p =
  let n = ref 0 in
  Array.iteri
    (fun pc _ -> if plan t pc <> None && p pc then incr n)
    t.verdicts;
  !n

let n_sites t = count t (fun _ -> true)
let n_clean t = count t (fun pc -> t.verdicts.(pc) = Provably_clean)

let firing_mask t pc = Option.map mask (plan t pc)

let dest_val t pc =
  let f = Absint.fact t.analysis pc in
  match plan t pc with Some c -> view f c | None -> f.Absint.dest32
