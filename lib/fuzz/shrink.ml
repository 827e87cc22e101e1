module Isa = Fpx_sass.Isa
module Op = Fpx_sass.Operand
module Instr = Fpx_sass.Instr
module Program = Fpx_sass.Program
module Parse = Fpx_sass.Parse
module Decode = Fpx_sass.Decode

(* Rebuild the case around an edited instruction list, keeping name and
   metadata. None when the edit left a branch label out of range. *)
let rebuild (c : Repro.t) instrs =
  match Program.make ~name:c.Repro.prog.Program.name instrs with
  | prog -> Some { c with Repro.prog }
  | exception Invalid_argument _ -> None

let retarget_after_delete ~deleted (i : Instr.t) =
  let fix (o : Op.t) =
    match o.Op.base with
    | Op.Label t when t > deleted -> { o with Op.base = Op.Label (t - 1) }
    | _ -> o
  in
  { i with Instr.operands = Array.map fix i.Instr.operands }

let deletions (c : Repro.t) =
  let instrs = Array.to_list c.Repro.prog.Program.instrs in
  let n = List.length instrs in
  (* never delete the trailing EXIT *)
  List.init (n - 1) (fun k ->
      let rest =
        List.filteri (fun j _ -> j <> k) instrs
        |> List.map (retarget_after_delete ~deleted:k)
      in
      rebuild c rest)
  |> List.filter_map Fun.id

(* One-step operand/guard edits on an instruction whose micro-op is
   [u]; each strictly drops {!Repro.complexity} while keeping the
   instruction count. A register the executor reads as an FP64 pair
   cannot become RZ (its pair partner R256 does not exist), so it
   simplifies to an FP64 immediate instead. *)
let instr_edits (i : Instr.t) u =
  let pairs =
    List.filter_map
      (fun (r, w) -> if w = Isa.W64 then Some r else None)
      (Decode.reads u)
  in
  let edits = ref [] in
  let push i' = edits := i' :: !edits in
  (match i.Instr.guard with
  | Some _ -> push { i with Instr.guard = None }
  | None -> ());
  Array.iteri
    (fun j (o : Op.t) ->
      let set o' =
        let ops = Array.copy i.Instr.operands in
        ops.(j) <- o';
        push { i with Instr.operands = ops }
      in
      if o.Op.neg then set { o with Op.neg = false };
      if o.Op.abs then set { o with Op.abs = false };
      if o.Op.pred_not then set { o with Op.pred_not = false };
      if j > 0 then begin
        (* source operands only: the plain operand, stripped of
           modifiers, replaced by its cheapest same-context form *)
        let bare b = { Op.base = b; neg = false; abs = false; pred_not = false } in
        match o.Op.base with
        | Op.Reg r when r <> Op.rz ->
          if List.mem r pairs then set (bare (Op.Imm_f64 0.0))
          else set (bare (Op.Reg Op.rz))
        | Op.Pred p when p <> Op.pt -> set (bare (Op.Pred Op.pt))
        | Op.Imm_f64 v when v <> 0.0 -> set (bare (Op.Imm_f64 0.0))
        | Op.Imm_f32 b when b <> 0l -> set (bare (Op.Imm_f32 0l))
        | Op.Imm_i v when v <> 0l -> set (bare (Op.Imm_i 0l))
        | Op.Cbank _ ->
          (* context unknown at this level: offer both the integer and
             the FP zero; the oracle keeps whichever still works *)
          set (bare (Op.Imm_i 0l));
          set (bare (Op.Imm_f64 0.0))
        | _ -> ()
      end)
    i.Instr.operands;
  List.rev !edits

let simplifications (c : Repro.t) =
  let instrs = Array.to_list c.Repro.prog.Program.instrs in
  let entries = (Decode.program c.Repro.prog).Decode.entries in
  List.concat
    (List.mapi
       (fun k i ->
         List.filter_map
           (fun i' ->
             rebuild c
               (List.mapi (fun j x -> if j = k then i' else x) instrs))
           (instr_edits i entries.(k).Decode.uop))
       instrs)

let param_edits (c : Repro.t) =
  let zero = function
    | Parse.F32 v when v <> 0.0 -> Some (Parse.F32 0.0)
    | Parse.F64 v when v <> 0.0 -> Some (Parse.F64 0.0)
    | Parse.I32 v when v <> 0l -> Some (Parse.I32 0l)
    | _ -> None
  in
  let per_param =
    List.concat
      (List.mapi
         (fun k p ->
           match zero p with
           | None -> []
           | Some p' ->
             [ { c with
                 Repro.params =
                   List.mapi (fun j q -> if j = k then p' else q) c.Repro.params
               } ])
         c.Repro.params)
  in
  let launch =
    (if c.Repro.grid > 1 then [ { c with Repro.grid = c.Repro.grid - 1 } ]
     else [])
    @
    if c.Repro.block > 32 then [ { c with Repro.block = c.Repro.block - 32 } ]
    else []
  in
  per_param @ launch

let candidates c = deletions c @ simplifications c @ param_edits c

let shrink ~keep c =
  let rec go c =
    match List.find_opt keep (candidates c) with
    | Some c' -> go c'
    | None -> c
  in
  go c

let minimize ?fault ?defect cl c =
  shrink
    ~keep:(fun c' -> Oracle.primary (Oracle.check ?fault ?defect c') = Some cl)
    c
