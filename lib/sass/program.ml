type t = {
  name : string;
  instrs : Instr.t array;
  n_regs : int;
  mangled : string;
  ftz : bool;
}

(* The register-file sizing rule, not the register footprint
   (Decode.reads/writes): an exact footprint would shrink [n_regs] on
   some kernels, moving [nslots] and with it Reg_flip coordinates and
   decode range traps. *)
let writes_fp64_pair = function
  | Isa.DADD | Isa.DMUL | Isa.DFMA -> true
  | Isa.F2F (Isa.FP64, _) | Isa.I2F Isa.FP64 -> true
  | _ -> false

let regs_used (i : Instr.t) =
  let of_operand (o : Operand.t) =
    match Operand.reg_num o with
    | Some n when n <> Operand.rz -> [ n ]
    | Some _ | None -> []
  in
  let base = List.concat_map of_operand (Array.to_list i.operands) in
  (* FP64 pairs occupy one extra register. *)
  if writes_fp64_pair i.op || Isa.is_fp64_compute i.op then
    List.concat_map (fun r -> [ r; r + 1 ]) base
  else base

let make ?mangled ?(ftz = false) ~name instrs =
  let instrs =
    match List.rev instrs with
    | ({ Instr.op = Isa.EXIT; _ } : Instr.t) :: _ -> instrs
    | _ -> instrs @ [ Instr.make Isa.EXIT [] ]
  in
  let arr =
    Array.of_list (List.mapi (fun pc (i : Instr.t) -> { i with pc }) instrs)
  in
  let n = Array.length arr in
  Array.iter
    (fun (i : Instr.t) ->
      Array.iter
        (fun (o : Operand.t) ->
          match o.base with
          | Operand.Label pc when pc < 0 || pc >= n ->
            invalid_arg
              (Printf.sprintf "Program.make: %s: branch target %d out of range"
                 name pc)
          | _ -> ())
        i.operands)
    arr;
  let n_regs =
    Array.fold_left
      (fun acc i -> List.fold_left (fun a r -> max a (r + 1)) acc (regs_used i))
      0 arr
  in
  { name; instrs = arr; n_regs; mangled = Option.value mangled ~default:name; ftz }

let length t = Array.length t.instrs
let instr t pc = t.instrs.(pc)

let fp_instr_count t =
  Array.fold_left
    (fun acc (i : Instr.t) ->
      if Isa.is_fp_instrumentable i.op then acc + 1 else acc)
    0 t.instrs

let disassemble t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf ".kernel %s\n" t.name);
  Array.iter
    (fun (i : Instr.t) ->
      Buffer.add_string buf
        (Printf.sprintf "  /*%04x*/ %s\n" (i.pc * 16) (Instr.sass_string i)))
    t.instrs;
  Buffer.contents buf
