type loc = { file : string; line : int }

type t = {
  pc : int;
  op : Isa.opcode;
  guard : Operand.t option;
  operands : Operand.t array;
  loc : loc option;
}

let make ?guard ?loc op operands =
  { pc = -1; op; guard; operands = Array.of_list operands; loc }

let num_operands t = Array.length t.operands

let get_operand t i = t.operands.(i)

let dest_reg_num t =
  if num_operands t > 0 then Operand.reg_num t.operands.(0) else None

let sass_string t =
  let ops =
    Array.to_list t.operands |> List.map Operand.to_string
    |> String.concat ", "
  in
  let guard =
    match t.guard with
    | None -> ""
    | Some g -> "@" ^ Operand.to_string g ^ " "
  in
  let mnemonic = Isa.opcode_to_string t.op in
  if ops = "" then Printf.sprintf "%s%s ;" guard mnemonic
  else Printf.sprintf "%s%s %s ;" guard mnemonic ops

let loc_string t =
  match t.loc with
  | None -> "/unknown_path:0"
  | Some { file; line } -> Printf.sprintf "%s:%d" file line
