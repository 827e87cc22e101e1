exception Parse_error of { line : int; message : string }

let fail ~line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

(* Numeric conversions on untrusted text must reject through
   [Parse_error], never leak [Failure _]. *)
let int_of_string_e ~line what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail ~line "malformed %s %S" what s

let int32_of_string_e ~line what s =
  match Int32.of_string_opt s with
  | Some n -> n
  | None -> fail ~line "malformed %s %S" what s

let float_of_string_e ~line what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail ~line "malformed %s %S" what s

(* --- Tokens --------------------------------------------------------------- *)

let strip s = String.trim s

let split_char c s =
  String.split_on_char c s |> List.map strip |> List.filter (( <> ) "")

(* Drop a leading "/*....*/" address comment and a trailing ";". *)
let clean_line s =
  let s = strip s in
  let s =
    if String.length s >= 2 && String.sub s 0 2 = "/*" then
      match String.index_opt s '/' with
      | Some _ -> (
        match String.index_from_opt s 2 '/' with
        | Some j when j > 2 && s.[j - 1] = '*' ->
          strip (String.sub s (j + 1) (String.length s - j - 1))
        | _ -> s)
      | None -> s
    else s
  in
  let s =
    if String.length s > 0 && s.[String.length s - 1] = ';' then
      strip (String.sub s 0 (String.length s - 1))
    else s
  in
  s

(* --- Operands --------------------------------------------------------------- *)

let parse_fmt ~line = function
  | "F16" -> Isa.FP16
  | "F32" -> Isa.FP32
  | "F64" -> Isa.FP64
  | f -> fail ~line "unknown FP format %S" f

let parse_cmp ~line s =
  let base, unord =
    if String.length s > 2 && s.[String.length s - 1] = 'U' then
      (String.sub s 0 (String.length s - 1), true)
    else (s, false)
  in
  let op =
    match base with
    | "LT" -> Isa.Lt
    | "LE" -> Isa.Le
    | "GT" -> Isa.Gt
    | "GE" -> Isa.Ge
    | "EQ" -> Isa.Eq
    | "NE" -> Isa.Ne
    | _ -> fail ~line "unknown comparison %S" s
  in
  if unord then Isa.cmp_u op else Isa.cmp op

let parse_operand ~line ~is_branch s =
  (* strip modifiers outermost-first, mirroring [Operand.to_string]'s
     rendering order: !-|R3| is pred_not(neg(abs R3)) *)
  let s = strip s in
  let pred_not = String.length s > 0 && s.[0] = '!' in
  let s =
    if pred_not then strip (String.sub s 1 (String.length s - 1)) else s
  in
  let neg = String.length s > 0 && s.[0] = '-' in
  let s = if neg then strip (String.sub s 1 (String.length s - 1)) else s in
  let abs =
    String.length s >= 2 && s.[0] = '|' && s.[String.length s - 1] = '|'
  in
  let s = if abs then strip (String.sub s 1 (String.length s - 2)) else s in
  let base =
    if s = "RZ" then Operand.Reg Operand.rz
    else if s = "PT" then Operand.Pred Operand.pt
    else if String.length s >= 2 && s.[0] = 'R'
            && String.for_all (fun c -> c >= '0' && c <= '9')
                 (String.sub s 1 (String.length s - 1))
    then
      Operand.Reg
        (int_of_string_e ~line "register" (String.sub s 1 (String.length s - 1)))
    else if String.length s >= 2 && s.[0] = 'P'
            && String.for_all (fun c -> c >= '0' && c <= '9')
                 (String.sub s 1 (String.length s - 1))
    then
      Operand.Pred
        (int_of_string_e ~line "predicate" (String.sub s 1 (String.length s - 1)))
    else if String.length s > 2 && String.sub s 0 2 = "c[" then begin
      (* c[0xBANK][0xOFFSET]: pull the two bracketed fields *)
      let fields = ref [] in
      let i = ref 0 in
      (try
         while !i < String.length s do
           if s.[!i] = '[' then begin
             let j = String.index_from s !i ']' in
             fields := String.sub s (!i + 1) (j - !i - 1) :: !fields;
             i := j
           end;
           incr i
         done
       with Not_found -> fail ~line "malformed constant-bank operand %S" s);
      match List.rev !fields with
      | [ bank; offset ] ->
        Operand.Cbank
          { bank = int_of_string_e ~line "constant bank" bank;
            offset = int_of_string_e ~line "constant-bank offset" offset }
      | _ -> fail ~line "malformed constant-bank operand %S" s
    end
    else if String.length s > 2 && String.sub s 0 2 = "0x" then
      if is_branch then
        Operand.Label (int_of_string_e ~line "branch target" s / 16)
      else
        Operand.Imm_i
          (Int32.of_int (int_of_string_e ~line "immediate" s land 0xffffffff))
    else if s = "+INF" || s = "INF" || s = "-INF" || s = "+QNAN"
            || s = "-QNAN" || s = "QNAN"
    then Operand.Generic s
    else
      match float_of_string_opt s with
      | Some v -> Operand.Imm_f64 v
      | None -> fail ~line "unknown operand %S" s
  in
  { Operand.base; neg; abs; pred_not }

(* --- Mnemonics --------------------------------------------------------------- *)

let parse_opcode ~line mnemonic =
  match String.split_on_char '.' mnemonic with
  | [ "FADD" ] -> Isa.FADD
  | [ "FADD32I" ] -> Isa.FADD32I
  | [ "FMUL" ] -> Isa.FMUL
  | [ "FMUL32I" ] -> Isa.FMUL32I
  | [ "FFMA" ] -> Isa.FFMA
  | [ "FFMA32I" ] -> Isa.FFMA32I
  | [ "MUFU"; m ] ->
    Isa.MUFU
      (match m with
      | "RCP" -> Isa.Rcp
      | "RSQ" -> Isa.Rsq
      | "SQRT" -> Isa.Sqrt
      | "EX2" -> Isa.Ex2
      | "LG2" -> Isa.Lg2
      | "SIN" -> Isa.Sin
      | "COS" -> Isa.Cos
      | "RCP64H" -> Isa.Rcp64h
      | "RSQ64H" -> Isa.Rsq64h
      | _ -> fail ~line "unknown MUFU op %S" m)
  | [ "DADD" ] -> Isa.DADD
  | [ "DMUL" ] -> Isa.DMUL
  | [ "DFMA" ] -> Isa.DFMA
  | [ "HADD2" ] -> Isa.HADD2
  | [ "HMUL2" ] -> Isa.HMUL2
  | [ "HFMA2" ] -> Isa.HFMA2
  | [ "FSEL" ] -> Isa.FSEL
  | [ "FSET"; "BF"; c ] -> Isa.FSET (parse_cmp ~line c)
  | [ "FSETP"; c; "AND" ] | [ "FSETP"; c ] -> Isa.FSETP (parse_cmp ~line c)
  | [ "DSETP"; c; "AND" ] | [ "DSETP"; c ] -> Isa.DSETP (parse_cmp ~line c)
  | [ "ISETP"; c; "AND" ] | [ "ISETP"; c ] -> Isa.ISETP (parse_cmp ~line c)
  | [ "PSETP"; "AND" ] -> Isa.PSETP Isa.Pand
  | [ "PSETP"; "OR" ] -> Isa.PSETP Isa.Por
  | [ "PSETP"; "XOR" ] -> Isa.PSETP Isa.Pxor
  | [ "FMNMX" ] -> Isa.FMNMX
  | [ "FCHK" ] -> Isa.FCHK
  | [ "SEL" ] -> Isa.SEL
  | [ "F2F"; d; s ] -> Isa.F2F (parse_fmt ~line d, parse_fmt ~line s)
  | [ "I2F"; f ] -> Isa.I2F (parse_fmt ~line f)
  | [ "F2I"; f ] -> Isa.F2I (parse_fmt ~line f)
  | [ "MOV" ] -> Isa.MOV
  | [ "MOV32I" ] -> Isa.MOV32I
  | [ "IADD3" ] | [ "IADD" ] -> Isa.IADD
  | [ "IMAD" ] -> Isa.IMAD
  | [ "SHF"; "L" ] -> Isa.SHL
  | [ "SHF"; "R" ] -> Isa.SHR
  | [ "LOP3"; "AND" ] -> Isa.LOP_AND
  | [ "LOP3"; "OR" ] -> Isa.LOP_OR
  | [ "LOP3"; "XOR" ] -> Isa.LOP_XOR
  | "LDS" :: rest ->
    Isa.LDS (if List.exists (( = ) "64") rest then Isa.W64 else Isa.W32)
  | "STS" :: rest ->
    Isa.STS (if List.exists (( = ) "64") rest then Isa.W64 else Isa.W32)
  | [ "RED"; "ADD"; "F32" ] | [ "ATOM"; "ADD"; "F32" ] -> Isa.ATOM_ADD Isa.Af32
  | [ "RED"; "ADD"; "S32" ] | [ "ATOM"; "ADD"; "S32" ] -> Isa.ATOM_ADD Isa.Ai32
  | [ "BAR"; "SYNC" ] | [ "BAR" ] -> Isa.BAR
  | "LDG" :: rest ->
    Isa.LDG (if List.exists (( = ) "64") rest then Isa.W64 else Isa.W32)
  | "STG" :: rest ->
    Isa.STG (if List.exists (( = ) "64") rest then Isa.W64 else Isa.W32)
  | "S2R" :: rest ->
    let sreg = String.concat "." rest in
    Isa.S2R
      (match sreg with
      | "SR_TID.X" -> Isa.Tid_x
      | "SR_NTID.X" -> Isa.Ntid_x
      | "SR_CTAID.X" -> Isa.Ctaid_x
      | "SR_NCTAID.X" -> Isa.Nctaid_x
      | "SR_LANEID" -> Isa.Lane_id
      | _ -> fail ~line "unknown special register %S" sreg)
  | [ "BRA" ] -> Isa.BRA
  | [ "EXIT" ] -> Isa.EXIT
  | [ "NOP" ] -> Isa.NOP
  | _ -> fail ~line "unknown mnemonic %S" mnemonic

let instruction_at ~line raw =
  let s = clean_line raw in
  if s = "" then fail ~line "empty instruction";
  (* guard *)
  let guard, s =
    if s.[0] = '@' then begin
      match String.index_opt s ' ' with
      | Some sp ->
        let g = String.sub s 1 (sp - 1) in
        let op = parse_operand ~line ~is_branch:false g in
        (Some op, strip (String.sub s sp (String.length s - sp)))
      | None -> fail ~line "guard without instruction"
    end
    else (None, s)
  in
  let mnemonic, rest =
    match String.index_opt s ' ' with
    | Some sp ->
      ( String.sub s 0 sp,
        strip (String.sub s sp (String.length s - sp)) )
    | None -> (s, "")
  in
  let op = parse_opcode ~line mnemonic in
  let is_branch = op = Isa.BRA in
  let operands =
    if rest = "" then []
    else List.map (parse_operand ~line ~is_branch) (split_char ',' rest)
  in
  Instr.make ?guard op operands

let instruction raw = instruction_at ~line:1 raw

let is_directive s = String.length s > 0 && s.[0] = '.'

let program ?name text =
  let lines = String.split_on_char '\n' text in
  let kernel_name = ref (Option.value name ~default:"parsed_kernel") in
  let instrs = ref [] in
  List.iteri
    (fun idx raw ->
      let line = idx + 1 in
      let s = strip raw in
      let s =
        match String.index_opt s '/' with
        | Some i
          when i + 1 < String.length s && s.[i + 1] = '/' ->
          strip (String.sub s 0 i)
        | _ -> s
      in
      if s = "" then ()
      else if is_directive s then begin
        match String.index_opt s ' ' with
        | Some sp when String.sub s 0 sp = ".kernel" ->
          (* kernel names may contain spaces (C++ decorations) *)
          kernel_name := strip (String.sub s sp (String.length s - sp))
        | _ -> () (* other directives handled by [file] *)
      end
      else instrs := (line, instruction_at ~line s) :: !instrs)
    lines;
  (* The bound Program.make checks, after it appends a missing EXIT. *)
  let n =
    List.length !instrs
    + match !instrs with (_, { Instr.op = Isa.EXIT; _ }) :: _ -> 0 | _ -> 1
  in
  let instrs = List.rev !instrs in
  List.iter
    (fun (line, (i : Instr.t)) ->
      Array.iter
        (function
          | { Operand.base = Operand.Label pc; _ } as o
            when pc < 0 || pc >= n ->
            fail ~line
              "branch target %s is outside the kernel (%d instructions)"
              (Operand.to_string o) n
          | _ -> ())
        i.Instr.operands)
    instrs;
  Program.make ~name:!kernel_name (List.map snd instrs)

type param_spec = Ptr_bytes of int | F32 of float | F64 of float | I32 of int32

type file = {
  prog : Program.t;
  grid : int;
  block : int;
  params : param_spec list;
  budget : int option;
}

let file text =
  let grid = ref 1 and block = ref 32 and params = ref [] in
  let budget = ref None in
  String.split_on_char '\n' text
  |> List.iteri (fun idx raw ->
         let line = idx + 1 in
         let s = strip raw in
         if is_directive s then
           match split_char ' ' s with
           | ".launch" :: g :: b :: _ ->
             grid := int_of_string_e ~line "grid size" g;
             block := int_of_string_e ~line "block size" b
           | [ ".param"; "ptr"; n ] ->
             params := Ptr_bytes (int_of_string_e ~line "ptr size" n) :: !params
           | [ ".param"; "f32"; x ] ->
             params := F32 (float_of_string_e ~line "f32 param" x) :: !params
           | [ ".param"; "f64"; x ] ->
             params := F64 (float_of_string_e ~line "f64 param" x) :: !params
           | [ ".param"; "i32"; x ] ->
             params := I32 (int32_of_string_e ~line "i32 param" x) :: !params
           | [ ".budget"; n ] ->
             let n = int_of_string_e ~line "budget" n in
             if n < 1 then fail ~line "budget %d is not positive" n;
             budget := Some n
           | ".kernel" :: _ -> ()
           | _ -> fail ~line "unknown directive %S" s);
  { prog = program text; grid = !grid; block = !block;
    params = List.rev !params; budget = !budget }
