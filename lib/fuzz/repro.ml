module Isa = Fpx_sass.Isa
module Instr = Fpx_sass.Instr
module Operand = Fpx_sass.Operand
module Program = Fpx_sass.Program
module Decode = Fpx_sass.Decode
module Parse = Fpx_sass.Parse
module W = Fpx_workloads.Workload
module Gpu = Fpx_gpu
module Fault = Fpx_fault.Fault

type origin = Sass_gen | Klang_gen of string

type t = {
  id : int;
  seed : int;
  origin : origin;
  prog : Program.t;
  grid : int;
  block : int;
  params : Parse.param_spec list;
  budget : int option;
}

let origin_to_string = function
  | Sass_gen -> "sass"
  | Klang_gen e -> Printf.sprintf "klang %s" e

let instr_count c = Program.length c.prog

(* The operands that weigh nothing besides labels: RZ, PT and the zero
   immediates ([=] also takes -0.0). *)
let simplest =
  Operand.[ Reg rz; Pred pt; Imm_f32 0l; Imm_f64 0.0; Imm_i 0l ]

(* Secondary lexicographic measure for the shrinker: anything the
   operand/constant/launch simplification passes touch must strictly
   decrease it while keeping the instruction count. *)
let operand_weight (o : Operand.t) =
  let m =
    (if o.neg then 1 else 0) + (if o.abs then 1 else 0)
    + if o.pred_not then 1 else 0
  in
  m
  +
  match o.base with
  | Operand.Label _ -> 0
  | b -> if List.mem b simplest then 0 else 1

let param_weight = function
  | Parse.Ptr_bytes n -> n / 64
  | Parse.F32 v -> if v = 0.0 then 0 else 1
  | Parse.F64 v -> if v = 0.0 then 0 else 1
  | Parse.I32 v -> if v = 0l then 0 else 1

let complexity c =
  let instrs = ref 0 in
  Array.iter
    (fun (i : Instr.t) ->
      instrs :=
        !instrs
        + (match i.Instr.guard with Some _ -> 1 | None -> 0)
        + Array.fold_left
            (fun acc o -> acc + operand_weight o)
            0 i.Instr.operands)
    c.prog.Program.instrs;
  !instrs
  + List.fold_left (fun acc p -> acc + param_weight p) 0 c.params
  + c.grid + (c.block / 32)

(* --- rendering: the standalone .sass artifact ------------------------- *)

let float_param v =
  if Float.is_integer v && Float.abs v < 1e9 then Printf.sprintf "%.0f" v
  else
    let g9 = Printf.sprintf "%.9g" v in
    if float_of_string g9 = v then g9 else Printf.sprintf "%.17g" v

let param_line = function
  | Parse.Ptr_bytes n -> Printf.sprintf ".param ptr %d" n
  | Parse.F32 v -> Printf.sprintf ".param f32 %s" (float_param v)
  | Parse.F64 v -> Printf.sprintf ".param f64 %s" (float_param v)
  | Parse.I32 v -> Printf.sprintf ".param i32 %ld" v

let render c =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "// fpx_fuzz case id=%d seed=%d origin=%s\n" c.id c.seed
       (origin_to_string c.origin));
  Buffer.add_string buf (Printf.sprintf ".launch %d %d\n" c.grid c.block);
  Option.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf ".budget %d\n" n))
    c.budget;
  List.iter
    (fun p -> Buffer.add_string buf (param_line p ^ "\n"))
    c.params;
  Buffer.add_string buf (Program.disassemble c.prog);
  Buffer.contents buf

let of_file ?(id = 0) ?(seed = 0) (f : Parse.file) =
  { id; seed; origin = Sass_gen; prog = f.Parse.prog; grid = f.Parse.grid;
    block = f.Parse.block; params = f.Parse.params; budget = f.Parse.budget }

let fault ?fault c =
  match c.budget with
  | None -> fault
  | Some _ as budget ->
    let none = Fault.spec ~sites:[] ~rate:0.0 ~seed:0 () in
    Some { (Option.value fault ~default:none) with Fault.budget }

(* --- the synthetic catalog entry -------------------------------------- *)

let workload c =
  W.make ~name:c.prog.Program.name ~suite:W.Cuda_samples
    ~description:"generated fuzz case" ~kernels:[]
    (fun ctx ->
      let params =
        List.map
          (function
            | Parse.Ptr_bytes n -> Gpu.Param.Ptr (W.zeros ctx ~bytes:n)
            | Parse.F32 v -> Gpu.Param.F32 (Fpx_num.Fp32.of_float v)
            | Parse.F64 v -> Gpu.Param.F64 v
            | Parse.I32 v -> Gpu.Param.I32 v)
          c.params
      in
      W.launch ctx ~grid:c.grid ~block:c.block c.prog params)

(* --- escape-oracle applicability -------------------------------------- *)

let escape_oracle_applies c =
  let instrs = c.prog.Program.instrs in
  let no_generic =
    Array.for_all
      (fun (i : Instr.t) ->
        Array.for_all
          (fun (o : Operand.t) ->
            match o.Operand.base with Operand.Generic _ -> false | _ -> true)
          i.Instr.operands
        && match i.Instr.guard with
           | Some { Operand.base = Operand.Generic _; _ } -> false
           | _ -> true)
      instrs
  in
  (* every register a store can ship to global memory must only ever be
     written by instrumented FP compute/control-flow opcodes — otherwise
     loads, raw selects, conversions or integer arithmetic could place a
     NaN/INF bit pattern in memory with no detector record, and the
     oracle would cry wolf *)
  let entries = (Decode.program c.prog).Decode.entries in
  let stored_words =
    Array.fold_left
      (fun acc (e : Decode.entry) ->
        match e.Decode.uop with
        | Decode.(U_stg32 _ | U_stg64 _ | U_sts32 _ | U_sts64 _) as u ->
          Decode.(words (reads u)) @ acc
        | _ -> acc)
      [] entries
  in
  let word_clean r =
    Array.for_all2
      (fun (i : Instr.t) (e : Decode.entry) ->
        (not (List.mem r Decode.(words (writes e.uop))))
        || Isa.is_fp_instrumentable i.Instr.op)
      instrs entries
  in
  no_generic && List.for_all word_clean stored_words
