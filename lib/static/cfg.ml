open Fpx_sass

type block = {
  id : int;
  first : int;
  last : int;
  succs : int list;
}

type t = {
  dec : Decode.t;
  blocks : block array;
  block_of_pc : int array;
}

(* Successors of the block ending at [last]; only a branch's guard
   matters. *)
let succs_from dec block_of_pc last ~may_true ~may_false =
  let n = Array.length dec.Decode.entries in
  let next = if last + 1 < n then [ block_of_pc.(last + 1) ] else [] in
  let fall = if may_false then next else [] in
  match dec.Decode.entries.(last).Decode.uop with
  | Decode.U_exit -> []
  | Decode.U_bra t ->
    let taken = if may_true then [ block_of_pc.(t) ] else [] in
    taken @ List.filter (fun s -> not (List.mem s taken)) fall
  (* a poisoned branch traps when taken: no taken edge *)
  | Decode.U_bra_poison _ -> fall
  | _ -> next

let succs_when t blk ~may_true ~may_false =
  succs_from t.dec t.block_of_pc blk.last ~may_true ~may_false

let build (dec : Decode.t) =
  let entries = dec.Decode.entries in
  let n = Array.length entries in
  if n = 0 then invalid_arg "Cfg.build: empty program";
  let leader = Array.make n false in
  leader.(0) <- true;
  Array.iteri
    (fun pc (e : Decode.entry) ->
      match e.Decode.uop with
      | Decode.U_bra t ->
        leader.(t) <- true;
        if pc + 1 < n then leader.(pc + 1) <- true
      | Decode.(U_bra_poison _ | U_exit) ->
        if pc + 1 < n then leader.(pc + 1) <- true
      | _ -> ())
    entries;
  let block_of_pc = Array.make n 0 in
  let firsts = ref [] in
  for pc = n - 1 downto 0 do
    if leader.(pc) then firsts := pc :: !firsts
  done;
  let firsts = Array.of_list !firsts in
  let nb = Array.length firsts in
  let last_of b = if b + 1 < nb then firsts.(b + 1) - 1 else n - 1 in
  Array.iteri
    (fun b first ->
      for pc = first to last_of b do
        block_of_pc.(pc) <- b
      done)
    firsts;
  let succs_of b =
    (* PT guards are compile-time constants; anything else can go either
       way across the warp *)
    let may_true, may_false =
      match entries.(last_of b).Decode.guard with
      | Decode.G_none -> (true, false)
      | Decode.G_p p when p land 7 = Operand.pt -> (p land 8 = 0, p land 8 <> 0)
      | Decode.G_p _ | Decode.G_poison _ -> (true, true)
    in
    succs_from dec block_of_pc (last_of b) ~may_true ~may_false
  in
  let succs = Array.init nb succs_of in
  let blocks =
    Array.init nb (fun b ->
        {
          id = b;
          first = firsts.(b);
          last = last_of b;
          succs = succs.(b);
        })
  in
  { dec; blocks; block_of_pc }

let entry t = t.blocks.(t.block_of_pc.(0))

let reverse_postorder t =
  let nb = Array.length t.blocks in
  let seen = Array.make nb false in
  let post = ref [] in
  let rec dfs b =
    if not seen.(b) then begin
      seen.(b) <- true;
      List.iter dfs t.blocks.(b).succs;
      post := b :: !post
    end
  in
  dfs (entry t).id;
  let reachable = !post in
  let unreachable = ref [] in
  for b = nb - 1 downto 0 do
    if not seen.(b) then unreachable := b :: !unreachable
  done;
  reachable @ !unreachable

let dot_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '<' -> Buffer.add_string b "\\<"
      | '>' -> Buffer.add_string b "\\>"
      | '{' -> Buffer.add_string b "\\{"
      | '}' -> Buffer.add_string b "\\}"
      | '|' -> Buffer.add_string b "\\|"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_dot t =
  let b = Buffer.create 1024 in
  let prog = t.dec.Decode.prog in
  Printf.bprintf b "digraph \"%s\" {\n" (dot_escape prog.Program.name);
  Buffer.add_string b "  node [shape=record, fontname=monospace];\n";
  Array.iter
    (fun blk ->
      let lines = ref [] in
      for pc = blk.last downto blk.first do
        let i = prog.Program.instrs.(pc) in
        lines :=
          Printf.sprintf "/*%04x*/ %s" (pc * 16)
            (dot_escape (Instr.sass_string i))
          :: !lines
      done;
      Printf.bprintf b "  b%d [label=\"{B%d|%s}\"];\n" blk.id blk.id
        (String.concat "\\l" !lines ^ "\\l"))
    t.blocks;
  Array.iter
    (fun blk ->
      let last = t.dec.Decode.entries.(blk.last) in
      List.iter
        (fun s ->
          let label =
            match (last.Decode.uop, last.Decode.guard) with
            | (Decode.U_bra _ | Decode.U_bra_poison _), Decode.G_none -> ""
            | Decode.U_bra t', _ when s = t.block_of_pc.(t') ->
              " [label=\"taken\"]"
            | (Decode.U_bra _ | Decode.U_bra_poison _), _ ->
              " [label=\"fall\"]"
            | _ -> ""
          in
          Printf.bprintf b "  b%d -> b%d%s;\n" blk.id s label)
        blk.succs)
    t.blocks;
  Buffer.add_string b "}\n";
  Buffer.contents b
