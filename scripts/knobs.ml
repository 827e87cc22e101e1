(* List the settable state nothing sets: the optional arguments and record
   fields declared in lib/*/*.mli that no code outside test/ uses.

   It reads the typed trees dune leaves in _build/default (run
   `dune build @check` first) and prints one "path item class" line each:

     lib/gpu/device.mli create?mem_bytes opt
       no application outside test/ passes the optional argument;
     lib/static/cfg.mli block.preds field
       nothing outside test/ reads the record field (a field access or a
       record pattern; a [{ r with ... }] copy is not a read).

   Calls are matched through the value each identifier resolves to, so
   module aliases, opens and unqualified calls inside a module all count.
   An omitted optional argument, which the type checker fills with a ghost
   [None], is not a pass. A caller that only forwards its own optional
   parameter ([?mode], or [~cost] of an [?(cost = ...)]) passes it only if
   someone passes the caller's. A partial application that leaves an
   optional argument to a local name (let mk = W.make ~suite) hides the
   later passes: allowlist such an argument with that reason.

     dune exec scripts/knobs.exe               print the list
     dune exec scripts/knobs.exe -- --check    fail unless the list equals
                                               the opt/field lines of
                                               scripts/exports.allow *)

open Typedtree

let root = "_build/default"

let rec cmt_files dir acc =
  Array.fold_left
    (fun acc name ->
      let p = Filename.concat dir name in
      if Sys.is_directory p then cmt_files p acc
      else if Filename.check_suffix p ".cmt" || Filename.check_suffix p ".cmti"
      then p :: acc
      else acc)
    acc (Sys.readdir dir)

let stem file = Filename.remove_extension file
let is_lib file = String.starts_with ~prefix:"lib/" file
let is_test file = String.starts_with ~prefix:"test/" file

(* A value is keyed by its unit's source stem and its path in the unit
   ("lib/gpu/exec" and "run"), so an .mli val and its .ml binding, and an
   outside use (whose location is the .mli's) all meet on one key. *)
let by_loc : (string * int, string) Hashtbl.t = Hashtbl.create 4096

let pos_key (loc : Location.t) =
  (loc.loc_start.pos_fname, loc.loc_start.pos_cnum)

let value_key file path = stem file ^ ":" ^ path
let join prefix name = if prefix = "" then name else prefix ^ "." ^ name

(* Declarations: every optional argument and record field of a lib .mli. *)
let opts = ref [] (* (mli, shown, key, label) *)
let fields = ref [] (* (mli, shown, key) *)

let rec optional_labels (ct : core_type) =
  match ct.ctyp_desc with
  | Ttyp_arrow (Optional l, _, rest) -> l :: optional_labels rest
  | Ttyp_arrow (_, _, rest) | Ttyp_poly (_, rest) -> optional_labels rest
  | _ -> []

let rec scan_sig file prefix (sg : signature) =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let path = join prefix vd.val_name.txt in
          let key = value_key file path in
          Hashtbl.replace by_loc (pos_key vd.val_val.val_loc) key;
          List.iter
            (fun l -> opts := (file, path ^ "?" ^ l, key, l) :: !opts)
            (optional_labels vd.val_desc)
      | Tsig_type (_, decls) ->
          List.iter
            (fun d ->
              match d.typ_kind with
              | Ttype_record lds ->
                  List.iter
                    (fun ld ->
                      let ty = d.typ_name.txt and f = ld.ld_name.txt in
                      fields :=
                        (file, join prefix ty ^ "." ^ f, stem file ^ ":" ^ ty ^ "." ^ f)
                        :: !fields)
                    lds
              | _ -> ())
            decls
      | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } -> (
          match md_type.mty_desc with
          | Tmty_signature sg -> scan_sig file (join prefix m) sg
          | _ -> ())
      | _ -> ())
    sg.sig_items

(* Definitions: the top-level bindings of every .ml (and of the modules
   it defines), by binding location. *)
let rec index_str file prefix (st : structure) =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (_, name) ->
                  Hashtbl.replace by_loc (pos_key vb.vb_pat.pat_loc)
                    (value_key file (join prefix name.txt))
              | _ -> ())
            vbs
      | Tstr_module { mb_name = { txt = Some m; _ }; mb_expr; _ } ->
          Option.iter (index_str file (join prefix m)) (structure_of mb_expr)
      | _ -> ())
    st.str_items

and structure_of me =
  match me.mod_desc with
  | Tmod_structure st -> Some st
  | Tmod_constraint (me, _, _, _) -> structure_of me
  | _ -> None

(* A binding's own optional parameters, along the spine of its function.
   [fun ?(x = d) -> body] is typed as [fun *opt* -> let x = match *opt*
   with ... in body], so a defaulted parameter is the let-bound [x]. *)
let rec own_optionals (e : expression) =
  match e.exp_desc with
  | Texp_function { arg_label; cases = [ c ]; _ } -> (
      match (arg_label, c.c_lhs.pat_desc, c.c_rhs.exp_desc) with
      | ( Optional l,
          Tpat_var (opt, _),
          Texp_let (_, [ { vb_pat = { pat_desc = Tpat_var (id, _); _ }; _ } ], body) )
        when Ident.name opt = "*opt*" ->
          (id, l) :: own_optionals body
      | Optional l, Tpat_var (id, _), _ -> (id, l) :: own_optionals c.c_rhs
      | _ -> own_optionals c.c_rhs)
  | _ -> []

(* Uses, from every unit outside test/. *)
let passed : (string * string, unit) Hashtbl.t = Hashtbl.create 256
let forwards = ref [] (* (from key, from label) -> (to key, to label) *)
let read : (string, unit) Hashtbl.t = Hashtbl.create 1024

let is_ghost_none (e : expression) =
  match e.exp_desc with
  | Texp_construct (_, { cstr_name = "None"; _ }, []) -> e.exp_loc.loc_ghost
  | _ -> false

(* The caller's own optional parameter that an argument forwards, as
   [?mode] (the option itself) or [~cost] (wrapped in [Some]). *)
let forwarded (from, params) (e : expression) =
  let e =
    match e.exp_desc with
    | Texp_construct (_, { cstr_name = "Some"; _ }, [ x ]) -> x
    | _ -> e
  in
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) ->
      List.find_opt (fun (p, _) -> Ident.same p id) params
      |> Option.map (fun (_, l) -> (from, l))
  | _ -> None

let read_label (lbl : Types.label_description) =
  match Types.get_desc lbl.lbl_res with
  | Tconstr (p, _, _) ->
      Hashtbl.replace read
        (stem lbl.lbl_loc.loc_start.pos_fname ^ ":" ^ Path.last p ^ "." ^ lbl.lbl_name)
        ()
  | _ -> ()

let scan_uses file (st : structure) =
  (* The top-level binding being walked, and its own optional parameters. *)
  let current = ref None in
  let expr self (e : expression) =
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) -> (
        match Hashtbl.find_opt by_loc (pos_key vd.val_loc) with
        | None -> ()
        | Some key ->
            List.iter
              (function
                | Asttypes.Optional l, Some arg when not (is_ghost_none arg) -> (
                    match Option.bind !current (fun c -> forwarded c arg) with
                    | Some src -> forwards := (src, (key, l)) :: !forwards
                    | None -> Hashtbl.replace passed (key, l) ())
                | _ -> ())
              args)
    | Texp_field (_, _, lbl) -> read_label lbl
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun self p ->
    (match p.pat_desc with
    | Tpat_record (fs, _) -> List.iter (fun (_, lbl, _) -> read_label lbl) fs
    | _ -> ());
    Tast_iterator.default_iterator.pat self p
  in
  let it = { Tast_iterator.default_iterator with expr; pat } in
  let rec walk prefix (st : structure) =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                current :=
                  (match vb.vb_pat.pat_desc with
                  | Tpat_var (_, name) ->
                      Some (value_key file (join prefix name.txt), own_optionals vb.vb_expr)
                  | _ -> None);
                it.value_binding it vb;
                current := None)
              vbs
        | Tstr_module { mb_name = { txt = Some m; _ }; mb_expr; _ } -> (
            match structure_of mb_expr with
            | Some st -> walk (join prefix m) st
            | None -> it.structure_item it item)
        | _ -> it.structure_item it item)
      st.str_items
  in
  walk "" st

(* A forwarded argument is passed once the parameter it forwards is. *)
let rec propagate () =
  let grew = ref false in
  List.iter
    (fun (src, dst) ->
      if Hashtbl.mem passed src && not (Hashtbl.mem passed dst) then (
        Hashtbl.replace passed dst ();
        grew := true))
    !forwards;
  if !grew then propagate ()

let scan () =
  let units =
    List.filter_map
      (fun p ->
        let c = Cmt_format.read_cmt p in
        match c.cmt_sourcefile with
        | Some src when not (Filename.check_suffix src "-gen") -> Some (src, c.cmt_annots)
        | _ -> None)
      (cmt_files root [])
  in
  List.iter
    (fun (src, annots) ->
      match annots with
      | Cmt_format.Interface sg when is_lib src -> scan_sig src "" sg
      | Cmt_format.Implementation st -> index_str src "" st
      | _ -> ())
    units;
  List.iter
    (fun (src, annots) ->
      match annots with
      | Cmt_format.Implementation st when not (is_test src) -> scan_uses src st
      | _ -> ())
    units;
  propagate ();
  let dead_opts =
    List.filter_map
      (fun (mli, shown, key, l) ->
        if Hashtbl.mem passed (key, l) then None else Some (mli ^ " " ^ shown ^ " opt"))
      !opts
  and dead_fields =
    List.filter_map
      (fun (mli, shown, key) ->
        if Hashtbl.mem read key then None else Some (mli ^ " " ^ shown ^ " field"))
      !fields
  in
  List.sort_uniq compare (dead_opts @ dead_fields)

let allowlisted file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | [ path; item; ("opt" | "field" as cls) ] -> Some (String.concat " " [ path; item; cls ])
         | _ -> None)
  |> List.sort_uniq compare

let () =
  let found = scan () in
  match Sys.argv with
  | [| _ |] -> List.iter print_endline found
  | [| _; "--check" |] ->
      let allow = "scripts/exports.allow" in
      let listed = allowlisted allow in
      if found = listed then
        Printf.printf
          "knobs: %d optional arguments and %d record fields declared, %d allowlisted, none new\n"
          (List.length !opts) (List.length !fields) (List.length found)
      else (
        prerr_endline ("knobs: the scan and " ^ allow ^ " differ");
        prerr_endline "  (> found by the scan but not allowlisted; < allowlisted but now used)";
        List.iter
          (fun l -> if not (List.mem l found) then prerr_endline ("< " ^ l))
          listed;
        List.iter
          (fun l -> if not (List.mem l listed) then prerr_endline ("> " ^ l))
          found;
        exit 1)
  | _ ->
      prerr_endline "usage: knobs [--check]";
      exit 2
