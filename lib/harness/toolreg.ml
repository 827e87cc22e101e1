(* The harness knows every concrete tool, so it owns populating the
   registry. Registration is explicit (not a module-initialisation side
   effect): the OCaml linker drops unreferenced modules from library
   archives, so an [ensure] call from each entry point is the only
   reliable way to get the entries installed. *)

let default_stack dev =
  Fpx_tool.stack
    [ Gpu_fpx.Detector.tool (Gpu_fpx.Detector.create dev);
      Gpu_fpx.Analyzer.tool (Gpu_fpx.Analyzer.create dev) ]

let entries =
  [ { Fpx_tool.tool_id = "detect";
      doc = "GPU-FPX detector: per-site exception counts with GT dedup";
      make = (fun dev -> Gpu_fpx.Detector.tool (Gpu_fpx.Detector.create dev))
    };
    { Fpx_tool.tool_id = "analyze";
      doc = "GPU-FPX analyzer: exception flow (appear/propagate/die)";
      make = (fun dev -> Gpu_fpx.Analyzer.tool (Gpu_fpx.Analyzer.create dev))
    };
    { Fpx_tool.tool_id = "binfpe";
      doc = "BinFPE baseline: per-lane checks, no global-table dedup";
      make = (fun dev -> Fpx_binfpe.Binfpe.tool (Fpx_binfpe.Binfpe.create dev))
    };
    { Fpx_tool.tool_id = "detect+analyze";
      doc = "composed stack: detector and analyzer share one launch";
      make = default_stack
    } ]

let done_ = ref false

let ensure () =
  if not !done_ then begin
    done_ := true;
    List.iter Fpx_tool.register entries
  end

let tool_config_of_name ?(static_prune = false) name =
  let base = function
    | "detect" ->
      Ok (Runner.Detector { Gpu_fpx.Detector.default_config with static_prune })
    | "analyze" -> Ok Runner.Analyzer
    | "binfpe" -> Ok Runner.Binfpe
    | id ->
      Error
        (Printf.sprintf "unknown tool %S (known: %s)" id
           (String.concat ", "
              (List.map
                 (fun (e : Fpx_tool.entry) -> e.Fpx_tool.tool_id)
                 (Fpx_tool.registered ()))))
  in
  match String.split_on_char '+' name with
  | [ one ] -> base one
  | parts ->
    let rec collect acc = function
      | [] -> Ok (Runner.Stack (List.rev acc))
      | p :: tl -> Result.bind (base p) (fun c -> collect (c :: acc) tl)
    in
    collect [] parts
