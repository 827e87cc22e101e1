(* The one name -> tool table. The CLI, the serve daemon and tenant
   specs all resolve tool names here; Runner.instance_of_config is the
   only place that turns a config into a running tool. *)

let table =
  [ ("detect", "GPU-FPX detector: per-site exception counts with GT dedup",
     Runner.Detector Gpu_fpx.Detector.default_config);
    ("detect-backoff",
     "GPU-FPX detector, raising -k when a launch floods the channel",
     Runner.Detector
       { Gpu_fpx.Detector.default_config with adaptive_backoff = true });
    ("analyze", "GPU-FPX analyzer: exception flow (appear/propagate/die)",
     Runner.Analyzer);
    ("binfpe", "BinFPE baseline: per-lane checks, no global-table dedup",
     Runner.Binfpe);
    ("native", "no tool: the uninstrumented program", Runner.No_tool) ]

let names = List.map (fun (name, _, _) -> name) table

let ensure () = ()

let tool_config_of_name ?(static_prune = false) name =
  let base id =
    match List.find_opt (fun (n, _, _) -> n = id) table with
    | Some (_, _, Runner.Detector c) ->
      Ok (Runner.Detector { c with Gpu_fpx.Detector.static_prune })
    | Some (_, _, config) -> Ok config
    | None ->
      Error
        (Printf.sprintf "unknown tool %S (known: %s)" id
           (String.concat ", " names))
  in
  match String.split_on_char '+' name with
  | [ one ] -> base one
  | parts ->
    let rec collect acc = function
      | [] -> Ok (Runner.Stack (List.rev acc))
      | p :: tl -> Result.bind (base p) (fun c -> collect (c :: acc) tl)
    in
    collect [] parts
