module Runner = Fpx_harness.Runner

type t = {
  id : string;
  program : string;
  tool : Runner.tool_config;
  slot_share : float;
  mem_share : float;
  priority : int;
}

let make ?(tool = Runner.Detector Gpu_fpx.Detector.default_config)
    ?(slot_share = 0.5) ?(mem_share = 0.5) ?(priority = 1) ~program id =
  if id = "" then invalid_arg "Tenant.make: empty id";
  if slot_share <= 0.0 || mem_share <= 0.0 then
    invalid_arg "Tenant.make: shares must be positive";
  if priority < 1 then invalid_arg "Tenant.make: priority must be >= 1";
  { id; program; tool; slot_share; mem_share; priority }

(* CLI form: id=program[:tool[:share[:priority]]] — [share] is a
   fraction applied to both the warp-slot and bandwidth allocations. *)
let parse spec =
  match String.index_opt spec '=' with
  | None ->
    Error
      (Printf.sprintf
         "tenant spec %S: expected id=program[:tool[:share[:priority]]]" spec)
  | Some 0 -> Error (Printf.sprintf "tenant spec %S: empty id" spec)
  | Some eq -> (
    let id = String.sub spec 0 eq in
    let rest = String.sub spec (eq + 1) (String.length spec - eq - 1) in
    match String.split_on_char ':' rest with
    | [] | [ "" ] -> Error (Printf.sprintf "tenant spec %S: missing program" spec)
    | program :: opts -> (
      let tool, opts =
        match opts with
        | o :: rest' -> (
          match Fpx_harness.Toolreg.tool_config_of_name o with
          | Ok tool -> (Some tool, rest')
          | Error _ -> (None, opts))
        | [] -> (None, opts)
      in
      let share, opts =
        match opts with
        | s :: rest' -> (
          match float_of_string_opt s with
          | Some f when f > 0.0 && f <= 1.0 -> (Some f, rest')
          | _ -> (None, opts))
        | [] -> (None, opts)
      in
      let priority, opts =
        match opts with
        | p :: rest' -> (
          match int_of_string_opt p with
          | Some n when n >= 1 -> (n, rest')
          | _ -> (1, opts))
        | [] -> (1, opts)
      in
      match opts with
      | [] ->
        let slot_share = Option.value share ~default:0.5 in
        Ok
          (make ?tool ~slot_share ~mem_share:slot_share ~priority ~program id)
      | junk ->
        Error
          (Printf.sprintf "tenant spec %S: unrecognised suffix %S" spec
             (String.concat ":" junk))))
