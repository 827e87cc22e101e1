module Sched = Fpx_sched.Sched

type config = {
  seed : int;
  runs : int;
  jobs : int;
  minimize : bool;
  corpus : string option;
  fault : Fpx_fault.Fault.spec option;
  defect : Oracle.clazz option;
}

let default ~seed ~runs =
  { seed; runs; jobs = 1; minimize = true; corpus = None; fault = None;
    defect = None }

type found = {
  id : int;
  clazz : Oracle.clazz;
  details : (Oracle.clazz * string) list;
  orig_instrs : int;
  min_instrs : int;
  artifact : string option;
}

type summary = {
  seed : int;
  runs : int;
  klang_cases : int;
  found : found list;
}

let check_case (cfg : config) id =
  Fpx_obs.Span.with_ ~cat:"fuzz"
    ~args:
      (if Fpx_obs.Span.enabled () then [ ("id", Fpx_obs.Trace.I id) ] else [])
    "fuzz.case"
  @@ fun () ->
  let c = Sassgen.case ~seed:cfg.seed ~id in
  let ds = Oracle.check ?fault:cfg.fault ?defect:cfg.defect c in
  match ds with
  | [] -> None
  | first :: _ ->
    let clazz = first.Oracle.clazz in
    let minimized =
      if cfg.minimize then
        Shrink.minimize ?fault:cfg.fault ?defect:cfg.defect clazz c
      else c
    in
    let artifact =
      Option.map (fun dir -> Corpus.save ~dir clazz minimized) cfg.corpus
    in
    Some
      { id; clazz;
        details = List.map (fun d -> (d.Oracle.clazz, d.Oracle.detail)) ds;
        orig_instrs = Repro.instr_count c;
        min_instrs = Repro.instr_count minimized;
        artifact }

let run (cfg : config) =
  Fpx_obs.Span.with_ ~cat:"fuzz"
    ~args:
      (if Fpx_obs.Span.enabled () then
         [ ("seed", Fpx_obs.Trace.I cfg.seed);
           ("runs", Fpx_obs.Trace.I cfg.runs);
           ("jobs", Fpx_obs.Trace.I cfg.jobs) ]
       else [])
    "fuzz.campaign"
  @@ fun () ->
  let ids = List.init cfg.runs Fun.id in
  let results = Sched.map ~jobs:cfg.jobs (check_case cfg) ids in
  let klang_cases =
    List.length (List.filter Sassgen.is_klang_case ids)
  in
  { seed = cfg.seed; runs = cfg.runs; klang_cases;
    found = List.filter_map Fun.id results }

(* --- summary JSON ----------------------------------------------------- *)

let quote = Fpx_obs.Json.quote

let by_class s =
  List.map
    (fun cl ->
      (cl, List.length (List.filter (fun f -> f.clazz = cl) s.found)))
    Oracle.all_classes

let found_json f =
  let detail_json (cl, d) =
    Printf.sprintf "{\"class\":\"%s\",\"detail\":%s}"
      (Oracle.clazz_to_string cl) (quote d)
  in
  Printf.sprintf
    "{\"id\":%d,\"class\":\"%s\",\"orig_instrs\":%d,\"min_instrs\":%d,%s\"details\":[%s]}"
    f.id
    (Oracle.clazz_to_string f.clazz)
    f.orig_instrs f.min_instrs
    (match f.artifact with
    | None -> ""
    | Some p ->
      Printf.sprintf "\"artifact\":%s,\"replay\":%s," (quote p)
        (quote (Corpus.replay_command p)))
    (String.concat "," (List.map detail_json f.details))

let summary_json s =
  let classes =
    String.concat ","
      (List.map
         (fun (cl, n) ->
           Printf.sprintf "\"%s\":%d" (Oracle.clazz_to_string cl) n)
         (by_class s))
  in
  Printf.sprintf
    "{\"seed\":%d,\"runs\":%d,\"klang_cases\":%d,\"discrepancies\":%d,\"by_class\":{%s},\"found\":[%s]}\n"
    s.seed s.runs s.klang_cases
    (List.length s.found)
    classes
    (String.concat "," (List.map found_json s.found))

let record_metrics s sink =
  match Fpx_obs.Sink.active sink with
  | None -> ()
  | Some a ->
    let m = a.Fpx_obs.Sink.metrics in
    let add = Fpx_obs.Metrics.add_named m in
    add ~help:"fuzz cases generated" "fuzz_cases_total" s.runs;
    add ~help:"cases through the klang generator" "fuzz_klang_cases_total"
      s.klang_cases;
    add ~help:"cases with at least one discrepancy"
      "fuzz_discrepancies_total"
      (List.length s.found);
    add ~help:"instructions removed by minimization"
      "fuzz_minimized_instrs_removed"
      (List.fold_left
         (fun acc f -> acc + (f.orig_instrs - f.min_instrs))
         0 s.found);
    List.iter
      (fun (cl, n) ->
        if n > 0 then
          add ~help:"discrepancies of one class"
            ("fuzz_found_" ^ String.map (function '-' -> '_' | c -> c)
                               (Oracle.clazz_to_string cl))
            n)
      (by_class s)
