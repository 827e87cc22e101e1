module Isa = Fpx_sass.Isa
module Program = Fpx_sass.Program
module Runner = Fpx_harness.Runner
module Sweep = Fpx_harness.Sweep
module D = Gpu_fpx.Detector
module B = Fpx_binfpe.Binfpe
module Exce = Fpx_tool.Exce

type clazz =
  | Static_unsound
  | Prune_mismatch
  | Census_mismatch
  | Nondet
  | Hang
  | Crash

let all_classes =
  [ Static_unsound; Prune_mismatch; Census_mismatch; Nondet; Hang; Crash ]

let clazz_to_string = function
  | Static_unsound -> "static-unsound"
  | Prune_mismatch -> "prune-mismatch"
  | Census_mismatch -> "census-mismatch"
  | Nondet -> "nondet"
  | Hang -> "hang"
  | Crash -> "crash"

let clazz_of_string s =
  List.find_opt (fun c -> clazz_to_string c = s) all_classes

type discrepancy = { clazz : clazz; detail : string }

let same_class cl ds = List.exists (fun d -> d.clazz = cl) ds

let primary = function [] -> None | d :: _ -> Some d.clazz

let det_config = D.default_config
let prune_config = { D.default_config with D.static_prune = true }

(* Run one tool over the case, folding the runner's hang and fault
   verdicts into oracle classes. *)
let run ?fault ~tool c =
  let m = Runner.run ?fault:(Repro.fault ?fault c) ~tool (Repro.workload c) in
  match m.Runner.status with
  | Runner.Hung "" -> Error (Hang, "run judged hung")
  | Runner.Hung msg -> Error (Hang, msg)
  | Runner.Faulted msg -> Error (Crash, "trap: " ^ msg)
  | Runner.Completed | Runner.Degraded _ -> Ok m

let find_detector extras =
  List.find_map (function D.Detector t -> Some t | _ -> None) extras

let find_binfpe extras =
  List.find_map (function B.Binfpe t -> Some t | _ -> None) extras

let site_str (pc, fmt, e) =
  Printf.sprintf "%04x/%s/%s" (pc * 16) (Isa.fp_format_to_string fmt)
    (Exce.to_string e)

let det_sites (m : Runner.measurement) =
  match find_detector m.Runner.extras with
  | None -> []
  | Some t ->
    List.map
      (fun (f : D.finding) ->
        (f.D.entry.Gpu_fpx.Loc_table.pc, f.D.fmt, f.D.exce))
      (D.findings t)

let bin_sites (m : Runner.measurement) =
  match find_binfpe m.Runner.extras with
  | None -> []
  | Some t ->
    List.map (fun (f : B.finding) -> (f.B.pc, f.B.fmt, f.B.exce))
      (B.findings t)

let diff_sites a b =
  let missing = List.filter (fun s -> not (List.mem s b)) a in
  let extra = List.filter (fun s -> not (List.mem s a)) b in
  let show l = String.concat "," (List.map site_str l) in
  Printf.sprintf "detector-only=[%s] binfpe-only=[%s]" (show missing)
    (show extra)

let check ?fault ?defect (c : Repro.t) =
  let ds = ref [] in
  let add clazz detail = ds := { clazz; detail } :: !ds in
  (match run ?fault ~tool:(Runner.Detector det_config) c with
  | Error (cl, msg) -> add cl msg
  | Ok m1 ->
    (* determinism: an identical re-run must measure identically *)
    (match run ?fault ~tool:(Runner.Detector det_config) c with
    | Error (cl, msg) -> add cl ("rerun: " ^ msg)
    | Ok m2 ->
      if Runner.to_json m1 <> Runner.to_json m2 then
        add Nondet "detector re-run measurement differs");
    (* static pruning must not change the exception census *)
    (match run ?fault ~tool:(Runner.Detector prune_config) c with
    | Error (cl, msg) -> add cl ("pruned: " ^ msg)
    | Ok mp ->
      if m1.Runner.counts <> mp.Runner.counts then
        add Prune_mismatch
          (Printf.sprintf "counts %d vs pruned %d"
             m1.Runner.total_exceptions mp.Runner.total_exceptions));
    (* a site the abstract interpreter proved clean must never fire *)
    let pr = Fpx_static.Prune.analyze c.Repro.prog in
    List.iter
      (fun ((pc, _, _) as s) ->
        if Fpx_static.Prune.is_clean pr pc then
          add Static_unsound ("proved clean yet fired: " ^ site_str s))
      (det_sites m1);
    (* arithmetic census: BinFPE and the detector see the same sites *)
    (match run ?fault ~tool:Runner.Binfpe c with
    | Error (cl, msg) -> add cl ("binfpe: " ^ msg)
    | Ok mb ->
      let da =
        List.sort_uniq compare
          (List.filter
             (fun (pc, _, _) ->
               B.covers (Program.instr c.Repro.prog pc).Fpx_sass.Instr.op)
             (det_sites m1))
      in
      let db = List.sort_uniq compare (bin_sites mb) in
      if da <> db then add Census_mismatch (diff_sites da db));
    (* an escaped NaN/INF implies a detector record (when sound) *)
    (match run ?fault ~tool:Runner.Analyzer c with
    | Error (cl, msg) -> add cl ("analyzer: " ^ msg)
    | Ok ma ->
      if ma.Runner.escapes <> [] && Repro.escape_oracle_applies c then begin
        let recorded =
          List.exists
            (fun (_, _, e) ->
              match e with
              | Exce.Nan | Exce.Inf | Exce.Div0 -> true
              | Exce.Sub -> false)
            (det_sites m1)
        in
        if not recorded then
          add Census_mismatch
            (Printf.sprintf "%d escapes with no NaN/INF record"
               (List.length ma.Runner.escapes))
      end);
    (* scheduler determinism, sampled: a small sweep at jobs=1 vs 4 *)
    if c.Repro.id mod 8 = 0 then begin
      let ws = List.init 4 (fun _ -> Repro.workload c) in
      let fault = Repro.fault ?fault c in
      match
        ( Sweep.run ?fault ~jobs:1 ~tool:(Runner.Detector det_config) ws,
          Sweep.run ?fault ~jobs:4 ~tool:(Runner.Detector det_config) ws )
      with
      | exception _ -> () (* the solo run above already classified it *)
      | s1, s4 ->
        if Sweep.report_json s1 <> Sweep.report_json s4 then
          add Nondet "sweep jobs=1 vs jobs=4 reports differ"
    end);
  (match defect with
  | Some cl when Program.fp_instr_count c.Repro.prog > 0 ->
    add cl
      (Printf.sprintf "injected defect (%d fp sites)"
         (Program.fp_instr_count c.Repro.prog))
  | _ -> ());
  List.rev !ds
