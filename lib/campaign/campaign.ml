module Gpu = Fpx_gpu
module W = Fpx_workloads.Workload
module Fault = Fpx_fault.Fault
module Prng = Fault.Prng
module Sched = Fpx_sched.Sched
module Mutate = Fpx_sass.Mutate
module Parse = Fpx_sass.Parse
module Program = Fpx_sass.Program
module Repro = Fpx_fuzz.Repro
module Shrink = Fpx_fuzz.Shrink
module Corpus = Fpx_fuzz.Corpus
module Json = Fpx_obs.Json
module Runner = Fpx_harness.Runner

type outcome = Masked | Sdc | Detected | Hang | Crash | Decode_fail

let all_outcomes = [ Masked; Sdc; Detected; Hang; Crash; Decode_fail ]

let outcome_to_string = function
  | Masked -> "masked"
  | Sdc -> "sdc"
  | Detected -> "detected"
  | Hang -> "hang"
  | Crash -> "crash"
  | Decode_fail -> "decode-fail"

let outcome_of_string = function
  | "masked" -> Some Masked
  | "sdc" -> Some Sdc
  | "detected" -> Some Detected
  | "hang" -> Some Hang
  | "crash" -> Some Crash
  | "decode-fail" -> Some Decode_fail
  | _ -> None

type config = {
  seed : int;
  total : int;
  jobs : int;
  programs : string list;
  store : string option;
  resume : bool;
  minimize : bool;
  corpus : string option;
  halt_after : int option;
  budget_factor : int;
}

let default_programs = [ "GEMM"; "nbody"; "GRAMSCHM"; "hotspot"; "Triad" ]

let config ?(jobs = 1) ?(programs = default_programs) ?store ?(resume = false)
    ?(minimize = true) ?corpus ?halt_after ?(budget_factor = 16) ~seed ~total
    () =
  if total < 0 then invalid_arg "Campaign.config: negative total";
  if programs = [] then invalid_arg "Campaign.config: no programs";
  {
    seed;
    total;
    jobs = max 1 jobs;
    programs;
    store;
    resume;
    minimize;
    corpus;
    halt_after;
    budget_factor = max 1 budget_factor;
  }

let key cfg =
  Store.key_of ~seed:cfg.seed ~total:cfg.total
    ~budget_factor:cfg.budget_factor ~programs:cfg.programs

let store_path cfg =
  Option.map (fun root -> Store.path ~root ~key:(key cfg)) cfg.store

type result = {
  id : int;
  program : string;
  site : string;
  target : string;
  outcome : outcome;
  detected : bool;
  detail : string;
}

(* ------------------------------------------------------------------ *)
(* JSONL result lines                                                  *)

let result_to_line r =
  Json.(
    to_string
      (Obj
         [ ("id", Num (float_of_int r.id));
           ("program", Str r.program);
           ("site", Str r.site);
           ("target", Str r.target);
           ("outcome", Str (outcome_to_string r.outcome));
           ("detected", Bool r.detected);
           ("detail", Str r.detail) ]))

let result_of_line line =
  match Json.parse line with
  | exception Json.Parse_error _ -> None
  | j -> (
    match
      ( Json.int_field "id" j,
        Json.str_field "program" j,
        Json.str_field "site" j,
        Json.str_field "target" j,
        Option.bind (Json.str_field "outcome" j) outcome_of_string,
        Json.bool_field "detected" j,
        Json.str_field "detail" j )
    with
    | Some id, Some program, Some site, Some target, Some outcome,
      Some detected, Some detail ->
      Some { id; program; site; target; outcome; detected; detail }
    | _ -> None)

(* Every result that enters a summary goes through the store's
   serialization, whether or not a store is configured: a straight-run
   summary and a kill/parse/resume summary must not differ even by an
   escaping artifact in a trap message. *)
let canonical r =
  match result_of_line (result_to_line r) with Some r -> r | None -> r

(* ------------------------------------------------------------------ *)
(* Golden profiles                                                     *)

type profile = {
  w : W.t;
  digest : string;
  det_log : string list;
  dyn_instrs : int;
  shmem_words : int;
  n_regs : int;
  kernels : (string * Program.t) array;
  ledger : Runner.ledger;
      (** the golden run's launches, replayed by every injection *)
}

(* One detector run through the shared runner. The campaign's own
   workload wrapper captures what a measurement does not carry: the
   memory digest and dynamic totals at the moment the program finished,
   [None] when the run aborted or stopped at reconvergence. *)
let exec ?fault ~ledger (w : W.t) =
  let finished = ref None in
  let run ctx =
    w.W.run ctx;
    finished :=
      Some
        ( Gpu.Memory.digest (W.device ctx).Gpu.Device.memory,
          Fpx_nvbit.Runtime.totals ctx.W.rt )
  in
  let m =
    Runner.run ?fault ~ledger
      ~tool:(Runner.Detector Gpu_fpx.Detector.default_config)
      { w with W.run }
  in
  (m, !finished)

let profile_exn name =
  let w =
    try Fpx_workloads.Catalog.find name
    with Not_found -> failwith (Printf.sprintf "campaign: no workload %s" name)
  in
  let ledger = Runner.ledger () in
  match exec ~ledger:(Runner.Record ledger) w with
  | m, Some (digest, totals) ->
    let kernels =
      Array.of_list
        (List.map
           (fun k ->
             let p =
               Fpx_klang.Compile.compile ~mode:Fpx_klang.Mode.precise k
             in
             (p.Program.name, p))
           w.W.kernels)
    in
    let n_regs =
      Array.fold_left
        (fun acc (_, p) -> max acc p.Program.n_regs)
        1 kernels
    in
    {
      w;
      digest;
      det_log = m.Runner.log;
      dyn_instrs = max 1 totals.Gpu.Stats.dyn_instrs;
      shmem_words = totals.Gpu.Stats.shmem_hwm / 4;
      n_regs;
      kernels;
      ledger;
    }
  | m, None ->
    failwith
      (Printf.sprintf "campaign: golden run of %s failed: %s" name
         (Runner.status_detail m.Runner.status))

(* ------------------------------------------------------------------ *)
(* The injection plan                                                  *)

(* Pure in (seed, id) against the golden profiles: stream 1000+id is
   split per injection, so the plan is independent of jobs, batching
   and resume history. *)
let sample ~seed (profiles : profile array) id =
  let p = Prng.stream ~seed (1000 + id) in
  let prof = Prng.pick ~what:"campaign.programs" p profiles in
  let reg_flip () =
    Fault.Reg_flip
      {
        at_dyn = Prng.int p prof.dyn_instrs;
        lane = Prng.int p 32;
        reg = Prng.int p (max 1 prof.n_regs);
        bit = Prng.int p 32;
      }
  in
  let arch =
    match Prng.int p 3 with
    | 1 when prof.shmem_words > 0 ->
      Fault.Shmem_flip
        {
          at_dyn = Prng.int p prof.dyn_instrs;
          word = Prng.int p prof.shmem_words;
          bit = Prng.int p 32;
        }
    | 2 when Array.length prof.kernels > 0 ->
      let kname, prog = Prng.pick ~what:"campaign.kernels" p prof.kernels in
      Fault.Instr_flip
        {
          kernel = kname;
          pc = Prng.int p (max 1 (Program.length prog));
          sel = Prng.int p 0x3FFFFFFF;
        }
    | _ -> reg_flip ()
  in
  (prof, arch)

let truncate_detail msg =
  if String.length msg <= 200 then msg else String.sub msg 0 200

(* ------------------------------------------------------------------ *)
(* Minimization of interesting instruction-flip repros                 *)

(* A small budget: this classifier runs once per shrink candidate, and
   hang repros burn their whole budget every time. 5k steps is two
   orders above any terminating 32-thread repro in the corpus. The repro
   carries it, so a replay of the saved artifact runs under it too. *)
let standalone_budget = 5_000

let standalone_class (c : Repro.t) =
  let m =
    Runner.run ?fault:(Repro.fault c) ~tool:Runner.No_tool (Repro.workload c)
  in
  match m.Runner.status with
  | Runner.Completed | Runner.Degraded _ -> `Clean
  | Runner.Hung _ -> `Hang
  | Runner.Faulted msg ->
    `Trap
      (match String.index_opt msg ':' with
      | Some i -> String.sub msg 0 i
      | None -> msg)

(* A crash/hang found through an instruction flip is only worth a corpus
   entry if it reproduces standalone (fresh device, zeroed parameters):
   the flip is then a property of the mutated program, not of the
   workload's data, and [fpx_run replay] can re-trigger it. *)
let minimize_repro cfg (prof : profile) ~id ~outcome = function
  | Fault.Instr_flip { kernel; pc; sel } -> (
    match cfg.corpus with
    | None -> None
    | Some dir -> (
      match
        Array.find_opt (fun (n, _) -> String.equal n kernel) prof.kernels
      with
      | None -> None
      | Some (_, prog) -> (
        match Mutate.instr_flip prog ~pc ~sel with
        | Error _ -> None
        | Ok mutant -> (
          let c0 =
            {
              Repro.id;
              seed = cfg.seed;
              origin = Repro.Sass_gen;
              prog = mutant;
              grid = 1;
              block = 32;
              params = [ Parse.Ptr_bytes 4096 ];
              budget = Some standalone_budget;
            }
          in
          match standalone_class c0 with
          | `Clean -> None
          | cls ->
            let keep r = standalone_class r = cls in
            let c = if cfg.minimize then Shrink.shrink ~keep c0 else c0 in
            Some
              (Corpus.save_label ~dir
                 ~label:("campaign-" ^ outcome_to_string outcome)
                 c)))))
  | Fault.Reg_flip _ | Fault.Shmem_flip _ -> None

(* ------------------------------------------------------------------ *)
(* One injection                                                       *)

let classify (prof : profile) (m : Runner.measurement) = function
  | _ when m.Runner.reconverged ->
    (* memory and the detector equalled the golden run's at a launch
       boundary, so every later step is the golden run's *)
    (Masked, false, "")
  | Some (digest, _) ->
    let detected = m.Runner.log <> prof.det_log in
    if String.equal digest prof.digest then (Masked, detected, "")
    else if detected then (Detected, true, "")
    else (Sdc, false, "")
  | None -> (
    let detail = truncate_detail (Runner.status_detail m.Runner.status) in
    match m.Runner.status with
    | Runner.Hung _ -> (Hang, false, detail)
    | _ when String.starts_with ~prefix:"decode-fail" detail ->
      (Decode_fail, false, detail)
    | _ -> (Crash, false, detail))

let run_one cfg (profiles : profile array) id =
  Fpx_obs.Span.with_ ~cat:"campaign" "campaign.injection" (fun () ->
      let prof, arch = sample ~seed:cfg.seed profiles id in
      let budget = (cfg.budget_factor * prof.dyn_instrs) + 50_000 in
      let spec =
        Fault.spec ~sites:[] ~rate:0.0 ~arch ~budget ~seed:(cfg.seed + id) ()
      in
      let m, finished =
        exec ~fault:spec ~ledger:(Runner.Replay prof.ledger) prof.w
      in
      let outcome, detected, detail = classify prof m finished in
      let artifact =
        match outcome with
        | Crash | Hang -> minimize_repro cfg prof ~id ~outcome arch
        | Masked | Sdc | Detected | Decode_fail -> None
      in
      let r =
        canonical
          {
            id;
            program = prof.w.W.name;
            site = Fault.site_to_string (Fault.arch_site arch);
            target = Fault.arch_to_string arch;
            outcome;
            detected;
            detail;
          }
      in
      (r, artifact, m.Runner.replayed, m.Runner.reconverged))

(* ------------------------------------------------------------------ *)
(* The campaign driver                                                 *)

type summary = {
  cfg : config;
  completed : int;
  results : result list;
  artifacts : (int * string) list;
  halted : bool;
  launches_replayed : int;
  reconverged : int;
}

module IS = Set.Make (Int)

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

let rec chunks n = function
  | [] -> []
  | l ->
    let rec split i acc = function
      | x :: tl when i < n -> split (i + 1) (x :: acc) tl
      | rest -> (List.rev acc, rest)
    in
    let head, rest = split 0 [] l in
    head :: chunks n rest

(* Store-commit granularity: small enough that a kill loses little work,
   large enough that append syscalls don't dominate. Never affects
   results — only how much a resume has to redo. *)
let batch_size = 25

let by_outcome s =
  List.map
    (fun o ->
      (o, List.length (List.filter (fun r -> r.outcome = o) s.results)))
    all_outcomes

let by_site s =
  List.map
    (fun site ->
      ( Fault.site_to_string site,
        List.map
          (fun o ->
            ( o,
              List.length
                (List.filter
                   (fun r ->
                     r.outcome = o
                     && String.equal r.site (Fault.site_to_string site))
                   s.results) ))
          all_outcomes ))
    [ Fault.Reg_bit_flip; Fault.Shmem_bit_flip; Fault.Instr_bit_flip ]

let catch_rate s =
  let n o = List.length (List.filter (fun r -> r.outcome = o) s.results) in
  let detected = n Detected and sdc = n Sdc in
  if detected + sdc = 0 then None
  else Some (float_of_int detected /. float_of_int (detected + sdc))

let record_metrics s m =
  let add = Fpx_obs.Metrics.add_named m in
  add ~help:"architectural injections classified" "campaign_injections_total"
    s.completed;
  add ~help:"golden launches replayed instead of executed"
    "campaign_launches_replayed_total" s.launches_replayed;
  add ~help:"injections stopped where they rejoined the golden run"
    "campaign_reconverged_total" s.reconverged;
  List.iter
    (fun (o, n) ->
      if n > 0 then
        add ~help:"injections with one outcome"
          ("campaign_outcome_"
          ^ String.map (function '-' -> '_' | c -> c) (outcome_to_string o))
          n)
    (by_outcome s)

let summary_of cfg ?(artifacts = []) ?(halted = false) ?(replayed = 0)
    ?(reconverged = 0) results =
  let results = List.sort (fun a b -> compare a.id b.id) results in
  {
    cfg;
    completed = List.length results;
    results;
    artifacts;
    halted;
    launches_replayed = replayed;
    reconverged;
  }

let load cfg =
  let results =
    match cfg.store with
    | None -> []
    | Some root ->
      List.filter_map result_of_line (Store.load ~root ~key:(key cfg))
  in
  summary_of cfg results

(* The golden runs are independent: profile them over [cfg.jobs]
   domains. [Sched.map] re-raises the first failure in input order. *)
let profiles cfg =
  Array.of_list (Sched.map ~jobs:cfg.jobs profile_exn cfg.programs)

let run cfg =
  Fpx_obs.Span.with_ ~cat:"campaign" "campaign.run" (fun () ->
      let profiles = profiles cfg in
      let k = key cfg in
      let existing =
        match cfg.store with
        | None -> []
        | Some root ->
          if cfg.resume then
            List.filter_map result_of_line (Store.load ~root ~key:k)
          else begin
            Store.reset ~root ~key:k;
            []
          end
      in
      let done_ids =
        List.fold_left (fun s r -> IS.add r.id s) IS.empty existing
      in
      let existing =
        (* Foreign or duplicated ids (a hand-edited store) must not
           inflate the summary: keep the first record per in-plan id. *)
        let seen = ref IS.empty in
        List.filter
          (fun r ->
            r.id >= 0 && r.id < cfg.total
            && not (IS.mem r.id !seen)
            && begin
                 seen := IS.add r.id !seen;
                 true
               end)
          existing
      in
      let pending =
        List.filter
          (fun i -> not (IS.mem i done_ids))
          (List.init cfg.total Fun.id)
      in
      let pending, halted =
        match cfg.halt_after with
        | Some n when n >= 0 && List.length pending > n -> (take n pending, true)
        | _ -> (pending, false)
      in
      let fresh = ref [] in
      let artifacts = ref [] in
      let replayed = ref 0 and reconverged = ref 0 in
      List.iter
        (fun batch ->
          let rs = Sched.map ~jobs:cfg.jobs (run_one cfg profiles) batch in
          (match cfg.store with
          | Some root ->
            Store.append ~root ~key:k
              (List.map (fun (r, _, _, _) -> result_to_line r) rs)
          | None -> ());
          List.iter
            (fun (r, a, n, back) ->
              fresh := r :: !fresh;
              replayed := !replayed + n;
              if back then incr reconverged;
              match a with
              | Some p -> artifacts := (r.id, p) :: !artifacts
              | None -> ())
            rs)
        (chunks batch_size pending);
      summary_of cfg
        ~artifacts:(List.rev !artifacts)
        ~halted ~replayed:!replayed ~reconverged:!reconverged
        (existing @ !fresh))

let rerun cfg ~id =
  if id < 0 || id >= cfg.total then
    invalid_arg
      (Printf.sprintf "Campaign.rerun: id %d outside plan 0..%d" id
         (cfg.total - 1));
  let r, _, _, _ = run_one cfg (profiles cfg) id in
  r

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let describe r =
  Printf.sprintf "#%-5d %-10s %-14s %-11s%s %s" r.id r.program r.site
    (outcome_to_string r.outcome)
    (if r.detected then " [flagged]" else "")
    r.target

let summary_json s =
  let cfg = s.cfg in
  let n o = List.assoc o (by_outcome s) in
  let outcome_obj counts =
    String.concat ","
      (List.map
         (fun (o, c) ->
           Printf.sprintf "\"%s\":%d" (outcome_to_string o) c)
         counts)
  in
  let by_program =
    String.concat ","
      (List.map
         (fun p ->
           let counts =
             List.map
               (fun o ->
                 ( o,
                   List.length
                     (List.filter
                        (fun r ->
                          r.outcome = o && String.equal r.program p)
                        s.results) ))
               all_outcomes
           in
           Printf.sprintf "%s:{%s}" (Json.quote p) (outcome_obj counts))
         cfg.programs)
  in
  let by_site_json =
    String.concat ","
      (List.map
         (fun (site, counts) ->
           Printf.sprintf "\"%s\":{%s}" site (outcome_obj counts))
         (by_site s))
  in
  let masked_detected =
    List.length
      (List.filter (fun r -> r.outcome = Masked && r.detected) s.results)
  in
  Printf.sprintf
    "{\"seed\":%d,\"total\":%d,\"programs\":[%s],\"completed\":%d,\"by_outcome\":{%s},\"by_site\":{%s},\"by_program\":{%s},\"masked_detected\":%d,\"sdc_detected\":%d,\"sdc_undetected\":%d,\"catch_rate\":%s}\n"
    cfg.seed cfg.total
    (String.concat "," (List.map Json.quote cfg.programs))
    s.completed
    (outcome_obj (by_outcome s))
    by_site_json by_program masked_detected (n Detected) (n Sdc)
    (match catch_rate s with
    | None -> "null"
    | Some r -> Printf.sprintf "%.4f" r)
