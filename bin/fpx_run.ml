(* fpx_run — the LD_PRELOAD-style front end: run any catalog program
   under the GPU-FPX detector, the analyzer, or the BinFPE baseline.

     fpx_run list
     fpx_run detect myocyte --fast-math --freq-redn-factor 64
     fpx_run analyze SRU-Example
     fpx_run binfpe GEMM
     fpx_run disasm GRAMSCHM
     fpx_run report           # regenerate every table and figure *)

open Cmdliner
module W = Fpx_workloads.Workload
module R = Fpx_harness.Runner
module E = Fpx_harness.Experiments
module Sweep = Fpx_harness.Sweep
module Fault = Fpx_fault.Fault

let find_program name =
  match Fpx_workloads.Catalog.find name with
  | w -> Ok w
  | exception Not_found ->
    Error
      (`Msg
        (Printf.sprintf
           "unknown program %S (try `fpx_run list` for the catalog)" name))

let program_arg =
  let prog_conv =
    Arg.conv ~docv:"PROGRAM"
      (find_program, fun ppf (w : W.t) -> Format.pp_print_string ppf w.W.name)
  in
  Arg.(
    required
    & pos 0 (some prog_conv) None
    & info [] ~docv:"PROGRAM" ~doc:"Catalog program name (see `list`).")

let fast_math =
  Arg.(
    value & flag
    & info [ "fast-math" ] ~doc:"Compile the program with --use_fast_math.")

let ampere =
  Arg.(
    value & flag
    & info [ "ampere" ]
        ~doc:"Target the Ampere division expansion instead of Turing.")

let freq =
  Arg.(
    value & opt int 0
    & info [ "k"; "freq-redn-factor" ]
        ~doc:"Instrument one in $(docv) invocations of each kernel (0 = all).")

let no_gt =
  Arg.(
    value & flag
    & info [ "no-gt" ]
        ~doc:"Disable the global-table dedup (the paper's phase-1 mode).")

let repaired =
  Arg.(
    value & flag
    & info [ "repaired" ] ~doc:"Run the program's repaired variant instead.")

let json =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the report as a single JSON object.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file (kernel spans, exception \
           instants, channel flushes; load in chrome://tracing or \
           Perfetto).")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the metrics registry as JSON (use a .prom extension for \
           Prometheus text exposition format).")

let mode_of fm amp =
  let m = if fm then Fpx_klang.Mode.fast_math else Fpx_klang.Mode.precise in
  if amp then Fpx_klang.Mode.with_arch Fpx_klang.Mode.Ampere m else m

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run independent program runs on up to $(docv) worker domains \
           (default 1 = sequential). Reports are byte-identical for any \
           $(docv); 0 means the machine's recommended domain count.")

let resolve_jobs n = if n <= 0 then Fpx_sched.Sched.recommended_jobs () else n

(* --- Tool selection: every name comes from Toolreg.table ------------- *)

let tools_doc =
  String.concat "; "
    (List.map
       (fun (name, doc, _) -> Printf.sprintf "$(b,%s): %s" name doc)
       Fpx_harness.Toolreg.table)

let tool_names = String.concat ", " Fpx_harness.Toolreg.names

(* --- Fault injection flags ------------------------------------------- *)

let site_names =
  String.concat ", " (List.map Fault.site_to_string Fault.all_sites)

let fault_seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Enable deterministic fault injection, seeding the plan's PRNG \
           with $(docv). Identical seed, rate and kinds reproduce the run \
           byte-for-byte. See $(b,--fault-rate) and $(b,--fault-kinds).")

let fault_rate =
  Arg.(
    value & opt float 0.01
    & info [ "fault-rate" ] ~docv:"P"
        ~doc:
          "Per-decision injection probability (default 0.01). Only \
           meaningful with $(b,--fault-seed).")

let fault_kinds =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "fault-kinds" ] ~docv:"K1,K2"
        ~doc:
          (Printf.sprintf
             "Fault sites to enable (default: all). Known sites: %s."
             site_names))

let fault_spec_of seed rate kinds =
  match seed with
  | None -> None
  | Some seed ->
    if not (rate >= 0.0 && rate <= 1.0) then begin
      (* NaN fails both comparisons *)
      Printf.eprintf "fpx_run: bad fault rate %g (want 0 <= rate <= 1)\n" rate;
      exit 124
    end;
    let sites =
      match kinds with
      | None -> Fault.all_sites
      | Some names ->
        List.map
          (fun n ->
            match Fault.site_of_string n with
            | Some s -> s
            | None ->
              Printf.eprintf "fpx_run: unknown fault kind %S (known: %s)\n" n
                site_names;
              exit 124)
          names
    in
    Some (Fault.spec ~sites ~rate ~seed ())

(* Exit statuses for runs that did not complete cleanly (documented in
   each command's EXIT STATUS section). *)
let hang_exit = 2
let fault_exit = 3

let run_exits =
  Cmd.Exit.info hang_exit
    ~doc:
      "the run hung: channel congestion pushed past the hang budget, or \
       a watchdog aborted it (the executor's instruction budget, or the \
       launch slowdown budget under fault injection)."
  :: Cmd.Exit.info fault_exit
       ~doc:"a simulator trap (fault) aborted the run."
  :: Cmd.Exit.defaults

let exit_for_status (m : R.measurement) =
  match m.R.status with
  | R.Hung _ -> exit hang_exit
  | R.Faulted _ -> exit fault_exit
  | R.Completed | R.Degraded _ -> ()

let print_measurement (m : R.measurement) =
  List.iter print_endline m.R.log;
  Printf.printf "\n#GPU-FPX summary for [%s] under %s:\n" m.R.program
    (R.tool_config_to_string m.R.tool);
  List.iter
    (fun (fmt, exce, n) ->
      Printf.printf "  %s %s: %d location(s)\n"
        (Fpx_sass.Isa.fp_format_to_string fmt)
        (Fpx_tool.Exce.to_string exce)
        n)
    m.R.counts;
  if m.R.counts = [] then Printf.printf "  no exceptions detected\n";
  Printf.printf "  modelled slowdown: %.2fx%s  (records transferred: %d)\n"
    m.R.slowdown
    (if m.R.hang then "  ** HANG **" else "")
    m.R.records;
  match m.R.status with
  | R.Completed -> ()
  | s ->
    Printf.printf "  status: %s%s\n" (R.status_to_string s)
      (match R.status_detail s with "" -> "" | d -> " (" ^ d ^ ")")

let read_file_text path =
  match open_in path with
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  | exception Sys_error msg ->
    Printf.eprintf "fpx_run: cannot read file: %s\n" msg;
    exit 124

(* A standalone .sass file; a parse error is a bad input file. *)
let read_sass_file path =
  match Fpx_sass.Parse.file (read_file_text path) with
  | f -> f
  | exception Fpx_sass.Parse.Parse_error { line; message } ->
    Printf.eprintf "%s:%d: %s\n" path line message;
    exit 124

let write_file path s =
  Fpx_fuzz.Corpus.mkdir_p (Filename.dirname path);
  match open_out path with
  | oc ->
    output_string oc s;
    close_out oc
  | exception Sys_error msg ->
    flush stdout;
    Printf.eprintf "fpx_run: cannot write output file: %s\n" msg;
    exit 1

(* A .prom suffix on --metrics-out selects Prometheus text format. *)
let write_metrics path m =
  write_file path
    (if Filename.check_suffix path ".prom" then
       Fpx_obs.Metrics.to_prometheus_text m
     else Fpx_obs.Metrics.to_json m)

(* Export the sink's trace/metrics when the caller asked for them. *)
let export_obs ?trace_out ?metrics_out obs =
  match Fpx_obs.Sink.active obs with
  | None -> ()
  | Some a ->
    Option.iter
      (fun p ->
        let tr = a.Fpx_obs.Sink.trace in
        write_file p (Fpx_obs.Span.to_chrome_json tr);
        let d = Fpx_obs.Span.dropped tr in
        if d > 0 then
          Printf.eprintf
            "fpx_run: warning: trace ring wrapped — %s holds the last %d of \
             %d events (%d dropped; raise the ring capacity to keep them)\n"
            p
            (Fpx_obs.Span.recorded tr - d)
            (Fpx_obs.Span.recorded tr)
            d)
      trace_out;
    Option.iter (fun p -> write_metrics p a.Fpx_obs.Sink.metrics) metrics_out

let run_tool ?(json = false) ?trace_out ?metrics_out ?fault tool w fm amp
    repaired =
  let mode = mode_of fm amp in
  let obs =
    if trace_out <> None || metrics_out <> None then Fpx_obs.Sink.create ()
    else Fpx_obs.Sink.null
  in
  let m =
    if repaired then
      match R.run_repair ~obs ?fault ~mode ~tool w with
      | Some m -> m
      | None ->
        Printf.eprintf "%s has no repaired variant\n" w.W.name;
        exit 1
    else R.run ~obs ?fault ~mode ~tool w
  in
  export_obs ?trace_out ?metrics_out m.R.obs;
  if json then begin
    print_endline (R.to_json m);
    exit_for_status m;
    exit 0
  end;
  print_measurement m;
  Option.iter print_endline (Fpx_obs.Sink.summary m.R.obs);
  if m.R.analyzer_reports <> [] then begin
    print_newline ();
    List.iter
      (fun r -> List.iter print_endline (Gpu_fpx.Analyzer.render r))
      m.R.analyzer_reports;
    print_endline "\n#GPU-FPX-ANA FLOW SUMMARY:";
    print_string (Gpu_fpx.Flow.summarise m.R.analyzer_reports);
    match m.R.escapes with
    | [] ->
      print_endline
        "no exceptional values escape to memory (the output may look\n\
         clean even though the computation was not)"
    | es ->
      Printf.printf "exceptional values ESCAPE to program memory (%d site(s)):\n"
        (List.length es);
      List.iter
        (fun (e : Gpu_fpx.Analyzer.escape) ->
          Printf.printf "  %s stored @ %s in [%s]\n"
            (Fpx_num.Kind.to_string e.Gpu_fpx.Analyzer.kind)
            e.Gpu_fpx.Analyzer.store_loc e.Gpu_fpx.Analyzer.store_kernel)
        es
  end;
  exit_for_status m

let whitelist =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "kernels"; "white-list" ] ~docv:"K1,K2"
        ~doc:
          "Only instrument the named kernels (Algorithm 3's white-list; \
           combine with -k for undersampling).")

let detect_cmd =
  let run w fm amp k wl no_gt adaptive static_prune repaired json trace_out
      metrics_out fseed frate fkinds =
    let sampling =
      { Gpu_fpx.Sampling.whitelist = wl; freq_redn_factor = k }
    in
    let config =
      { Gpu_fpx.Detector.use_gt = not no_gt; warp_leader = true; sampling;
        adaptive_backoff = adaptive; static_prune }
    in
    let fault = fault_spec_of fseed frate fkinds in
    run_tool ~json ?trace_out ?metrics_out ?fault (R.Detector config) w fm
      amp repaired
  in
  let adaptive =
    Arg.(
      value & flag
      & info [ "adaptive-backoff" ]
          ~doc:
            "Raise the effective FREQ-REDN-FACTOR when a launch floods \
             the channel (graceful degradation under congestion).")
  in
  let static_prune =
    Arg.(
      value & flag
      & info [ "static-prune" ]
          ~doc:
            "Statically analyse each kernel at instrumentation time and \
             skip injection sites that provably cannot raise (sound: the \
             exception reports are unchanged, only the overhead drops).")
  in
  Cmd.v
    (Cmd.info "detect" ~exits:run_exits
       ~doc:"Run a program under the GPU-FPX detector.")
    Term.(
      const run $ program_arg $ fast_math $ ampere $ freq $ whitelist $ no_gt
      $ adaptive $ static_prune $ repaired $ json $ trace_out $ metrics_out
      $ fault_seed $ fault_rate $ fault_kinds)

let analyze_cmd =
  let run w fm amp repaired json trace_out metrics_out =
    run_tool ~json ?trace_out ?metrics_out R.Analyzer w fm amp repaired
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run a program under the GPU-FPX analyzer (exception flow).")
    Term.(
      const run $ program_arg $ fast_math $ ampere $ repaired $ json
      $ trace_out $ metrics_out)

let binfpe_cmd =
  let run w fm amp repaired trace_out metrics_out fseed frate fkinds =
    let fault = fault_spec_of fseed frate fkinds in
    run_tool ?trace_out ?metrics_out ?fault R.Binfpe w fm amp repaired
  in
  Cmd.v
    (Cmd.info "binfpe" ~exits:run_exits
       ~doc:"Run a program under the BinFPE baseline.")
    Term.(
      const run $ program_arg $ fast_math $ ampere $ repaired $ trace_out
      $ metrics_out $ fault_seed $ fault_rate $ fault_kinds)

let profile_cmd =
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Rows per hot-spot ranking (default 10).")
  in
  let native =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:
            "Profile the uninstrumented program (dynamic counts only, no \
             exception attribution).")
  in
  let run w fm amp top native trace_out metrics_out =
    let mode = mode_of fm amp in
    let obs = Fpx_obs.Sink.create () in
    let tool =
      if native then R.No_tool
      else R.Detector Gpu_fpx.Detector.default_config
    in
    let m = R.run ~obs ~mode ~tool w in
    (match Fpx_obs.Sink.active obs with
    | Some a ->
      Printf.printf "#OBS profile for [%s] under %s:\n\n" m.R.program
        (R.tool_config_to_string m.R.tool);
      print_string (Fpx_obs.Profile.render ~top a.Fpx_obs.Sink.profile)
    | None -> ());
    Printf.printf
      "\ntotals: %d dynamic warp-instructions, %d exception record(s), \
       modelled slowdown %.2fx\n"
      m.R.dyn_instrs m.R.total_exceptions m.R.slowdown;
    Option.iter print_endline (Fpx_obs.Sink.summary obs);
    export_obs ?trace_out ?metrics_out obs
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Per-kernel hot-spot table: top-N instructions by dynamic count \
          and by exceptions (detector attached unless $(b,--native)).")
    Term.(
      const run $ program_arg $ fast_math $ ampere $ top $ native $ trace_out
      $ metrics_out)

let list_cmd =
  let run () =
    List.iter
      (fun suite ->
        Printf.printf "%s:\n" (W.suite_to_string suite);
        List.iter
          (fun w -> Printf.printf "  %s\n" w.W.name)
          (Fpx_workloads.Catalog.by_suite suite))
      W.all_suites
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the 151 catalog programs by suite.")
    Term.(const run $ const ())

let disasm_cmd =
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:
            "Emit each kernel's control-flow graph as Graphviz DOT instead \
             of the textual disassembly (pipe into $(b,dot -Tsvg)).")
  in
  let run w fm amp dot =
    let mode = mode_of fm amp in
    List.iter
      (fun k ->
        let prog = Fpx_klang.Compile.compile ~mode k in
        if dot then
          print_string
            (Fpx_static.Cfg.to_dot
               (Fpx_static.Cfg.build (Fpx_sass.Decode.program prog)))
        else print_string (Fpx_sass.Program.disassemble prog))
      w.W.kernels
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Disassemble a program's kernels to SASS (or a CFG with \
             $(b,--dot)).")
    Term.(const run $ program_arg $ fast_math $ ampere $ dot)

let run_sass_cmd =
  let path_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A .sass kernel file (see `fpx_run disasm` \
                                   for the format; .launch/.param directives \
                                   configure the run).")
  in
  let analyze_flag =
    Arg.(
      value & flag
      & info [ "analyze" ] ~doc:"Use the analyzer instead of the detector.")
  in
  let run path analyze =
    let tool =
      if analyze then R.Analyzer else R.Detector Gpu_fpx.Detector.default_config
    in
    let c = Fpx_fuzz.Repro.of_file (read_sass_file path) in
    run_tool ?fault:(Fpx_fuzz.Repro.fault c) tool (Fpx_fuzz.Repro.workload c)
      false false false
  in
  Cmd.v
    (Cmd.info "run-sass" ~exits:run_exits
       ~doc:"Instrument and run a standalone textual SASS kernel file.")
    Term.(const run $ path_arg $ analyze_flag)

let lint_cmd =
  let target_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:
            "A standalone .sass kernel file (the `run-sass` format) or a \
             catalog program name.")
  in
  let run target fm amp =
    let progs =
      if Sys.file_exists target && not (Sys.is_directory target) then
        [ (read_sass_file target).Fpx_sass.Parse.prog ]
      else
        match find_program target with
        | Ok w ->
          let mode = mode_of fm amp in
          List.map (Fpx_klang.Compile.compile ~mode) w.W.kernels
        | Error (`Msg m) ->
          Printf.eprintf "fpx_run: %s\n" m;
          exit 1
    in
    List.iteri
      (fun i prog ->
        if i > 0 then print_newline ();
        List.iter print_endline (Fpx_static.Lint.to_lines (Fpx_static.Lint.lint prog)))
      progs
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse kernels and report possible floating-point \
          exception origins — which sites can raise, why, and where the \
          value would flow — without executing anything.")
    Term.(const run $ target_arg $ fast_math $ ampere)

let info_cmd =
  let run (w : W.t) =
    Printf.printf "%s (%s)\n" w.W.name (W.suite_to_string w.W.suite);
    if w.W.description <> "" then Printf.printf "  %s\n" w.W.description;
    Printf.printf "  repaired variant: %s\n"
      (if w.W.repair = None then "no" else "yes");
    Printf.printf "  kernels:\n";
    List.iter
      (fun (k : Fpx_klang.Ast.kernel) ->
        let prog = Fpx_klang.Compile.compile k in
        Printf.printf "    %-40s %3d instrs, %3d FP sites%s\n"
          k.Fpx_klang.Ast.kname
          (Fpx_sass.Program.length prog)
          (Fpx_sass.Program.fp_instr_count prog)
          (if k.Fpx_klang.Ast.file = "" then "  [closed source]" else ""))
      w.W.kernels
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Describe a catalog program and its kernels.")
    Term.(const run $ program_arg)

let report_cmd =
  let run jobs = print_string (E.report ~jobs:(resolve_jobs jobs) E.names) in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Regenerate every table and figure of the evaluation. Each \
          distinct run the artefacts need runs once, and every run \
          honours $(b,--jobs); the output is byte-identical for any job \
          count.")
    Term.(const run $ jobs_arg)

let sweep_cmd =
  let tool_name =
    Arg.(
      value & opt string "detect"
      & info [ "tool" ] ~docv:"TOOL"
          ~doc:
            (Printf.sprintf
               "Tool (or $(b,+)-joined stack of tools) to sweep with. \
                Tools: %s." tools_doc))
  in
  let static_prune =
    Arg.(
      value & flag
      & info [ "static-prune" ]
          ~doc:
            "Statically prune provably-exception-free injection sites in \
             detector members.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the JSON report to $(docv) instead of stdout.")
  in
  let census_flag =
    Arg.(
      value & flag
      & info [ "census" ]
          ~doc:
            "Also print the cross-run census (merged location table size \
             and unique exception triplets) on stderr.")
  in
  let run tool_name jobs static_prune fm amp out census metrics_out fseed
      frate fkinds =
    match Fpx_harness.Toolreg.tool_config_of_name ~static_prune tool_name with
    | Error m ->
      Printf.eprintf "fpx_run: %s\n" m;
      exit 124
    | Ok tool ->
      let jobs = resolve_jobs jobs in
      let mode = mode_of fm amp in
      let fault = fault_spec_of fseed frate fkinds in
      let observe = metrics_out <> None in
      let ms =
        Sweep.run ~jobs ~observe ?fault ~mode ~tool
          Fpx_workloads.Catalog.evaluated
      in
      let json = Sweep.report_json ms in
      (match out with
      | Some path -> write_file path json
      | None -> print_string json);
      Option.iter
        (fun path -> Option.iter (write_metrics path) (Sweep.merged_metrics ms))
        metrics_out;
      if census then begin
        let locations, triplets = Sweep.census ms in
        Printf.eprintf
          "census: %d location(s) interned, %d unique exception triplet(s)\n"
          locations triplets
      end
  in
  Cmd.v
    (Cmd.info "sweep" ~exits:run_exits
       ~doc:
         "Run the whole catalog under one tool (or stack) and emit a JSON \
          report; $(b,--jobs) spreads runs across domains with \
          byte-identical output.")
    Term.(
      const run $ tool_name $ jobs_arg $ static_prune $ fast_math $ ampere
      $ out $ census_flag $ metrics_out $ fault_seed $ fault_rate
      $ fault_kinds)

let stack_cmd =
  let tools =
    Arg.(
      value
      & opt (list string) [ "detect"; "analyze" ]
      & info [ "tools" ] ~docv:"T1,T2"
          ~doc:
            (Printf.sprintf
               "Tools to compose into one stack (every member sees every \
                instrumented launch). Tools: %s."
               tools_doc))
  in
  let run w tools fm amp repaired json trace_out metrics_out fseed frate
      fkinds =
    match Fpx_harness.Toolreg.tool_config_of_name (String.concat "+" tools)
    with
    | Error m ->
      Printf.eprintf "fpx_run: %s\n" m;
      exit 124
    | Ok tool ->
      let fault = fault_spec_of fseed frate fkinds in
      run_tool ~json ?trace_out ?metrics_out ?fault tool w fm amp repaired
  in
  Cmd.v
    (Cmd.info "stack" ~exits:run_exits
       ~doc:
         "Run a program under a composed stack of tools driven through \
          the single engine path (default: detector + analyzer).")
    Term.(
      const run $ program_arg $ tools $ fast_math $ ampere $ repaired $ json
      $ trace_out $ metrics_out $ fault_seed $ fault_rate $ fault_kinds)

let tools_cmd =
  let run () =
    List.iter
      (fun (name, doc, _) -> Printf.printf "%-16s %s\n" name doc)
      Fpx_harness.Toolreg.table
  in
  Cmd.v
    (Cmd.info "tools"
       ~doc:
         "List the tools every $(b,--tool)/$(b,--tools) option, \
          $(b,submit) and $(b,mt run) tenant spec accepts by name.")
    Term.(const run $ const ())

(* --- Differential fuzzing -------------------------------------------- *)

let discrepancy_exit = 4

let fuzz_exits =
  Cmd.Exit.info discrepancy_exit
    ~doc:"at least one cross-tool discrepancy was found."
  :: run_exits

let defect_arg =
  let names =
    String.concat ", "
      (List.map Fpx_fuzz.Oracle.clazz_to_string Fpx_fuzz.Oracle.all_classes)
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "defect" ] ~docv:"CLASS"
        ~doc:
          (Printf.sprintf
             "Deliberately inject an oracle defect of $(docv) into every \
              case that still carries an instrumentable FP site — a drill \
              for the minimize-and-save pipeline. Classes: %s."
             names))

let resolve_defect = function
  | None -> None
  | Some name -> (
    match Fpx_fuzz.Oracle.clazz_of_string name with
    | Some _ as d -> d
    | None ->
      Printf.eprintf "fpx_run: unknown discrepancy class %S\n" name;
      exit 124)

let fuzz_cmd =
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Campaign seed. Every case is a pure function of (seed, id): \
             the same seed and runs reproduce the campaign byte-for-byte.")
  in
  let runs_arg =
    Arg.(
      value & opt int 200
      & info [ "runs" ] ~docv:"N" ~doc:"Number of cases to generate.")
  in
  let no_minimize =
    Arg.(
      value & flag
      & info [ "no-minimize" ]
          ~doc:"Save failing cases as generated, without delta debugging.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Save each failing case's minimized repro under \
             $(docv)/<class>/<hash>.sass (parent directories are \
             created).")
  in
  let run seed runs jobs no_minimize corpus defect metrics_out fseed frate
      fkinds =
    let cfg =
      { Fpx_fuzz.Campaign.seed; runs; jobs = resolve_jobs jobs;
        minimize = not no_minimize; corpus;
        fault = fault_spec_of fseed frate fkinds;
        defect = resolve_defect defect }
    in
    let t0 = Unix.gettimeofday () in
    let s = Fpx_fuzz.Campaign.run cfg in
    let dt = Unix.gettimeofday () -. t0 in
    print_string (Fpx_fuzz.Campaign.summary_json s);
    Option.iter
      (fun path ->
        let sink = Fpx_obs.Sink.create () in
        Fpx_fuzz.Campaign.record_metrics s sink;
        match Fpx_obs.Sink.active sink with
        | Some a -> write_metrics path a.Fpx_obs.Sink.metrics
        | None -> ())
      metrics_out;
    Printf.eprintf "fuzz: %d cases in %.2fs (%.1f execs/sec), %d discrepancy(ies)\n"
      s.Fpx_fuzz.Campaign.runs dt
      (if dt > 0.0 then float_of_int s.Fpx_fuzz.Campaign.runs /. dt else 0.0)
      (List.length s.Fpx_fuzz.Campaign.found);
    List.iter
      (fun (f : Fpx_fuzz.Campaign.found) ->
        Option.iter
          (fun p -> Printf.eprintf "  %s\n" (Fpx_fuzz.Corpus.replay_command p))
          f.Fpx_fuzz.Campaign.artifact)
      s.Fpx_fuzz.Campaign.found;
    if s.Fpx_fuzz.Campaign.found <> [] then exit discrepancy_exit
  in
  Cmd.v
    (Cmd.info "fuzz" ~exits:fuzz_exits
       ~doc:
         "Differential fuzzing: generate seeded SASS and klang kernels, \
          run each through the detector (twice, and with static \
          pruning), BinFPE, the analyzer and the static verifier, and \
          cross-check every verdict. Failing cases are delta-debugged to \
          minimal repros and saved to the corpus with their exact replay \
          command. The summary JSON on stdout is byte-identical for any \
          $(b,--jobs) value.")
    Term.(
      const run $ seed_arg $ runs_arg $ jobs_arg $ no_minimize $ corpus_arg
      $ defect_arg $ metrics_out $ fault_seed $ fault_rate $ fault_kinds)

(* --- Self-diagnosis: why a --jobs N sweep regresses ------------------- *)

let diagnose_cmd =
  let tool_name =
    Arg.(
      value & opt string "detect"
      & info [ "tool" ] ~docv:"TOOL"
          ~doc:
            (Printf.sprintf
               "Tool (or $(b,+)-joined stack) to sweep with. Tools: %s."
               tools_doc))
  in
  let programs_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "programs" ] ~docv:"P1,P2"
          ~doc:
            "Diagnose over these catalog programs only (default: the whole \
             evaluated catalog).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the report to $(docv) instead of stdout.")
  in
  let span_trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the jobs=N run's wall-clock spans as Chrome trace-event \
             JSON, one named lane per worker domain (load in \
             chrome://tracing or Perfetto).")
  in
  let flame_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame-out" ] ~docv:"FILE"
          ~doc:
            "Write the jobs=N run's spans in collapsed-stack format \
             (self-time microseconds; feed to flamegraph.pl or \
             speedscope).")
  in
  let run tool_name jobs programs fm amp json out span_trace_out flame_out
      metrics_out =
    match Fpx_harness.Toolreg.tool_config_of_name tool_name with
    | Error m ->
      Printf.eprintf "fpx_run: %s\n" m;
      exit 124
    | Ok tool ->
      let jobs = resolve_jobs jobs in
      let mode = mode_of fm amp in
      let progs =
        match programs with
        | None -> Fpx_workloads.Catalog.evaluated
        | Some names ->
          List.map
            (fun n ->
              match find_program n with
              | Ok w -> w
              | Error (`Msg m) ->
                Printf.eprintf "fpx_run: %s\n" m;
                exit 124)
            names
      in
      (* One spanned sweep per job count; the recorder covers the sweep
         itself plus the report/census merge phases, so the breakdown
         sees everything the wall clock sees. *)
      let measure jobs =
        let recorder = Fpx_obs.Span.create () in
        let t0 = Unix.gettimeofday () in
        Fpx_obs.Span.with_installed recorder (fun () ->
            let ms = Sweep.run ~jobs ~mode ~tool progs in
            ignore (Sweep.report_json ms : string);
            ignore (Sweep.census ms : int * int));
        let wall_s = Unix.gettimeofday () -. t0 in
        (recorder, Fpx_obs.Domprof.of_spans ~jobs ~wall_s recorder)
      in
      let _, base = measure 1 in
      let recorder, target = measure jobs in
      let d = Fpx_obs.Domprof.diagnose ~base ~target in
      let payload =
        if json then Fpx_obs.Domprof.diagnosis_json d
        else Fpx_obs.Domprof.render d
      in
      (match out with
      | Some path -> write_file path payload
      | None -> print_string payload);
      Option.iter
        (fun p -> write_file p (Fpx_obs.Span.to_chrome_json recorder))
        span_trace_out;
      Option.iter
        (fun p -> write_file p (Fpx_obs.Span.to_collapsed recorder))
        flame_out;
      Option.iter
        (fun p ->
          let m = Fpx_obs.Metrics.create () in
          Fpx_obs.Domprof.record_metrics recorder target m;
          write_metrics p m)
        metrics_out
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:
         "Profile the parallel engine against itself: run a catalog sweep \
          at jobs=1 and jobs=N with wall-clock span tracing, aggregate the \
          spans into a per-phase overhead breakdown (queue-wait, steal \
          contention, task bodies, merges, JIT), and print a verdict \
          naming the dominant overhead source. $(b,--json) emits the full \
          breakdown as one JSON object.")
    Term.(
      const run $ tool_name $ jobs_arg $ programs_arg $ fast_math $ ampere
      $ json $ out $ span_trace_out $ flame_out $ metrics_out)

let replay_cmd =
  let path_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "A .sass repro saved by $(b,fpx_run fuzz) (or any standalone \
             kernel in the `run-sass` format).")
  in
  let id_arg =
    Arg.(
      value & opt int 0
      & info [ "id" ] ~docv:"ID"
          ~doc:
            "Case id to replay under (drives the sampled jobs=1-vs-4 \
             sweep check; the fuzz artifact header records it).")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed recorded in the \
                                           artifact header.")
  in
  let run path id seed defect fseed frate fkinds =
    let c = Fpx_fuzz.Repro.of_file ~id ~seed (read_sass_file path) in
    let ds =
      Fpx_fuzz.Oracle.check
        ?fault:(fault_spec_of fseed frate fkinds)
        ?defect:(resolve_defect defect) c
    in
    (match ds with
    | [] -> print_endline "replay: all tools agree"
    | _ ->
      List.iter
        (fun (d : Fpx_fuzz.Oracle.discrepancy) ->
          Printf.printf "replay: %s: %s\n"
            (Fpx_fuzz.Oracle.clazz_to_string d.Fpx_fuzz.Oracle.clazz)
            d.Fpx_fuzz.Oracle.detail)
        ds);
    if Fpx_fuzz.Oracle.same_class Fpx_fuzz.Oracle.Hang ds then exit hang_exit
    else if Fpx_fuzz.Oracle.same_class Fpx_fuzz.Oracle.Crash ds then
      exit fault_exit
    else if ds <> [] then exit discrepancy_exit
  in
  Cmd.v
    (Cmd.info "replay" ~exits:fuzz_exits
       ~doc:
         "Re-run a saved fuzz repro through the full differential oracle \
          and report which tools still disagree. Exit status: 0 = all \
          tools agree, 2 = hang, 3 = crash/trap, 4 = other discrepancy.")
    Term.(
      const run $ path_arg $ id_arg $ seed_arg $ defect_arg $ fault_seed
      $ fault_rate $ fault_kinds)

(* --- Architectural bit-flip campaigns -------------------------------- *)

let sdc_exit = 5
let decode_fail_exit = 6

let campaign_exits =
  Cmd.Exit.info sdc_exit
    ~doc:
      "(rerun) the injection corrupted the program's output silently — \
       the detector did not flag it."
  :: Cmd.Exit.info decode_fail_exit
       ~doc:
         "(rerun) the instruction-encoding flip produced an undecodable \
          instruction."
  :: run_exits

module C = Fpx_campaign.Campaign

let campaign_cfg_term =
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Campaign seed. Injection $(i,id) is a pure function of \
             (seed, total, programs): the same plan enumerates the same \
             flips at any $(b,--jobs) and across kill/resume cycles.")
  in
  let total_arg =
    Arg.(
      value & opt int 1000
      & info [ "total" ] ~docv:"N"
          ~doc:"Number of injections in the campaign plan.")
  in
  let programs_arg =
    Arg.(
      value
      & opt (list string) C.default_programs
      & info [ "programs" ] ~docv:"P1,P2"
          ~doc:"Catalog programs to inject into (see `fpx_run list`).")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Campaign store root. Results append to \
             $(docv)/<campaign-key>/campaign.jsonl after every batch, so \
             a killed campaign can continue with $(b,--resume).")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue from the store: already-classified injections are \
             loaded, only the remainder runs. Without this flag a fresh \
             run resets the campaign's store file.")
  in
  let halt_after_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "halt-after" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) new injections — a deterministic \
             mid-campaign kill, used to exercise $(b,--resume).")
  in
  let no_minimize =
    Arg.(
      value & flag
      & info [ "no-minimize" ]
          ~doc:"Save interesting repros as mutated, without shrinking.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Save standalone-reproducing instruction-flip crash/hang \
             repros (minimized) under $(docv)/campaign-<outcome>/.")
  in
  let budget_arg =
    Arg.(
      value & opt int 16
      & info [ "budget-factor" ] ~docv:"K"
          ~doc:
            "Per-injection watchdog budget: $(docv) * golden dynamic \
             instructions + 50k warp-instructions before the injection \
             is classified as a hang.")
  in
  let cfg seed total jobs programs store resume no_min corpus halt budget =
    match
      C.config ~jobs:(resolve_jobs jobs) ~programs ?store ~resume
        ~minimize:(not no_min) ?corpus ?halt_after:halt
        ~budget_factor:budget ~seed ~total ()
    with
    | cfg -> cfg
    | exception Invalid_argument msg ->
      Printf.eprintf "fpx_run: %s\n" msg;
      exit 124
  in
  Term.(
    const cfg $ seed_arg $ total_arg $ jobs_arg $ programs_arg $ store_arg
    $ resume_arg $ no_minimize $ corpus_arg $ halt_after_arg $ budget_arg)

let campaign_run_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the summary JSON to $(docv).")
  in
  let run cfg out metrics_out =
    let t0 = Unix.gettimeofday () in
    match C.run cfg with
    | s ->
      let dt = Unix.gettimeofday () -. t0 in
      print_string (C.summary_json s);
      Option.iter (fun p -> write_file p (C.summary_json s)) out;
      Option.iter
        (fun path ->
          let sink = Fpx_obs.Sink.create () in
          C.record_metrics s sink;
          match Fpx_obs.Sink.active sink with
          | Some a -> write_metrics path a.Fpx_obs.Sink.metrics
          | None -> ())
        metrics_out;
      Printf.eprintf
        "campaign: %d/%d classified in %.2fs (%.1f inj/sec)%s\n"
        s.C.completed cfg.C.total dt
        (if dt > 0.0 then float_of_int s.C.completed /. dt else 0.0)
        (if s.C.halted then " [halted early; rerun with --resume]" else "");
      List.iter
        (fun (id, p) ->
          Printf.eprintf "  #%d %s\n" id (Fpx_fuzz.Corpus.replay_command p))
        s.C.artifacts
    | exception Failure msg ->
      Printf.eprintf "fpx_run: %s\n" msg;
      exit 124
  in
  Cmd.v
    (Cmd.info "run" ~exits:campaign_exits
       ~doc:
         "Run (or $(b,--resume)) an architectural bit-flip campaign: \
          sample register/shared-memory/instruction-encoding flips \
          against golden runs, classify every injection as \
          masked/sdc/detected/hang/crash/decode-fail, and print the \
          deterministic summary JSON (byte-identical for any \
          $(b,--jobs) and across kill/resume).")
    Term.(const run $ campaign_cfg_term $ out $ metrics_out)

let campaign_status_cmd =
  let run cfg =
    let s = C.load cfg in
    Printf.printf "campaign %s\n" (C.key cfg);
    (match C.store_path cfg with
    | Some p -> Printf.printf "  store:     %s\n" p
    | None -> Printf.printf "  store:     (none configured)\n");
    Printf.printf "  progress:  %d/%d classified\n" s.C.completed cfg.C.total;
    List.iter
      (fun (o, n) ->
        if n > 0 then
          Printf.printf "  %-12s %d\n" (C.outcome_to_string o) n)
      (C.by_outcome s);
    (match C.catch_rate s with
    | Some r -> Printf.printf "  catch rate: %.4f\n" r
    | None -> ());
    if s.C.completed < cfg.C.total then exit 1
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Report a stored campaign's progress and outcome tally without \
          running anything. Exit status 1 when the campaign is \
          incomplete.")
    Term.(const run $ campaign_cfg_term)

let campaign_rerun_cmd =
  let id_arg =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"ID" ~doc:"Injection id within the plan.")
  in
  let run cfg id =
    match C.rerun cfg ~id with
    | r ->
      print_endline (C.describe r);
      if r.C.detail <> "" then Printf.printf "  %s\n" r.C.detail;
      (match r.C.outcome with
      | C.Masked | C.Detected -> ()
      | C.Hang -> exit hang_exit
      | C.Crash -> exit fault_exit
      | C.Sdc -> exit sdc_exit
      | C.Decode_fail -> exit decode_fail_exit)
    | exception (Invalid_argument msg | Failure msg) ->
      Printf.eprintf "fpx_run: %s\n" msg;
      exit 124
  in
  Cmd.v
    (Cmd.info "rerun" ~exits:campaign_exits
       ~doc:
         "Re-execute one injection from the plan and report its \
          classification. Exit status: 0 = masked or detected, 2 = \
          hang, 3 = crash, 5 = silent data corruption, 6 = decode \
          failure.")
    Term.(const run $ campaign_cfg_term $ id_arg)

let campaign_report_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the summary JSON to $(docv).")
  in
  let run cfg out =
    let s = C.load cfg in
    print_string (C.summary_json s);
    Option.iter (fun p -> write_file p (C.summary_json s)) out
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Rebuild the summary JSON from a stored campaign's JSONL \
          records alone (no injections run).")
    Term.(const run $ campaign_cfg_term $ out)

let campaign_cmd =
  Cmd.group
    (Cmd.info "campaign" ~exits:campaign_exits
       ~doc:
         "Architectural bit-flip fault-injection campaigns: measure how \
          register, shared-memory and instruction-encoding flips land \
          (masked / SDC / detected / hang / crash / decode-fail) and \
          what fraction of output-corrupting flips the GPU-FPX detector \
          catches.")
    [ campaign_run_cmd; campaign_status_cmd; campaign_rerun_cmd;
      campaign_report_cmd ]

(* --- Persistent analysis service ------------------------------------- *)

module Serve = Fpx_serve.Server
module Json = Fpx_obs.Json

let shed_exit = 7

let socket_arg =
  Arg.(
    value
    & opt string "fpx-serve.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the daemon.")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT" ~doc:"Also listen on loopback TCP $(docv).")

let serve_cmd =
  let jobs =
    Arg.(
      value & opt int 2
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains in the persistent pool (0 = the machine's \
             recommended count).")
  in
  let queue =
    Arg.(
      value & opt int 4
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission bound: shed new work once $(docv) requests are \
             queued beyond the busy workers.")
  in
  let cache =
    Arg.(
      value & opt int 256
      & info [ "cache" ] ~docv:"N" ~doc:"Result-cache capacity (LRU).")
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"FACTOR"
          ~doc:
            "Default per-request watchdog budget factor: abort (and \
             report) a submission instead of hanging a worker.")
  in
  let max_requests =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-requests" ] ~docv:"N"
          ~doc:"Stop accepting after $(docv) requests (bench/smoke use).")
  in
  let log =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE" ~doc:"Append server events to $(docv).")
  in
  let tenant_quota =
    Arg.(
      value & opt_all string []
      & info [ "tenant-quota" ] ~docv:"NAME=N"
          ~doc:
            "Per-tenant max in-flight fresh submissions (repeatable). \
             Tenants over quota are shed with reason `tenant-quota`; \
             cache hits are always served.")
  in
  let default_quota =
    Arg.(
      value
      & opt (some int) None
      & info [ "default-quota" ] ~docv:"N"
          ~doc:
            "Quota for tenants without an explicit $(b,--tenant-quota) \
             (default: jobs + queue, i.e. bounded only by global \
             admission).")
  in
  let run socket tcp jobs queue cache budget max_requests log tenant_quota
      default_quota metrics_out =
    let tenant_quotas =
      List.map
        (fun spec ->
          match String.index_opt spec '=' with
          | Some i -> (
            let name = String.sub spec 0 i in
            let v = String.sub spec (i + 1) (String.length spec - i - 1) in
            match int_of_string_opt v with
            | Some n when n >= 1 && name <> "" -> (name, n)
            | _ ->
              Printf.eprintf
                "fpx_run serve: bad --tenant-quota %S (want NAME=N, N >= 1)\n"
                spec;
              exit 124)
          | None ->
            Printf.eprintf
              "fpx_run serve: bad --tenant-quota %S (want NAME=N)\n" spec;
            exit 124)
        tenant_quota
    in
    let config =
      { Serve.jobs = resolve_jobs jobs; queue; cache_capacity = cache;
        budget; max_requests; log; tenant_quotas; default_quota }
    in
    let t = Serve.create ~config () in
    Printf.printf "fpx_run serve: listening on unix:%s%s (jobs=%d queue=%d)\n%!"
      socket
      (match tcp with Some p -> Printf.sprintf " tcp:%d" p | None -> "")
      config.Serve.jobs config.Serve.queue;
    Serve.serve ~unix_socket:socket ?tcp_port:tcp t;
    Option.iter (fun p -> write_metrics p (Serve.metrics t)) metrics_out;
    Serve.shutdown t
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent analysis daemon: a warm worker-domain pool \
          plus a content-addressed result cache behind a Unix-domain (and \
          optionally TCP) socket. Submit work with `fpx_run submit`; \
          scrape Prometheus metrics with an HTTP GET /metrics on the same \
          socket.")
    Term.(
      const run $ socket_arg $ tcp_arg $ jobs $ queue $ cache $ budget
      $ max_requests $ log $ tenant_quota $ default_quota $ metrics_out)

let submit_cmd =
  let target =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:
            "Catalog program name, or a standalone .sass kernel file \
             (required for op=submit).")
  in
  let tool =
    Arg.(
      value & opt string "detect"
      & info [ "tool" ] ~docv:"TOOL"
          ~doc:
            (Printf.sprintf
               "%s, a $(b,+)-joined stack of them, lint, or replay (sass \
                files only)."
               tool_names))
  in
  let op =
    Arg.(
      value & opt string "submit"
      & info [ "op" ] ~docv:"OP"
          ~doc:"Protocol op: submit, ping, stats, metrics, burn, shutdown.")
  in
  let ms =
    Arg.(
      value & opt int 10
      & info [ "ms" ] ~docv:"MS" ~doc:"Burn duration for op=burn.")
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"FACTOR"
          ~doc:"Per-request watchdog budget factor override.")
  in
  let tenant =
    Arg.(
      value
      & opt (some string) None
      & info [ "tenant" ] ~docv:"NAME"
          ~doc:
            "Tenant to account this submission to (quotas and \
             per-tenant metrics; default `anon`).")
  in
  let run socket tcp target tool op ms budget tenant fm amp json =
    let client =
      try
        match tcp with
        | Some port -> Fpx_serve.Client.connect_tcp ~host:"127.0.0.1" ~port
        | None -> Fpx_serve.Client.connect_unix socket
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "fpx_run submit: cannot connect: %s\n"
          (Unix.error_message e);
        exit 124
    in
    let req =
      match op with
      | "submit" ->
        let source =
          match target with
          | None ->
            Printf.eprintf "fpx_run submit: op=submit needs a TARGET\n";
            exit 124
          | Some tgt ->
            if Sys.file_exists tgt && not (Sys.is_directory tgt) then
              ("sass", Json.Str (read_file_text tgt))
            else ("program", Json.Str tgt)
        in
        Json.Obj
          ([ ("op", Json.Str "submit"); ("tool", Json.Str tool); source ]
          @ (if fm then [ ("fast_math", Json.Bool true) ] else [])
          @ (if amp then [ ("ampere", Json.Bool true) ] else [])
          @ (match tenant with
            | Some name -> [ ("tenant", Json.Str name) ]
            | None -> [])
          @
          match budget with
          | Some b -> [ ("budget", Json.Num (float_of_int b)) ]
          | None -> [])
      | "burn" ->
        Json.Obj
          [ ("op", Json.Str "burn"); ("ms", Json.Num (float_of_int ms)) ]
      | ("ping" | "stats" | "metrics" | "shutdown") as o ->
        Json.Obj [ ("op", Json.Str o) ]
      | o ->
        Printf.eprintf "fpx_run submit: unknown op %S\n" o;
        exit 124
    in
    let resp = Fpx_serve.Client.request client (Json.to_string req) in
    Fpx_serve.Client.close client;
    let parsed =
      try Json.parse resp
      with Json.Parse_error m ->
        Printf.eprintf "fpx_run submit: bad response: %s\n" m;
        exit 124
    in
    if json then print_endline resp
    else begin
      match Json.str_field "status" parsed with
      | Some "ok" -> (
        match Json.member "payload" parsed with
        | Some (Json.Str s) -> print_string (if s = "" then "" else s ^ "\n")
        | Some p -> print_endline (Json.to_string p)
        | None -> print_endline resp)
      | _ -> print_endline resp
    end;
    match Json.str_field "status" parsed with
    | Some "ok" -> (
      (* classify the payload like a local run: hung / faulted runs get
         the same exit codes `fpx_run detect` gives them *)
      match Json.member "payload" parsed with
      | Some payload -> (
        match Json.str_field "status" payload with
        | Some "hung" -> exit hang_exit
        | Some "faulted" -> exit fault_exit
        | _ -> ())
      | None -> ())
    | Some "degraded" -> exit shed_exit
    | _ -> exit 124
  in
  let exits =
    Cmd.Exit.info shed_exit
      ~doc:
        "the daemon shed the request under overload (status `degraded`); \
         retry later."
    :: run_exits
  in
  Cmd.v
    (Cmd.info "submit" ~exits
       ~doc:
         "Submit a program to a running `fpx_run serve` daemon and print \
          the verdict. Exit status: 0 = ok, 2 = the analysed run hung, 3 \
          = it faulted, 7 = the daemon shed the request under overload, \
          124 = protocol or usage error.")
    Term.(
      const run $ socket_arg $ tcp_arg $ target $ tool $ op $ ms $ budget
      $ tenant $ fast_math $ ampere $ json)

(* --- Multi-tenant co-runs --------------------------------------------- *)

module Mt = Fpx_tenancy.Mt
module Tenant = Fpx_tenancy.Tenant

let isolation_exit = 8

let mt_exits =
  Cmd.Exit.info isolation_exit
    ~doc:
      "isolation violated: a tenant's shared-run exception report \
       differs from its solo baseline (with $(b,--check-isolation))."
  :: Cmd.Exit.defaults

let tenant_specs_arg =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"TENANT"
        ~doc:
          (Printf.sprintf
             "Tenant spec `id=program[:tool[:share[:priority]]]`. TOOL is \
              %s, or a $(b,+)-joined stack of them (default detect); SHARE \
              in (0,1] is the tenant's slot and bandwidth allocation under \
              partitioned modes; PRIORITY >= 1 is consecutive launch turns \
              per round-robin round."
             tool_names))

let partition_arg =
  Arg.(
    value & opt string "none"
    & info [ "partition" ] ~docv:"MODE"
        ~doc:
          "QoS partition: `none` (free-for-all), `compute` (warp slots \
           reserved, memory path shared), or `compute+mem` (both \
           reserved — exception reports byte-identical to solo).")

let parse_tenants specs =
  List.map
    (fun spec ->
      match Tenant.parse spec with
      | Ok t -> t
      | Error msg ->
        Printf.eprintf "fpx_run mt: %s\n" msg;
        exit 124)
    specs

let print_mt_summary (r : Mt.result) =
  Printf.printf "partition=%s launches=%d\n"
    (Fpx_gpu.Bandwidth.partition_to_string r.Mt.partition)
    (List.length r.Mt.timeline);
  List.iter
    (fun (o : Mt.outcome) ->
      Printf.printf
        "%-10s %-12s %-16s %-9s launches=%-3d cycles=%-9d contention=%-8d \
         seen=%d/%d delayed=%d stranded=%d backoff_k=%d\n"
        o.Mt.tenant.Tenant.id o.Mt.tenant.Tenant.program
        (R.tool_config_to_string o.Mt.tenant.Tenant.tool)
        (R.status_to_string o.Mt.m.R.status)
        o.Mt.launches o.Mt.total_cycles o.Mt.contention_cycles
        o.Mt.records_seen o.Mt.m.R.records o.Mt.drains_delayed
        o.Mt.records_stranded o.Mt.backoff_k)
    r.Mt.outcomes

let mt_run_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the co-run result JSON to $(docv).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check-isolation" ]
          ~doc:
            "After the co-run, replay every tenant solo and compare \
             exception reports byte-for-byte; exit 8 on any difference. \
             Under `compute+mem` the reports must match.")
  in
  let run specs partition json out check metrics_out =
    let partition =
      match Fpx_gpu.Bandwidth.partition_of_string partition with
      | Some p -> p
      | None ->
        Printf.eprintf
          "fpx_run mt: unknown partition %S (none | compute | compute+mem)\n"
          partition;
        exit 124
    in
    let tenants = parse_tenants specs in
    let r =
      try Mt.run ~partition tenants
      with Invalid_argument msg ->
        Printf.eprintf "fpx_run mt: %s\n" msg;
        exit 124
    in
    if json then print_endline (Mt.result_json r) else print_mt_summary r;
    Option.iter (fun p -> write_file p (Mt.result_json r)) out;
    Option.iter
      (fun p ->
        let m = Fpx_obs.Metrics.create () in
        Mt.export_metrics r m;
        write_metrics p m)
      metrics_out;
    if check then begin
      let violations =
        List.filter
          (fun (o : Mt.outcome) ->
            let solo = Mt.solo o.Mt.tenant in
            let same = Mt.report_text solo = Mt.report_text o in
            if not json then
              Printf.printf "isolation %-10s %s\n" o.Mt.tenant.Tenant.id
                (if same then "identical" else "VIOLATED");
            not same)
          r.Mt.outcomes
      in
      if violations <> [] then exit isolation_exit
    end
  in
  Cmd.v
    (Cmd.info "run" ~exits:mt_exits
       ~doc:
         "Interleave several tenants' kernel streams on one shared \
          device model under a QoS partition and report per-tenant \
          cycles, contention and exception-report fidelity. \
          Deterministic: a fixed tenant set, partition and priorities \
          replays byte-identically at any $(b,--jobs).")
    Term.(
      const run $ tenant_specs_arg $ partition_arg $ json $ out $ check
      $ metrics_out)

let mt_report_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Result JSON written by `mt run --out`.")
  in
  let run file =
    let parsed =
      try Json.parse (read_file_text file)
      with Json.Parse_error m ->
        Printf.eprintf "fpx_run mt report: %s: %s\n" file m;
        exit 124
    in
    let str k j = Option.value ~default:"?" (Json.str_field k j) in
    let num k j = Option.value ~default:0 (Json.int_field k j) in
    Printf.printf "partition=%s\n" (str "partition" parsed);
    (match Json.member "tenants" parsed with
    | Some (Json.List ts) ->
      List.iter
        (fun o ->
          Printf.printf
            "%-10s %-12s %-16s %-9s launches=%-3d cycles=%-9d \
             contention=%-8d seen=%d/%d delayed=%d stranded=%d \
             report_sha=%s\n"
            (str "tenant" o) (str "program" o) (str "tool" o) (str "status" o)
            (num "launches" o) (num "total_cycles" o)
            (num "contention_cycles" o) (num "records_seen" o)
            (num "records" o) (num "drains_delayed" o)
            (num "records_stranded" o) (str "report_sha" o))
        ts
    | _ ->
      Printf.eprintf "fpx_run mt report: %s: no \"tenants\" array\n" file;
      exit 124);
    match Json.member "timeline" parsed with
    | Some (Json.List tl) -> Printf.printf "timeline: %d launches\n" (List.length tl)
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Summarise a stored `mt run --out` result without rerunning.")
    Term.(const run $ file)

let mt_cmd =
  Cmd.group
    (Cmd.info "mt" ~exits:mt_exits
       ~doc:
         "Multi-tenant GPU partitioning: run several tenants' kernel \
          streams concurrently on one simulated device with per-tenant \
          detector channels and QoS isolation (compute and \
          compute+memory partitioning), and check the isolation \
          guarantee — a partitioned tenant's exception report is \
          byte-identical to running alone.")
    [ mt_run_cmd; mt_report_cmd ]

let () =
  let doc = "GPU-FPX reproduction: FP exception detection on a GPU model" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "fpx_run" ~version:"1.0.0" ~doc)
          [ detect_cmd; analyze_cmd; binfpe_cmd; stack_cmd; sweep_cmd;
            profile_cmd; list_cmd; info_cmd; tools_cmd; disasm_cmd; lint_cmd;
            run_sass_cmd; fuzz_cmd; replay_cmd; campaign_cmd; report_cmd;
            diagnose_cmd; serve_cmd; submit_cmd; mt_cmd ]))
