(* bench/main.exe — regenerates every table and figure of the paper's
   evaluation and runs the self-checking gate targets.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe table4       # one artefact

   Artefact targets: table1..table7, figure4, figure5, figure6,
   machines, ablation, summary. Gate targets: obs, obs2, resilience,
   static, parallel, fuzz, sdc, exec — each writes BENCH_<target>.json
   through [emit] and exits 1 when a gate fails. The deterministic ones
   (resilience, static, sdc, fuzz) also run under [dune runtest], which
   diffs their output against the committed BENCH files (bench/dune);
   the rest gate on timings. End-to-end throughput and serve latency
   live in bench/e2e. *)

module E = Fpx_harness.Experiments
module R = Fpx_harness.Runner
module Catalog = Fpx_workloads.Catalog
module F = Fpx_fault.Fault
module J = Fpx_obs.Json

(* --- One measure/emit pair ------------------------------------------------ *)

(* What one timed region cost: wall clock, process CPU time (every
   domain) and words allocated (minor + major - promoted, which counts
   joined domains too). The CI box has one core, so CPU and allocation
   explain what wall time alone cannot. *)
type sample = { wall_s : float; cpu_s : float; alloc_words : float }

let allocated_words () =
  let g = Gc.quick_stat () in
  g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

let measure f =
  let w0 = Unix.gettimeofday () and c0 = Sys.time () in
  let a0 = allocated_words () in
  let v = f () in
  let a1 = allocated_words () in
  let c1 = Sys.time () and w1 = Unix.gettimeofday () in
  (v, { wall_s = w1 -. w0; cpu_s = c1 -. c0; alloc_words = a1 -. a0 })

(* Samples of one region, each quantity reduced by [pick] (a best-of
   or a mean). *)
let reduce ~pick samples =
  let by q = pick (List.map q samples) in
  { wall_s = by (fun s -> s.wall_s);
    cpu_s = by (fun s -> s.cpu_s);
    alloc_words = by (fun s -> s.alloc_words) }

(* [reps] measured runs of [f], reduced by [pick]; the value is the
   first run's. *)
let measure_reps ~reps ~pick f =
  let runs = List.init reps (fun _ -> measure f) in
  (fst (List.hd runs), reduce ~pick (List.map snd runs))

let best = List.fold_left min infinity
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Numbers keep the fixed precision they were always printed at, so a
   regenerated BENCH file diffs cleanly against the committed one. *)
let num ?(digits = 4) x =
  J.Num (float_of_string (Printf.sprintf "%.*f" digits x))

let int n = J.Num (float_of_int n)
let strs xs = J.List (List.map (fun s -> J.Str s) xs)

(* A sample as JSON fields. *)
let sample_fields s =
  [ ("wall_s", num s.wall_s); ("cpu_s", num s.cpu_s);
    ("alloc_words", J.Num (Float.round s.alloc_words)) ]

let sample_json s = J.Obj (sample_fields s)

let pp_sample s =
  Printf.sprintf "%.3fs wall, %.3fs CPU, %.1fM words" s.wall_s s.cpu_s
    (s.alloc_words /. 1e6)

(* The one BENCH writer: [fields], then every named gate, then [pass] =
   all gates, as one JSON line in BENCH_<target>.json ([files] are side
   artefacts written next to it). Prints the section, [lines] and the
   verdict; exits 1 when a gate fails. *)
let emit ?(files = []) ~target ~title fields ~gates ~lines =
  let pass = List.for_all snd gates in
  let json =
    J.Obj
      (fields
      @ List.map (fun (g, b) -> (g, J.Bool b)) gates
      @ [ ("pass", J.Bool pass) ])
  in
  let files =
    (Printf.sprintf "BENCH_%s.json" target, J.to_string json ^ "\n") :: files
  in
  List.iter
    (fun (path, s) ->
      let oc = open_out path in
      output_string oc s;
      close_out oc)
    files;
  print_string (Fpx_harness.Ascii.section title);
  List.iter (Printf.printf "  %s\n") lines;
  Printf.printf "  %s -> %s (%s written)\n"
    (String.concat ", "
       (List.map (fun (g, b) -> Printf.sprintf "%s %b" g b) gates))
    (if pass then "PASS" else "FAIL")
    (String.concat ", " (List.map fst files));
  if not pass then exit 1

(* --- Observability overhead ---------------------------------------------- *)

(* The obs hooks must be free when disabled: Sink.null (the default) is
   the seed configuration, so its modelled slowdowns must match an
   active sink's exactly (the sink never touches Stats), and the CPU
   cost of an active sink must stay within budget. *)
let obs_bench () =
  let program_names = [ "GEMM"; "nbody"; "GRAMSCHM"; "hotspot"; "Triad" ] in
  let programs = List.map Catalog.find program_names in
  let tools =
    [ ("GPU-FPX", R.Detector Gpu_fpx.Detector.default_config);
      ("BinFPE", R.Binfpe);
      ("GPU-FPX analyzer", R.Analyzer) ]
  in
  let reps = 3 in
  let timed_geo make_obs tool =
    measure_reps ~reps ~pick:mean (fun () ->
        R.geomean
          (List.map
             (fun w -> (R.run ~obs:(make_obs ()) ~tool w).R.slowdown)
             programs))
  in
  let rows =
    List.map
      (fun (name, tool) ->
        let g_null, s_null = timed_geo (fun () -> Fpx_obs.Sink.null) tool in
        let g_active, s_active =
          timed_geo (fun () -> Fpx_obs.Sink.create ()) tool
        in
        let model_delta = abs_float (g_active -. g_null) /. g_null in
        let cpu_delta =
          (s_active.cpu_s -. s_null.cpu_s) /. max 1e-9 s_null.cpu_s
        in
        (name, g_null, g_active, model_delta, s_null, s_active, cpu_delta))
      tools
  in
  let max_of f = List.fold_left (fun a r -> max a (f r)) 0.0 rows in
  let max_delta = max_of (fun (_, _, _, d, _, _, _) -> d) in
  (* An active sink does real work (ring pushes, metric updates), so its
     CPU cost is gated too — generously, because these runs last ~0.1s
     on shared CI. The model gate stays tight: slowdown numbers must not
     move at all. *)
  let max_cpu_delta = max_of (fun (_, _, _, _, _, _, c) -> c) in
  let cpu_budget = 0.5 in
  emit ~target:"obs" ~title:"Observability overhead"
    [ ("programs", strs program_names);
      ("reps", int reps);
      ( "tools",
        J.List
          (List.map
             (fun (name, g_null, g_active, delta, s_null, s_active, c) ->
               J.Obj
                 [ ("tool", J.Str name);
                   ("geomean_slowdown_obs_null", num ~digits:6 g_null);
                   ("geomean_slowdown_obs_active", num ~digits:6 g_active);
                   ("model_delta", num ~digits:6 delta);
                   ("obs_null", sample_json s_null);
                   ("obs_active", sample_json s_active);
                   ("cpu_delta", num ~digits:6 c) ])
             rows) );
      ("obs_null_max_model_delta", num ~digits:6 max_delta);
      ("max_cpu_delta", num ~digits:6 max_cpu_delta);
      ("cpu_delta_budget", num ~digits:2 cpu_budget) ]
    ~gates:
      [ ("pass_lt_2pct", max_delta < 0.02);
        ("pass_cpu", max_cpu_delta < cpu_budget) ]
    ~lines:
      (List.map
         (fun (name, g_null, g_active, delta, s_null, s_active, c) ->
           Printf.sprintf
             "%-18s geomean slowdown %.4fx (obs null) / %.4fx (obs active), \
              model delta %.4f%%, CPU %.3fs -> %.3fs (%+.1f%%)"
             name g_null g_active (100.0 *. delta) s_null.cpu_s s_active.cpu_s
             (100.0 *. c))
         rows
      @ [ Printf.sprintf
            "max model delta %.4f%% (budget 2%%), max CPU delta %+.1f%% \
             (budget %.0f%%)"
            (100.0 *. max_delta) (100.0 *. max_cpu_delta)
            (100.0 *. cpu_budget) ])

(* --- Span tracing overhead & self-diagnosis ------------------------------- *)

(* Two halves. (a) The span guards woven through Sched/Runner/Runtime
   must be free when no recorder is installed: the instrumented engine
   path (Sweep.run, every guard live) is timed against a bare List.map
   over the same runs, interleaved rep by rep, best-of-reps, and the
   wall delta is gated at < 2%. (b) With a recorder installed, sweeps
   at jobs=1 and jobs=4 feed Domprof: the per-phase breakdowns, the
   dominant-overhead verdict, the Chrome trace and the flamegraph all
   land next to the JSON so every CI run archives a scheduler profile,
   and the jobs=4 task-body CPU inflation is gated. *)
let obs2_bench () =
  let module Sweep = Fpx_harness.Sweep in
  let module Span = Fpx_obs.Span in
  let module Domprof = Fpx_obs.Domprof in
  let program_names = [ "GEMM"; "nbody"; "GRAMSCHM"; "hotspot"; "Triad" ] in
  let programs = List.map Catalog.find program_names in
  let detector = R.Detector Gpu_fpx.Detector.default_config in
  let reps = 15 in
  assert (not (Span.enabled ()));
  let bare () =
    snd
      (measure (fun () ->
           ignore
             (List.map (fun w -> R.run ~tool:detector w) programs
               : R.measurement list)))
  in
  let guard () =
    snd
      (measure (fun () ->
           ignore
             (Sweep.run ~jobs:1 ~tool:detector programs : R.measurement list)))
  in
  (* The halves run interleaved, alternating which goes first, so the
     warm-up and the host's drift between reps land on both alike. *)
  let pairs =
    List.init reps (fun i ->
        if i mod 2 = 0 then
          let p = bare () in
          (p, guard ())
        else
          let g = guard () in
          (bare (), g))
  in
  let plain = reduce ~pick:best (List.map fst pairs) in
  let guarded = reduce ~pick:best (List.map snd pairs) in
  let disabled_delta =
    (guarded.wall_s -. plain.wall_s) /. max 1e-9 plain.wall_s
  in
  let traced jobs =
    let recorder = Span.create () in
    let (), s =
      measure (fun () ->
          Span.with_installed recorder (fun () ->
              let ms = Sweep.run ~jobs ~tool:detector programs in
              ignore (Sweep.report_json ms : string)))
    in
    (recorder, s, Domprof.of_spans ~jobs ~wall_s:s.wall_s recorder)
  in
  let _, s1, base = traced 1 in
  let recorder4, s4, target = traced 4 in
  let d = Domprof.diagnose ~base ~target in
  (* Task-body CPU at jobs=4 over jobs=1. Before the decoded execution
     core it was 16.4x (EXPERIMENTS.md, "Diagnosing the --jobs 4
     slowdown"): minor-heap/GC contention from an allocating inner loop.
     Crossing that floor again means the hot path allocates again. *)
  let inflation =
    target.Domprof.task_total_s /. max 1e-9 base.Domprof.task_total_s
  in
  let inflation_floor = 16.4 in
  let enabled_delta =
    (s1.wall_s -. guarded.wall_s) /. max 1e-9 guarded.wall_s
  in
  emit ~target:"obs2" ~title:"Span tracing overhead"
    ~files:
      [ ("BENCH_obs2_trace.json", Span.to_chrome_json recorder4);
        ("BENCH_obs2_flame.folded", Span.to_collapsed recorder4) ]
    [ ("programs", strs program_names);
      ("reps", int reps);
      ("plain", sample_json plain);
      ("guarded", sample_json guarded);
      ("disabled_wall_delta", num ~digits:6 disabled_delta);
      ("enabled_jobs1", sample_json s1);
      ("enabled_jobs4", sample_json s4);
      ("enabled_wall_delta", num ~digits:6 enabled_delta);
      ("task_cpu_inflation", num ~digits:2 inflation);
      ("diagnosis", J.parse (Domprof.diagnosis_json d)) ]
    ~gates:
      [ ("pass_disabled_lt_2pct", disabled_delta < 0.02);
        ("verdict_nonempty", d.Domprof.verdict <> "");
        ("inflation_lt_16_4x", inflation < inflation_floor) ]
    ~lines:
      [ Printf.sprintf
          "spans disabled (best of %d): bare %s; guarded %s -> %+.2f%% wall"
          reps (pp_sample plain) (pp_sample guarded) (100.0 *. disabled_delta);
        Printf.sprintf "spans enabled: jobs=1 %s (%+.1f%% wall vs disabled)"
          (pp_sample s1) (100.0 *. enabled_delta);
        Printf.sprintf
          "spans enabled: jobs=4 %s, %d spans on %d track(s), %d dropped"
          (pp_sample s4) target.Domprof.spans_recorded target.Domprof.tracks
          target.Domprof.spans_dropped;
        Printf.sprintf
          "task-body CPU %.3fs -> %.3fs at jobs=4, inflation %.2fx (floor \
           %.1fx)"
          base.Domprof.task_total_s target.Domprof.task_total_s inflation
          inflation_floor;
        d.Domprof.verdict ]

(* --- Fault injection & resilience ---------------------------------------- *)

(* A fault-rate × tool matrix on myocyte, the chatty workload from §4.2:
   under the identical seeded plan, BinFPE's unfiltered record flood
   trips the launch watchdog (Hung, partial records intact) while the
   detector's GT dedup keeps it under budget and it completes merely
   Degraded. Also pins determinism (same seed ⇒ byte-identical
   measurement JSON). *)
let resilience_bench () =
  let seed = 20230805 in
  (* watchdog-exhaust is deliberately left out of the matrix: it turns
     runs into deterministic aborts (covered in the test suite), which
     would mask the congestion story this bench is about *)
  let sites = List.filter (fun s -> s <> F.Watchdog_exhaust) F.all_sites in
  let w = Catalog.find "myocyte" in
  let tools =
    [ ("BinFPE", R.Binfpe);
      ("GPU-FPX", R.Detector Gpu_fpx.Detector.default_config) ]
  in
  let rates = [ 0.0; 0.01; 0.05 ] in
  let cell tool rate =
    R.run ~fault:(F.spec ~sites ~rate ~seed ()) ~tool w
  in
  let rows =
    List.concat_map
      (fun (name, tool) ->
        List.map (fun rate -> (name, tool, rate, cell tool rate)) rates)
      tools
  in
  let deterministic =
    List.for_all
      (fun (_, tool, rate, m) -> R.to_json (cell tool rate) = R.to_json m)
      rows
  in
  let binfpe_hangs =
    List.for_all
      (fun (name, _, _, m) ->
        name <> "BinFPE"
        || match m.R.status with
           | R.Hung _ -> m.R.records > 0
           | _ -> false)
      rows
  in
  let detector_survives =
    List.for_all
      (fun (name, _, rate, m) ->
        name <> "GPU-FPX"
        || (m.R.total_exceptions > 0
           &&
           match m.R.status with
           | R.Completed -> rate = 0.0
           | R.Degraded _ -> rate > 0.0
           | R.Hung _ | R.Faulted _ -> false))
      rows
  in
  emit ~target:"resilience" ~title:"Fault injection & resilience"
    [ ("program", J.Str "myocyte");
      ("seed", int seed);
      ("rates", J.List (List.map (num ~digits:3) rates));
      ( "rows",
        J.List
          (List.map
             (fun (name, _, rate, m) ->
               J.Obj
                 [ ("tool", J.Str name);
                   ("fault_rate", num ~digits:3 rate);
                   ("status", J.Str (R.status_to_string m.R.status));
                   ("status_detail", J.Str (R.status_detail m.R.status));
                   ("slowdown", num m.R.slowdown);
                   ("records", int m.R.records);
                   ("total_exceptions", int m.R.total_exceptions) ])
             rows) ) ]
    ~gates:
      [ ("deterministic", deterministic);
        ("binfpe_hangs", binfpe_hangs);
        ("detector_survives", detector_survives) ]
    ~lines:
      (List.map
         (fun (name, _, rate, m) ->
           Printf.sprintf
             "%-8s rate %.3f: %-9s slowdown %9.2fx, %6d records, %2d \
              exception site(s)%s"
             name rate
             (R.status_to_string m.R.status)
             m.R.slowdown m.R.records m.R.total_exceptions
             (match R.status_detail m.R.status with
             | "" -> ""
             | d -> "  [" ^ d ^ "]"))
         rows)

(* --- Static pruning ------------------------------------------------------ *)

(* The static analyzer's promise is "fewer injections, identical
   reports". Quantify it over the full catalog: per program, run the
   detector with and without --static-prune and compare (a) the
   byte-level detector log — must be identical, pruned checks were
   provable no-ops — and (b) the modelled slowdown — must never grow,
   and must strictly shrink in aggregate. Also count the statically
   provably-clean sites across every kernel. *)
let static_bench () =
  let programs = Catalog.evaluated in
  let base_cfg = Gpu_fpx.Detector.default_config in
  let pruned_cfg =
    { base_cfg with Gpu_fpx.Detector.static_prune = true }
  in
  let total_sites = ref 0 and total_clean = ref 0 in
  List.iter
    (fun (w : Fpx_workloads.Workload.t) ->
      List.iter
        (fun k ->
          let prog = Fpx_klang.Compile.compile k in
          let p = Fpx_static.Prune.analyze prog in
          total_sites := !total_sites + Fpx_static.Prune.n_sites p;
          total_clean := !total_clean + Fpx_static.Prune.n_clean p)
        w.Fpx_workloads.Workload.kernels)
    programs;
  let rows =
    List.map
      (fun (w : Fpx_workloads.Workload.t) ->
        let m0 = R.run ~tool:(R.Detector base_cfg) w in
        let m1 = R.run ~tool:(R.Detector pruned_cfg) w in
        (w.Fpx_workloads.Workload.name, m0, m1))
      programs
  in
  let g0 = R.geomean (List.map (fun (_, m0, _) -> m0.R.slowdown) rows) in
  let g1 = R.geomean (List.map (fun (_, _, m1) -> m1.R.slowdown) rows) in
  let moved =
    List.filter (fun (_, m0, m1) -> m1.R.slowdown < m0.R.slowdown -. 1e-9) rows
  in
  let biggest =
    List.filteri
      (fun i _ -> i < 5)
      (List.sort
         (fun (_, a0, a1) (_, b0, b1) ->
           compare
             (b0.R.slowdown -. b1.R.slowdown)
             (a0.R.slowdown -. a1.R.slowdown))
         moved)
  in
  emit ~target:"static" ~title:"Static instrumentation pruning"
    [ ("programs", int (List.length programs));
      ("static_sites", int !total_sites);
      ("static_provably_clean", int !total_clean);
      ("geomean_slowdown", num g0);
      ("geomean_slowdown_pruned", num g1);
      ( "rows",
        J.List
          (List.map
             (fun (name, m0, m1) ->
               J.Obj
                 [ ("program", J.Str name);
                   ("slowdown", num m0.R.slowdown);
                   ("slowdown_pruned", num m1.R.slowdown);
                   ("log_identical", J.Bool (m0.R.log = m1.R.log)) ])
             rows) ) ]
    ~gates:
      [ ("logs_identical",
         List.for_all (fun (_, m0, m1) -> m0.R.log = m1.R.log) rows);
        ("never_slower",
         List.for_all
           (fun (_, m0, m1) -> m1.R.slowdown <= m0.R.slowdown +. 1e-9)
           rows);
        ("pruned_gt_0", !total_clean > 0);
        ("strictly_reduced", g1 < g0) ]
    ~lines:
      ([ Printf.sprintf
           "%d instrumentable sites across the catalog, %d provably clean \
            (%.1f%%)"
           !total_sites !total_clean
           (100.0 *. float_of_int !total_clean
           /. float_of_int (max 1 !total_sites));
         Printf.sprintf
           "geomean modelled slowdown %.4fx -> %.4fx under --static-prune" g0
           g1;
         Printf.sprintf "%d program(s) got strictly cheaper; the biggest wins:"
           (List.length moved) ]
      @ List.map
          (fun (name, m0, m1) ->
            Printf.sprintf "  %-24s %.2fx -> %.2fx" name m0.R.slowdown
              m1.R.slowdown)
          biggest)

(* --- Domain-parallel sweep ------------------------------------------------ *)

(* The scheduler's contract is "same bytes, less wall-clock". Check both
   halves over the full catalog: the detector sweep report at --jobs
   2/4 must equal the sequential bytes (also under a seeded fault plan
   and under --static-prune), and on a machine with >= 4 cores the
   4-domain sweep must be >= 1.5x faster than sequential. On smaller
   machines the speedup gate is recorded but not enforced — there is
   nothing to win with one core. An untimed warm-up sweep runs first so
   jobs=1 does not pay one-time set-up (lazy initialisation, heap
   growth) that the later runs reuse. *)
let parallel_bench () =
  let module Sweep = Fpx_harness.Sweep in
  let programs = Catalog.evaluated in
  let detector = R.Detector Gpu_fpx.Detector.default_config in
  let pruned =
    R.Detector
      { Gpu_fpx.Detector.default_config with Gpu_fpx.Detector.static_prune = true }
  in
  let fault = F.spec ~sites:F.all_sites ~rate:0.02 ~seed:20230805 () in
  let sweep ?fault ~tool jobs =
    Sweep.report_json (Sweep.run ~jobs ?fault ~tool programs)
  in
  let job_counts = [ 1; 2; 4 ] in
  ignore (sweep ~tool:detector 1 : string);
  let plain =
    List.map
      (fun j -> (j, measure (fun () -> sweep ~tool:detector j)))
      job_counts
  in
  let bytes_of j = fst (List.assoc j plain) in
  let sample_of j = snd (List.assoc j plain) in
  let cores = Fpx_sched.Sched.recommended_jobs () in
  let speedup4 = (sample_of 1).wall_s /. max 1e-9 (sample_of 4).wall_s in
  let gate_applies = cores >= 4 in
  emit ~target:"parallel" ~title:"Domain-parallel catalog sweep"
    [ ("programs", int (List.length programs));
      ("cores", int cores);
      ( "runs",
        J.List
          (List.map
             (fun j -> J.Obj (("jobs", int j) :: sample_fields (sample_of j)))
             job_counts) );
      ("speedup_jobs4", num speedup4);
      ("speedup_gate_applied", J.Bool gate_applies) ]
    ~gates:
      [ ("identical_plain",
         List.for_all (fun j -> bytes_of j = bytes_of 1) job_counts);
        ("identical_fault",
         sweep ~fault ~tool:detector 1 = sweep ~fault ~tool:detector 4);
        ("identical_prune", sweep ~tool:pruned 1 = sweep ~tool:pruned 4);
        ("speedup_ok", (not gate_applies) || speedup4 >= 1.5) ]
    ~lines:
      (List.map
         (fun j -> Printf.sprintf "--jobs %d: %s" j (pp_sample (sample_of j)))
         job_counts
      @ [ Printf.sprintf "%d core(s) available; speedup at --jobs 4: %.2fx%s"
            cores speedup4
            (if gate_applies then "" else "  (gate skipped: < 4 cores)") ])

(* --- Differential fuzzing -------------------------------------------------- *)

(* Health of the fuzz pipeline on the pinned CI seed: the campaign
   summary byte-identical at --jobs 1 and 4, and zero organic
   discrepancies — the cross-tool oracles all agree on every generated
   kernel. A shrinker drill on an injected defect keeps the minimization
   path honest. The sequential run and the drill are timed on the
   printed lines only, so BENCH_fuzz.json stays deterministic and
   [dune runtest] can diff it. *)
let fuzz_bench () =
  let module C = Fpx_fuzz.Campaign in
  let module O = Fpx_fuzz.Oracle in
  let seed = 42 and runs = 200 in
  let campaign jobs = C.run { (C.default ~seed ~runs) with C.jobs } in
  let s1, t1 = measure (fun () -> campaign 1) in
  let s4 = campaign 4 in
  (* the minimization drill: inject a defect, shrink, and demand the
     repro collapses to the floor the defect permits (one FP site) *)
  let drill, t_drill =
    measure (fun () ->
        let s =
          C.run
            { (C.default ~seed:7 ~runs:8) with
              C.defect = Some O.Prune_mismatch
            }
        in
        List.for_all (fun (f : C.found) -> f.C.min_instrs <= 2) s.C.found
        && s.C.found <> [])
  in
  let found = List.length s1.C.found in
  emit ~target:"fuzz" ~title:"Differential fuzzing"
    [ ("seed", int seed);
      ("runs", int runs);
      ("klang_cases", int s1.C.klang_cases);
      ("organic_discrepancies", int found) ]
    ~gates:
      [ ("summary_jobs_invariant", C.summary_json s1 = C.summary_json s4);
        ("organic_clean", found = 0);
        ("shrinker_drill_pass", drill) ]
    ~lines:
      [ Printf.sprintf
          "seed %d, %d cases (%d via klang), --jobs 1: %s (%.1f execs/s)"
          seed runs s1.C.klang_cases (pp_sample t1)
          (float_of_int runs /. max 1e-9 t1.wall_s);
        Printf.sprintf "organic discrepancies %d; shrinker drill %s" found
          (pp_sample t_drill) ]

(* --- Architectural bit-flip SDC campaign ---------------------------------- *)

(* The campaign engine's acceptance gate on the pinned seed: 1000
   architectural injections (register / shared-memory / instruction
   flips) classified with zero infrastructure crashes, every injection
   in exactly one outcome class, the summary byte-identical at --jobs 1
   vs 4 and across a mid-campaign kill + --resume, plus the headline
   number — what fraction of output-corrupting flips the detector
   catches. Injection throughput is bench/e2e's campaign-sdc. *)
let sdc_bench () =
  let module C = Fpx_campaign.Campaign in
  let seed = 42 and total = 1000 in
  (* minimization off: this target checks classification and
     determinism; the corpus pipeline has its own CI exercise *)
  let cfg jobs = C.config ~jobs ~minimize:false ~seed ~total () in
  let s1 = C.run (cfg 1) in
  let s4 = C.run (cfg 4) in
  let root =
    Filename.concat (Filename.get_temp_dir_name ()) "fpx-sdc-bench"
  in
  let halted =
    C.run { (cfg 2) with C.store = Some root; C.halt_after = Some 400 }
  in
  let resumed =
    C.run { (cfg 2) with C.store = Some root; C.resume = true }
  in
  let counts =
    List.map (fun (o, n) -> (C.outcome_to_string o, n)) (C.by_outcome s1)
  in
  let catch = C.catch_rate s1 in
  emit ~target:"sdc" ~title:"Architectural SDC campaign"
    [ ("seed", int seed);
      ("total", int total);
      ("by_outcome", J.Obj (List.map (fun (o, n) -> (o, int n)) counts));
      ("catch_rate", match catch with None -> J.Null | Some r -> num r) ]
    ~gates:
      [ ("summary_jobs_invariant", C.summary_json s1 = C.summary_json s4);
        ("kill_resume_invariant", C.summary_json s1 = C.summary_json resumed);
        ("outcomes_partition_plan",
         s1.C.completed = total
         && List.fold_left (fun acc (_, n) -> acc + n) 0 counts = total);
        ("halted_at_400", halted.C.halted && halted.C.completed = 400) ]
    ~lines:
      [ Printf.sprintf "seed %d, %d injections: {%s}" seed total
          (String.concat ", "
             (List.map (fun (o, n) -> Printf.sprintf "%s %d" o n) counts));
        Printf.sprintf "detector catch rate %s"
          (match catch with
          | None -> "n/a"
          | Some r -> Printf.sprintf "%.4f" r) ]

(* --- Execution-core microbenchmark ---------------------------------------- *)

(* Instrs-per-second of the execute layer alone, per opcode class, on
   both engines. Straight-line kernel bodies (no memory traffic in the
   timed region beyond the final store) isolate the per-instruction
   interpretation cost the decode layer exists to remove; the gate is
   self-relative — the decoded engine must beat the reference
   interpreter on every class. *)
let exec_bench () =
  let module Isa = Fpx_sass.Isa in
  let module Instr = Fpx_sass.Instr in
  let module Op = Fpx_sass.Operand in
  let module Program = Fpx_sass.Program in
  let module Gpu = Fpx_gpu in
  let body_reps = 400 in
  let kernel name mk =
    let prologue =
      [ Instr.make (Isa.S2R Isa.Tid_x) [ Op.reg 14 ];
        Instr.make Isa.IMAD
          [ Op.reg 15; Op.reg 14; Op.imm_i 4l;
            Op.cbank ~bank:0 ~offset:0x160 ] ]
    in
    let body = List.concat (List.init body_reps mk) in
    let epilogue = [ Instr.make (Isa.STG Isa.W32) [ Op.reg 15; Op.reg 0 ] ] in
    Program.make ~name (prologue @ body @ epilogue)
  in
  let ffma = kernel "exec_ffma" (fun i ->
      [ Instr.make Isa.FFMA
          [ Op.reg (i land 3); Op.reg ((i + 1) land 3); Op.reg 8;
            Op.imm_f32 (Fpx_num.Fp32.of_float 1.0000001) ] ])
  in
  let dadd = kernel "exec_dadd" (fun i ->
      let d = 4 + (2 * (i land 1)) in
      [ Instr.make Isa.DADD [ Op.reg d; Op.reg d; Op.reg 8 ] ])
  in
  let mufu = kernel "exec_mufu" (fun i ->
      [ Instr.make (Isa.MUFU (if i land 1 = 0 then Isa.Rcp else Isa.Rsq))
          [ Op.reg (i land 3); Op.reg ((i + 1) land 3) ] ])
  in
  let mixed = kernel "exec_mixed" (fun i ->
      [ Instr.make Isa.FADD
          [ Op.reg (i land 3); Op.reg ((i + 1) land 3); Op.reg 8 ];
        Instr.make Isa.IADD [ Op.reg 12; Op.reg 12; Op.imm_i 3l ];
        Instr.make (Isa.ISETP { Isa.op = Isa.Lt; or_unordered = false }) [ Op.pred 0; Op.reg 12; Op.reg 13 ] ])
  in
  (* (dynamic instructions, sample) over [reps] launches after one
     warm-up launch (decode + allocate once) *)
  let time_engine
      (run :
        ?hooks:Gpu.Exec.hooks -> device:Gpu.Device.t -> grid:int ->
        block:int -> params:Gpu.Param.t list -> Program.t -> Gpu.Stats.t)
      prog =
    let dev = Gpu.Device.create () in
    let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:(4 * 512) in
    let params = [ Gpu.Param.Ptr out ] in
    let launch () = run ~device:dev ~grid:4 ~block:128 ~params prog in
    ignore (launch ());
    let reps = 5 in
    measure (fun () ->
        List.fold_left
          (fun dyn _ -> dyn + (launch ()).Gpu.Stats.dyn_instrs)
          0 (List.init reps Fun.id))
  in
  let ips (dyn, s) = float_of_int dyn /. max 1e-9 s.wall_s in
  let rows =
    List.map
      (fun (name, prog) ->
        let r = time_engine Fpx_oracle.Exec_ref.run prog in
        let d = time_engine Gpu.Exec.run prog in
        (name, r, d, ips d /. ips r))
      [ ("ffma", ffma); ("dadd", dadd); ("mufu", mufu); ("mixed", mixed) ]
  in
  let engine_json ((_, s) as t) =
    J.Obj (sample_fields s @ [ ("instrs_per_s", num ~digits:0 (ips t)) ])
  in
  emit ~target:"exec" ~title:"Execution-core microbenchmark"
    (List.map
       (fun (name, r, d, speedup) ->
         ( name,
           J.Obj
             [ ("reference", engine_json r);
               ("decoded", engine_json d);
               ("speedup", num ~digits:2 speedup) ] ))
       rows)
    ~gates:
      [ ("decoded_ge_reference",
         List.for_all (fun (_, _, _, speedup) -> speedup >= 1.0) rows) ]
    ~lines:
      (List.map
         (fun (name, r, d, speedup) ->
           Printf.sprintf
             "%-6s reference %6.2fM instrs/s, decoded %6.2fM instrs/s (%.2fx)"
             name (ips r /. 1e6) (ips d /. 1e6) speedup)
         rows)

(* --- Artefact printing --------------------------------------------------- *)

let artefact = function
  | name when List.mem name E.names -> print_string (E.report [ name ])
  | "obs" -> obs_bench ()
  | "obs2" -> obs2_bench ()
  | "resilience" -> resilience_bench ()
  | "static" -> static_bench ()
  | "parallel" -> parallel_bench ()
  | "exec" -> exec_bench ()
  | "fuzz" -> fuzz_bench ()
  | "sdc" -> sdc_bench ()
  | other ->
    Printf.eprintf "unknown target %S\n" other;
    exit 1

let gate_targets =
  [ "obs"; "obs2"; "resilience"; "static"; "parallel"; "exec"; "fuzz"; "sdc" ]

(* With no target, every artefact renders from one shared plan, then the
   gate targets run. *)
let () =
  match Array.to_list Sys.argv with
  | _ :: (_ :: _ as targets) -> List.iter artefact targets
  | _ ->
    print_string (E.report E.names);
    List.iter artefact gate_targets
