(* bench/main.exe — regenerates every table and figure of the paper's
   evaluation and times the machinery behind each with Bechamel.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe table4       # one artefact
     dune exec bench/main.exe micro        # only the micro-benchmarks

   Artefact targets: table1..table7, figure4, figure5, figure6,
   machines, ablation, summary, bechamel, micro. *)

module E = Fpx_harness.Experiments
module R = Fpx_harness.Runner
module Catalog = Fpx_workloads.Catalog
module F = Fpx_fault.Fault

(* --- Bechamel helpers --------------------------------------------------- *)

let run_bechamel tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "  %-44s %12.0f ns/run\n" name est
      | _ -> Printf.printf "  %-44s (no estimate)\n" name)
    results

let staged f = Bechamel.Staged.stage f

(* One Test.make per table/figure: each times the core computation that
   regenerates the artefact (scoped to a representative program where
   the full sweep would make Bechamel iterations impractical). *)
let artefact_tests () =
  let open Bechamel in
  let detector = R.Detector Gpu_fpx.Detector.default_config in
  let gramschm = Catalog.find "GRAMSCHM" in
  let myocyte = Catalog.find "myocyte" in
  let nbody = Catalog.find "nbody" in
  let cumf = Catalog.find "CuMF-Movielens" in
  Test.make_grouped ~name:"artefacts"
    [ Test.make ~name:"table1: opcode inventory" (staged E.table1);
      Test.make ~name:"table2: analyzer states" (staged E.table2);
      Test.make ~name:"table3: catalog listing" (staged E.table3);
      Test.make ~name:"table4: detector on GRAMSCHM"
        (staged (fun () -> R.run ~tool:detector gramschm));
      Test.make ~name:"table5: k=64 sampling on myocyte"
        (staged (fun () ->
             R.run
               ~tool:
                 (R.Detector
                    { Gpu_fpx.Detector.default_config with
                      Gpu_fpx.Detector.sampling = Gpu_fpx.Sampling.every 64 })
               myocyte));
      Test.make ~name:"table6: fast-math detector on GRAMSCHM"
        (staged (fun () ->
             R.run ~mode:Fpx_klang.Mode.fast_math ~tool:detector gramschm));
      Test.make ~name:"table7: analyzer on GRAMSCHM"
        (staged (fun () -> R.run ~tool:R.Analyzer gramschm));
      Test.make ~name:"figure4/5: BinFPE vs GPU-FPX on nbody"
        (staged (fun () ->
             ignore (R.run ~tool:R.Binfpe nbody);
             R.run ~tool:detector nbody));
      Test.make ~name:"figure6: k=256 sampling on CuMF"
        (staged (fun () ->
             R.run
               ~tool:
                 (R.Detector
                    { Gpu_fpx.Detector.default_config with
                      Gpu_fpx.Detector.sampling = Gpu_fpx.Sampling.every 256 })
               cumf)) ]

(* Detector hot-path primitives. *)
let micro_tests () =
  let open Bechamel in
  let gt = Gpu_fpx.Global_table.create () in
  let values =
    Array.init 256 (fun i -> Int32.of_int ((i * 104729) lxor 0x3f80_0000))
  in
  let prog =
    Fpx_klang.Compile.compile
      (Fpx_workloads.Kernels.saxpy "bench_saxpy" Fpx_klang.Ast.F32)
  in
  let quickrun hooks_of =
    let dev = Fpx_gpu.Device.create () in
    let rt = Fpx_nvbit.Runtime.create dev in
    hooks_of rt dev;
    let mem = dev.Fpx_gpu.Device.memory in
    let y = Fpx_gpu.Memory.alloc_zeroed mem ~bytes:(4 * 256) in
    let x = Fpx_gpu.Memory.alloc_zeroed mem ~bytes:(4 * 256) in
    fun () ->
      Fpx_nvbit.Runtime.launch rt ~grid:4 ~block:64
        ~params:
          [ Fpx_gpu.Param.Ptr y; Ptr x; F32 Fpx_num.Fp32.one; I32 256l ]
        prog
  in
  let bare = quickrun (fun _ _ -> ()) in
  let detected =
    quickrun (fun rt dev ->
        Fpx_nvbit.Runtime.attach rt
          (Gpu_fpx.Detector.tool (Gpu_fpx.Detector.create dev)))
  in
  let i = ref 0 in
  Test.make_grouped ~name:"micro"
    [ Test.make ~name:"fp32 classify" (staged (fun () ->
          incr i;
          Fpx_num.Fp32.classify values.(!i land 255)));
      Test.make ~name:"fp64 pair classify" (staged (fun () ->
          incr i;
          Fpx_num.Fp64.classify
            (Fpx_num.Fp64.of_words ~lo:values.(!i land 255)
               ~hi:values.((!i + 7) land 255))));
      Test.make ~name:"exception record encode+decode" (staged (fun () ->
          incr i;
          Gpu_fpx.Exce.decode
            (Gpu_fpx.Exce.encode ~loc:(!i land 0xffff) ~fmt:Fpx_sass.Isa.FP32
               Gpu_fpx.Exce.Nan)));
      Test.make ~name:"global-table probe" (staged (fun () ->
          incr i;
          Gpu_fpx.Global_table.test_and_set gt (!i land 0xfffff)));
      Test.make ~name:"kernel launch, uninstrumented" (staged bare);
      Test.make ~name:"kernel launch, detector attached" (staged detected) ]

(* --- Observability overhead ---------------------------------------------- *)

(* The obs hooks must be free when disabled: Sink.null (the default) is
   the seed configuration, so its modelled slowdowns must match an
   active sink's exactly (the sink never touches Stats), and the
   wall-clock cost of the disabled guards must stay in the noise. The
   geomeans per tool config plus the deltas land in BENCH_obs.json so
   future PRs get a perf trajectory. *)
let obs_bench () =
  let program_names = [ "GEMM"; "nbody"; "GRAMSCHM"; "hotspot"; "Triad" ] in
  let programs = List.map Catalog.find program_names in
  let tools =
    [ ("GPU-FPX", R.Detector Gpu_fpx.Detector.default_config);
      ("BinFPE", R.Binfpe);
      ("GPU-FPX analyzer", R.Analyzer) ]
  in
  let geo make_obs tool =
    R.geomean
      (List.map
         (fun w -> (R.run ~obs:(make_obs ()) ~tool w).R.slowdown)
         programs)
  in
  let reps = 3 in
  let timed_geo make_obs tool =
    let g = ref 1.0 and acc = ref 0.0 in
    for _ = 1 to reps do
      let t0 = Sys.time () in
      g := geo make_obs tool;
      acc := !acc +. (Sys.time () -. t0)
    done;
    (!g, !acc /. float_of_int reps)
  in
  let rows =
    List.map
      (fun (name, tool) ->
        let g_null, wall_null =
          timed_geo (fun () -> Fpx_obs.Sink.null) tool
        in
        let g_active, wall_active =
          timed_geo (fun () -> Fpx_obs.Sink.create ()) tool
        in
        let model_delta = abs_float (g_active -. g_null) /. g_null in
        (name, g_null, g_active, model_delta, wall_null, wall_active))
      tools
  in
  let max_delta =
    List.fold_left (fun a (_, _, _, d, _, _) -> max a d) 0.0 rows
  in
  (* An active sink does real work (ring pushes, metric updates), so its
     wall-clock cost is gated too — generously, because these runs last
     ~0.1s and shared-CI wall clocks are noisy. The model gate stays
     tight: slowdown numbers must not move at all. *)
  let wall_delta (_, _, _, _, wn, wa) = (wa -. wn) /. max 1e-9 wn in
  let max_wall_delta =
    List.fold_left (fun a r -> max a (wall_delta r)) 0.0 rows
  in
  let wall_budget = 0.5 in
  let pass_model = max_delta < 0.02 in
  let pass_wall = max_wall_delta < wall_budget in
  let pass = pass_model && pass_wall in
  let row_json ((name, g_null, g_active, delta, wn, wa) as r) =
    Printf.sprintf
      "{\"tool\":\"%s\",\"geomean_slowdown_obs_null\":%.6f,\"geomean_slowdown_obs_active\":%.6f,\"model_delta\":%.6f,\"wall_s_obs_null\":%.4f,\"wall_s_obs_active\":%.4f,\"wall_delta\":%.6f}"
      name g_null g_active delta wn wa (wall_delta r)
  in
  let json =
    Printf.sprintf
      "{\"programs\":[%s],\"reps\":%d,\"tools\":[%s],\"obs_null_max_model_delta\":%.6f,\"max_wall_delta\":%.6f,\"wall_delta_budget\":%.2f,\"pass_lt_2pct\":%b,\"pass_wall\":%b,\"pass\":%b}\n"
      (String.concat "," (List.map (Printf.sprintf "\"%s\"") program_names))
      reps
      (String.concat "," (List.map row_json rows))
      max_delta max_wall_delta wall_budget pass_model pass_wall pass
  in
  let oc = open_out "BENCH_obs.json" in
  output_string oc json;
  close_out oc;
  print_string (Fpx_harness.Ascii.section "Observability overhead");
  List.iter
    (fun ((name, g_null, g_active, delta, wn, wa) as r) ->
      Printf.printf
        "  %-18s geomean slowdown %.4fx (obs null) / %.4fx (obs active), \
         model delta %.4f%%, wall %.3fs -> %.3fs (%+.1f%%)\n"
        name g_null g_active (100.0 *. delta) wn wa
        (100.0 *. wall_delta r))
    rows;
  Printf.printf
    "  max model delta %.4f%% -> %s; max wall delta %+.1f%% -> %s \
     (BENCH_obs.json written)\n"
    (100.0 *. max_delta)
    (if pass_model then "PASS (< 2%)" else "FAIL (>= 2%)")
    (100.0 *. max_wall_delta)
    (if pass_wall then
       Printf.sprintf "PASS (< %.0f%%)" (100.0 *. wall_budget)
     else Printf.sprintf "FAIL (>= %.0f%%)" (100.0 *. wall_budget));
  if not pass then exit 1

(* --- Span tracing overhead & self-diagnosis ------------------------------- *)

(* Two halves. (a) The span guards woven through Sched/Runner/Runtime
   must be free when no recorder is installed: the instrumented engine
   path (Sweep.run, every guard live) is timed against a bare List.map
   over the same runs, min-of-reps, and the delta is gated at < 2%.
   (b) With a recorder installed, sweeps at jobs=1 and jobs=4 feed
   Domprof: the per-phase breakdowns, the dominant-overhead verdict,
   the Chrome trace and the flamegraph all land next to the JSON so
   every CI run archives a scheduler profile. Lands in BENCH_obs2.json
   (+ BENCH_obs2_trace.json, BENCH_obs2_flame.folded). *)
let obs2_bench () =
  let module Sweep = Fpx_harness.Sweep in
  let module Span = Fpx_obs.Span in
  let module Domprof = Fpx_obs.Domprof in
  let program_names = [ "GEMM"; "nbody"; "GRAMSCHM"; "hotspot"; "Triad" ] in
  let programs = List.map Catalog.find program_names in
  let detector = R.Detector Gpu_fpx.Detector.default_config in
  let reps = 7 in
  let min_wall f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      f ();
      best := min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  assert (not (Span.enabled ()));
  let wall_plain =
    min_wall (fun () ->
        ignore
          (List.map (fun w -> R.run ~tool:detector w) programs
            : R.measurement list))
  in
  let wall_guarded =
    min_wall (fun () ->
        ignore (Sweep.run ~jobs:1 ~tool:detector programs : R.measurement list))
  in
  let disabled_delta = (wall_guarded -. wall_plain) /. max 1e-9 wall_plain in
  let pass_disabled = disabled_delta < 0.02 in
  let measure jobs =
    let recorder = Span.create () in
    let t0 = Unix.gettimeofday () in
    Span.with_installed recorder (fun () ->
        let ms = Sweep.run ~jobs ~tool:detector programs in
        ignore (Sweep.report_json ms : string));
    let wall_s = Unix.gettimeofday () -. t0 in
    (recorder, Domprof.of_spans ~jobs ~wall_s recorder)
  in
  let _, base = measure 1 in
  let recorder4, target = measure 4 in
  let d = Domprof.diagnose ~base ~target in
  let enabled_delta =
    (base.Domprof.wall_s -. wall_guarded) /. max 1e-9 wall_guarded
  in
  let verdict_ok = d.Domprof.verdict <> "" in
  let pass = pass_disabled && verdict_ok in
  let write path s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  write "BENCH_obs2_trace.json" (Span.to_chrome_json recorder4);
  write "BENCH_obs2_flame.folded" (Span.to_collapsed recorder4);
  write "BENCH_obs2.json"
    (Printf.sprintf
       "{\"programs\":[%s],\"reps\":%d,\"wall_s_plain\":%.4f,\"wall_s_guarded\":%.4f,\"disabled_wall_delta\":%.6f,\"pass_disabled_lt_2pct\":%b,\"enabled_wall_delta\":%.6f,\"diagnosis\":%s,\"verdict_nonempty\":%b,\"pass\":%b}\n"
       (String.concat "," (List.map (Printf.sprintf "\"%s\"") program_names))
       reps wall_plain wall_guarded disabled_delta pass_disabled enabled_delta
       (String.trim (Domprof.diagnosis_json d))
       verdict_ok pass);
  print_string (Fpx_harness.Ascii.section "Span tracing overhead");
  Printf.printf
    "  spans disabled: %.4fs bare vs %.4fs guarded (min of %d) -> %+.2f%% \
     -> %s\n"
    wall_plain wall_guarded reps
    (100.0 *. disabled_delta)
    (if pass_disabled then "PASS (< 2%)" else "FAIL (>= 2%)");
  Printf.printf
    "  spans enabled: jobs=1 wall %.3fs (%+.1f%% vs disabled), jobs=4 wall \
     %.3fs, %d spans on %d track(s), %d dropped\n"
    base.Domprof.wall_s
    (100.0 *. enabled_delta)
    target.Domprof.wall_s target.Domprof.spans_recorded target.Domprof.tracks
    target.Domprof.spans_dropped;
  Printf.printf "  %s\n" d.Domprof.verdict;
  Printf.printf
    "  BENCH_obs2.json, BENCH_obs2_trace.json, BENCH_obs2_flame.folded \
     written -> %s\n"
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

(* --- Fault injection & resilience ---------------------------------------- *)

(* A fault-rate × tool matrix on myocyte, the chatty workload from §4.2:
   under the identical seeded plan, BinFPE's unfiltered record flood
   trips the launch watchdog (Hung, partial records intact) while the
   detector's GT dedup keeps it under budget and it completes merely
   Degraded. Also pins determinism (same seed ⇒ byte-identical
   measurement JSON) and that a no-fault run still matches the golden
   detector report. Results land in BENCH_resilience.json. *)
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
        name <> "BinFPE" || (m.R.status = R.Hung && m.R.records > 0))
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
           | R.Hung | R.Faulted _ -> false))
      rows
  in
  let baseline_unchanged =
    (* a run without any fault plan must still match the golden detector
       report — injection machinery is zero-impact when absent *)
    let golden = Filename.concat (Filename.concat "test" "golden")
        "gramschm_detect.json"
    in
    if not (Sys.file_exists golden) then true
    else begin
      let ic = open_in_bin golden in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let m =
        R.run ~tool:(R.Detector Gpu_fpx.Detector.default_config)
          (Catalog.find "GRAMSCHM")
      in
      String.trim s = String.trim (R.to_json m)
    end
  in
  let pass =
    deterministic && binfpe_hangs && detector_survives && baseline_unchanged
  in
  let row_json (name, _, rate, m) =
    Printf.sprintf
      "{\"tool\":\"%s\",\"fault_rate\":%.3f,\"status\":\"%s\",\"status_detail\":%s,\"slowdown\":%.4f,\"records\":%d,\"total_exceptions\":%d}"
      name rate
      (R.status_to_string m.R.status)
      (Fpx_obs.Json.quote (R.status_detail m.R.status))
      m.R.slowdown m.R.records m.R.total_exceptions
  in
  let json =
    Printf.sprintf
      "{\"program\":\"myocyte\",\"seed\":%d,\"rates\":[%s],\"rows\":[%s],\"deterministic\":%b,\"binfpe_hangs\":%b,\"detector_survives\":%b,\"baseline_unchanged\":%b,\"pass\":%b}\n"
      seed
      (String.concat "," (List.map (Printf.sprintf "%.3f") rates))
      (String.concat "," (List.map row_json rows))
      deterministic binfpe_hangs detector_survives baseline_unchanged pass
  in
  let oc = open_out "BENCH_resilience.json" in
  output_string oc json;
  close_out oc;
  print_string (Fpx_harness.Ascii.section "Fault injection & resilience");
  List.iter
    (fun (name, _, rate, m) ->
      Printf.printf
        "  %-8s rate %.3f: %-9s slowdown %9.2fx, %6d records, %2d \
         exception site(s)%s\n"
        name rate
        (R.status_to_string m.R.status)
        m.R.slowdown m.R.records m.R.total_exceptions
        (match R.status_detail m.R.status with
        | "" -> ""
        | d -> "  [" ^ d ^ "]"))
    rows;
  Printf.printf
    "  deterministic %b, binfpe hangs %b, detector survives %b, baseline \
     unchanged %b -> %s (BENCH_resilience.json written)\n"
    deterministic binfpe_hangs detector_survives baseline_unchanged
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

(* --- Static pruning ------------------------------------------------------ *)

(* The static analyzer's promise is "fewer injections, identical
   reports". Quantify it over the full catalog: per program, run the
   detector with and without --static-prune and compare (a) the
   byte-level detector log — must be identical, pruned checks were
   provable no-ops — and (b) the modelled slowdown — must never grow,
   and must strictly shrink in aggregate. Also count the statically
   provably-clean sites across every kernel. Lands in BENCH_static.json. *)
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
  let logs_identical =
    List.for_all (fun (_, m0, m1) -> m0.R.log = m1.R.log) rows
  in
  let never_slower =
    List.for_all (fun (_, m0, m1) -> m1.R.slowdown <= m0.R.slowdown +. 1e-9) rows
  in
  let g0 = R.geomean (List.map (fun (_, m0, _) -> m0.R.slowdown) rows) in
  let g1 = R.geomean (List.map (fun (_, _, m1) -> m1.R.slowdown) rows) in
  let sites_pruned_somewhere = !total_clean > 0 in
  let strictly_reduced = g1 < g0 in
  let pass =
    logs_identical && never_slower && sites_pruned_somewhere
    && strictly_reduced
  in
  let row_json (name, m0, m1) =
    Printf.sprintf
      "{\"program\":%s,\"slowdown\":%.4f,\"slowdown_pruned\":%.4f,\"log_identical\":%b}"
      (Fpx_obs.Json.quote name) m0.R.slowdown m1.R.slowdown
      (m0.R.log = m1.R.log)
  in
  let json =
    Printf.sprintf
      "{\"programs\":%d,\"static_sites\":%d,\"static_provably_clean\":%d,\"geomean_slowdown\":%.4f,\"geomean_slowdown_pruned\":%.4f,\"logs_identical\":%b,\"never_slower\":%b,\"strictly_reduced\":%b,\"pass\":%b,\"rows\":[%s]}\n"
      (List.length programs) !total_sites !total_clean g0 g1 logs_identical
      never_slower strictly_reduced pass
      (String.concat "," (List.map row_json rows))
  in
  let oc = open_out "BENCH_static.json" in
  output_string oc json;
  close_out oc;
  print_string (Fpx_harness.Ascii.section "Static instrumentation pruning");
  Printf.printf
    "  %d instrumentable sites across the catalog, %d provably clean \
     (%.1f%%)\n"
    !total_sites !total_clean
    (100.0 *. float_of_int !total_clean /. float_of_int (max 1 !total_sites));
  Printf.printf
    "  geomean modelled slowdown %.4fx -> %.4fx under --static-prune\n" g0 g1;
  let moved =
    List.filter (fun (_, m0, m1) -> m1.R.slowdown < m0.R.slowdown -. 1e-9) rows
  in
  Printf.printf "  %d program(s) got strictly cheaper; the biggest wins:\n"
    (List.length moved);
  List.iteri
    (fun i (name, m0, m1) ->
      if i < 5 then
        Printf.printf "    %-24s %.2fx -> %.2fx\n" name m0.R.slowdown
          m1.R.slowdown)
    (List.sort
       (fun (_, a0, a1) (_, b0, b1) ->
         compare
           (b0.R.slowdown -. b1.R.slowdown)
           (a0.R.slowdown -. a1.R.slowdown))
       moved);
  Printf.printf
    "  logs identical %b, never slower %b, pruned > 0 %b, strictly \
     reduced %b -> %s (BENCH_static.json written)\n"
    logs_identical never_slower sites_pruned_somewhere strictly_reduced
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

(* --- Domain-parallel sweep ------------------------------------------------ *)

(* The scheduler's contract is "same bytes, less wall-clock". Check both
   halves over the full catalog: the detector sweep report at --jobs
   2/4 must equal the sequential bytes (also under a seeded fault plan
   and under --static-prune), and on a machine with >= 4 cores the
   4-domain sweep must be >= 1.5x faster than sequential. On smaller
   machines the speedup gate is recorded but not enforced — there is
   nothing to win with one core. Lands in BENCH_parallel.json. *)
let parallel_bench () =
  let module Sweep = Fpx_harness.Sweep in
  let module Sched = Fpx_sched.Sched in
  let programs = Catalog.evaluated in
  let detector = R.Detector Gpu_fpx.Detector.default_config in
  let pruned =
    R.Detector
      { Gpu_fpx.Detector.default_config with Gpu_fpx.Detector.static_prune = true }
  in
  let fault = F.spec ~sites:F.all_sites ~rate:0.02 ~seed:20230805 () in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let sweep ?fault ~tool jobs =
    timed (fun () -> Sweep.report_json (Sweep.run ~jobs ?fault ~tool programs))
  in
  let job_counts = [ 1; 2; 4 ] in
  let plain =
    List.map (fun j -> (j, sweep ~tool:detector j)) job_counts
  in
  let bytes_of j = fst (List.assoc j plain) in
  let wall_of j = snd (List.assoc j plain) in
  let identical_plain =
    List.for_all (fun j -> bytes_of j = bytes_of 1) job_counts
  in
  let fault1, _ = sweep ~fault ~tool:detector 1 in
  let fault4, _ = sweep ~fault ~tool:detector 4 in
  let identical_fault = fault1 = fault4 in
  let prune1, _ = sweep ~tool:pruned 1 in
  let prune4, _ = sweep ~tool:pruned 4 in
  let identical_prune = prune1 = prune4 in
  let cores = Sched.recommended_jobs () in
  let speedup4 = wall_of 1 /. max 1e-9 (wall_of 4) in
  let gate_applies = cores >= 4 in
  let speedup_ok = (not gate_applies) || speedup4 >= 1.5 in
  let pass = identical_plain && identical_fault && identical_prune && speedup_ok in
  let json =
    Printf.sprintf
      "{\"programs\":%d,\"cores\":%d,\"runs\":[%s],\"speedup_jobs4\":%.4f,\"speedup_gate_applied\":%b,\"identical_plain\":%b,\"identical_fault\":%b,\"identical_prune\":%b,\"pass\":%b}\n"
      (List.length programs) cores
      (String.concat ","
         (List.map
            (fun j ->
              Printf.sprintf "{\"jobs\":%d,\"wall_s\":%.4f}" j (wall_of j))
            job_counts))
      speedup4 gate_applies identical_plain identical_fault identical_prune
      pass
  in
  let oc = open_out "BENCH_parallel.json" in
  output_string oc json;
  close_out oc;
  print_string (Fpx_harness.Ascii.section "Domain-parallel catalog sweep");
  List.iter
    (fun j -> Printf.printf "  --jobs %d: %.3fs wall\n" j (wall_of j))
    job_counts;
  Printf.printf
    "  %d core(s) available; speedup at --jobs 4: %.2fx%s\n" cores speedup4
    (if gate_applies then "" else "  (gate skipped: < 4 cores)");
  Printf.printf
    "  report bytes identical across jobs: plain %b, fault-seeded %b, \
     static-prune %b -> %s (BENCH_parallel.json written)\n"
    identical_plain identical_fault identical_prune
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

(* --- Differential fuzzing -------------------------------------------------- *)

(* Throughput and health of the fuzz pipeline on the pinned CI seed:
   execs/sec at --jobs 1 and 4 (each case is ~6 tool runs), the
   campaign summary byte-identical across job counts, and zero organic
   discrepancies — the cross-tool oracles all agree on every generated
   kernel. A shrinker drill on an injected defect keeps the
   minimization path honest. Lands in BENCH_fuzz.json. *)
let fuzz_bench () =
  let module C = Fpx_fuzz.Campaign in
  let module O = Fpx_fuzz.Oracle in
  let seed = 42 and runs = 200 in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let campaign jobs =
    timed (fun () -> C.run { (C.default ~seed ~runs) with C.jobs })
  in
  let s1, wall1 = campaign 1 in
  let s4, wall4 = campaign 4 in
  let identical = C.summary_json s1 = C.summary_json s4 in
  let clean = s1.C.found = [] in
  let eps j w = float_of_int j /. max 1e-9 w in
  (* the minimization drill: inject a defect, shrink, and demand the
     repro collapses to the floor the defect permits (one FP site) *)
  let drill, wall_drill =
    timed (fun () ->
        let s =
          C.run
            { (C.default ~seed:7 ~runs:8) with
              C.defect = Some O.Prune_mismatch
            }
        in
        List.for_all (fun (f : C.found) -> f.C.min_instrs <= 2) s.C.found
        && s.C.found <> [])
  in
  let pass = identical && clean && drill in
  let json =
    Printf.sprintf
      "{\"seed\":%d,\"runs\":%d,\"klang_cases\":%d,\"wall_s_jobs1\":%.4f,\"wall_s_jobs4\":%.4f,\"execs_per_s_jobs1\":%.2f,\"execs_per_s_jobs4\":%.2f,\"summary_jobs_invariant\":%b,\"organic_discrepancies\":%d,\"shrinker_drill_pass\":%b,\"wall_s_drill\":%.4f,\"pass\":%b}\n"
      seed runs s1.C.klang_cases wall1 wall4
      (eps runs wall1) (eps runs wall4) identical
      (List.length s1.C.found) drill wall_drill pass
  in
  let oc = open_out "BENCH_fuzz.json" in
  output_string oc json;
  close_out oc;
  print_string (Fpx_harness.Ascii.section "Differential fuzzing");
  Printf.printf
    "  seed %d, %d cases (%d via klang): %.1f execs/s at --jobs 1, %.1f at \
     --jobs 4\n"
    seed runs s1.C.klang_cases (eps runs wall1) (eps runs wall4);
  Printf.printf
    "  summary jobs-invariant %b, organic discrepancies %d, shrinker drill \
     %b -> %s (BENCH_fuzz.json written)\n"
    identical (List.length s1.C.found) drill
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

(* --- Architectural bit-flip SDC campaign ---------------------------------- *)

(* The campaign engine's acceptance gate on the pinned seed: 1000
   architectural injections (register / shared-memory / instruction
   flips) classified with zero infrastructure crashes, every injection
   in exactly one outcome class, the summary byte-identical at --jobs 1
   vs 4 and across a mid-campaign kill + --resume, plus the headline
   number — what fraction of output-corrupting flips the detector
   catches. Lands in BENCH_sdc.json. *)
let sdc_bench () =
  let module C = Fpx_campaign.Campaign in
  let seed = 42 and total = 1000 in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  (* minimization off: this target measures classification throughput
     and determinism; the corpus pipeline has its own CI exercise *)
  let cfg jobs = C.config ~jobs ~minimize:false ~seed ~total () in
  let s1, wall1 = timed (fun () -> C.run (cfg 1)) in
  let s4, wall4 = timed (fun () -> C.run (cfg 4)) in
  let identical = C.summary_json s1 = C.summary_json s4 in
  let root =
    Filename.concat (Filename.get_temp_dir_name ()) "fpx-sdc-bench"
  in
  let halted =
    C.run { (cfg 2) with C.store = Some root; C.halt_after = Some 400 }
  in
  let resumed =
    C.run { (cfg 2) with C.store = Some root; C.resume = true }
  in
  let resume_identical = C.summary_json s1 = C.summary_json resumed in
  let partitioned =
    s1.C.completed = total
    && List.fold_left (fun acc (_, n) -> acc + n) 0 (C.by_outcome s1) = total
  in
  let ips w = float_of_int total /. max 1e-9 w in
  let counts =
    String.concat ","
      (List.map
         (fun (o, n) ->
           Printf.sprintf "\"%s\":%d" (C.outcome_to_string o) n)
         (C.by_outcome s1))
  in
  let catch = C.catch_rate s1 in
  let pass =
    identical && resume_identical && partitioned && halted.C.halted
    && halted.C.completed = 400
  in
  let json =
    Printf.sprintf
      "{\"seed\":%d,\"total\":%d,\"by_outcome\":{%s},\"catch_rate\":%s,\"wall_s_jobs1\":%.2f,\"wall_s_jobs4\":%.2f,\"inj_per_s_jobs1\":%.2f,\"inj_per_s_jobs4\":%.2f,\"summary_jobs_invariant\":%b,\"kill_resume_invariant\":%b,\"outcomes_partition_plan\":%b,\"pass\":%b}\n"
      seed total counts
      (match catch with
      | None -> "null"
      | Some r -> Printf.sprintf "%.4f" r)
      wall1 wall4 (ips wall1) (ips wall4) identical resume_identical
      partitioned pass
  in
  let oc = open_out "BENCH_sdc.json" in
  output_string oc json;
  close_out oc;
  print_string (Fpx_harness.Ascii.section "Architectural SDC campaign");
  Printf.printf
    "  seed %d, %d injections: %.1f inj/s at --jobs 1, %.1f at --jobs 4\n"
    seed total (ips wall1) (ips wall4);
  Printf.printf "  outcomes {%s}\n" counts;
  Printf.printf
    "  detector catch rate %s, jobs-invariant %b, kill+resume invariant %b \
     -> %s (BENCH_sdc.json written)\n"
    (match catch with
    | None -> "n/a"
    | Some r -> Printf.sprintf "%.4f" r)
    identical resume_identical
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

(* --- Persistent service ---------------------------------------------------- *)

(* Serve-path benchmark: a real daemon on a Unix socket, driven through
   the real client. Measures fresh-vs-cached latency (p50/p99), cached
   request throughput, verifies the cache hit ratio is exactly 1.0 on
   repeats with byte-identical responses, and drills admission control
   on a deliberately starved second server: every flooded request must
   come back `degraded`, none may hang. Lands in BENCH_serve.json. *)
let serve_bench () =
  let module Server = Fpx_serve.Server in
  let module Client = Fpx_serve.Client in
  let module J = Fpx_obs.Json in
  let sock_path tag =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fpx-bench-%s-%d.sock" tag (Unix.getpid ()))
  in
  let start ~config tag =
    let t = Server.create ~config () in
    let path = sock_path tag in
    if Sys.file_exists path then Sys.remove path;
    let th = Thread.create (fun () -> Server.serve ~unix_socket:path t) () in
    let rec wait n =
      if n > 200 then failwith "serve_bench: daemon did not come up";
      if not (Sys.file_exists path) then begin
        Thread.delay 0.02;
        wait (n + 1)
      end
    in
    wait 0;
    (t, path, th)
  in
  let stop t th =
    Server.stop t;
    Thread.join th;
    Server.shutdown t
  in
  let req_of p =
    J.to_string (J.Obj [ ("op", J.Str "submit"); ("program", J.Str p) ])
  in
  let one path req =
    let c = Client.connect_unix path in
    let t0 = Unix.gettimeofday () in
    let resp = Client.request c req in
    let dt = Unix.gettimeofday () -. t0 in
    Client.close c;
    (resp, dt)
  in
  let stats_field path f =
    let resp, _ =
      one path (J.to_string (J.Obj [ ("op", J.Str "stats") ]))
    in
    match J.member "payload" (J.parse resp) with
    | Some payload -> Option.value ~default:(-1) (J.int_field f payload)
    | None -> -1
  in
  let percentile xs p =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(min (Array.length a - 1) (int_of_float (p *. float_of_int (Array.length a))))
  in
  let programs = [ "Triad"; "GEMM"; "hotspot"; "backprop"; "Stencil2D" ] in
  let t, path, th =
    start
      ~config:
        { Server.default_config with Server.jobs = 2; cache_capacity = 64 }
      "main"
  in
  (* fresh round: every program computes *)
  let fresh = List.map (fun p -> one path (req_of p)) programs in
  let fresh_lat = List.map snd fresh in
  let hits0 = stats_field path "cache_hits" in
  let misses0 = stats_field path "cache_misses" in
  (* cached rounds: round-robin repeats, all must hit *)
  let rounds = 40 in
  let t0 = Unix.gettimeofday () in
  let cached =
    List.concat_map
      (fun _ ->
        List.map
          (fun p ->
            let r, dt = one path (req_of p) in
            (p, r, dt))
          programs)
      (List.init rounds Fun.id)
  in
  let cached_wall = Unix.gettimeofday () -. t0 in
  let hits1 = stats_field path "cache_hits" in
  let misses1 = stats_field path "cache_misses" in
  let n_cached = rounds * List.length programs in
  let hit_ratio =
    float_of_int (hits1 - hits0)
    /. float_of_int (max 1 (hits1 - hits0 + (misses1 - misses0)))
  in
  let fresh_by_prog = List.combine programs (List.map fst fresh) in
  let byte_identical =
    List.for_all (fun (p, r, _) -> r = List.assoc p fresh_by_prog) cached
  in
  let req_per_sec = float_of_int n_cached /. max 1e-9 cached_wall in
  let lat = List.map (fun (_, _, dt) -> dt) cached in
  let p50 = percentile lat 0.50 and p99 = percentile lat 0.99 in
  stop t th;
  (* overload drill: 1 worker, zero queue; a burn occupies the worker
     while novel submissions flood in — all must shed, none may hang *)
  let t2, path2, th2 =
    start
      ~config:{ Server.default_config with Server.jobs = 1; queue = 0 }
      "load"
  in
  let burner =
    Thread.create
      (fun () ->
        ignore
          (one path2
             (J.to_string
                (J.Obj [ ("op", J.Str "burn"); ("ms", J.Num 600.) ]))))
      ()
  in
  Thread.delay 0.1;
  let flood = List.init 6 (fun _ -> fst (one path2 (req_of "GEMM"))) in
  let degraded =
    List.length
      (List.filter
         (fun r -> J.str_field "status" (J.parse r) = Some "degraded")
         flood)
  in
  let all_returned = List.length flood = 6 in
  Thread.join burner;
  (* recovery: once the worker frees up, the same submission succeeds *)
  let recovered =
    let rec try_again n =
      if n > 50 then false
      else
        let r, _ = one path2 (req_of "GEMM") in
        match J.str_field "status" (J.parse r) with
        | Some "ok" -> true
        | _ ->
          Thread.delay 0.1;
          try_again (n + 1)
    in
    try_again 0
  in
  stop t2 th2;
  let pass =
    hit_ratio = 1.0 && byte_identical && degraded > 0 && all_returned
    && recovered
  in
  let json =
    Printf.sprintf
      "{\"programs\":%d,\"cached_requests\":%d,\"req_per_sec\":%.1f,\"latency_p50_ms\":%.3f,\"latency_p99_ms\":%.3f,\"fresh_mean_ms\":%.3f,\"cache_hit_ratio\":%.4f,\"byte_identical\":%b,\"overload_degraded\":%d,\"overload_all_returned\":%b,\"overload_recovered\":%b,\"pass\":%b}\n"
      (List.length programs) n_cached req_per_sec (p50 *. 1e3) (p99 *. 1e3)
      (1e3 *. List.fold_left ( +. ) 0. fresh_lat
       /. float_of_int (List.length fresh_lat))
      hit_ratio byte_identical degraded all_returned recovered pass
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc json;
  close_out oc;
  print_string (Fpx_harness.Ascii.section "Persistent analysis service");
  Printf.printf
    "  %d cached req: %.0f req/s, p50 %.2fms, p99 %.2fms (fresh mean %.2fms)\n"
    n_cached req_per_sec (p50 *. 1e3) (p99 *. 1e3)
    (1e3 *. List.fold_left ( +. ) 0. fresh_lat
     /. float_of_int (List.length fresh_lat));
  Printf.printf
    "  hit ratio %.2f, cached==fresh bytes %b; overload: %d/6 degraded, \
     all returned %b, recovered %b -> %s (BENCH_serve.json written)\n"
    hit_ratio byte_identical degraded all_returned recovered
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

(* --- Raw throughput -------------------------------------------------------- *)

(* Simulated-instructions-per-second over the full evaluated catalog,
   sequential, uninstrumented and under the detector. Byte-identity
   across --jobs is gated by the [parallel] target. Lands in
   BENCH_throughput.json. *)
let throughput_bench () =
  let module Sweep = Fpx_harness.Sweep in
  let programs = Catalog.evaluated in
  let detector = R.Detector Gpu_fpx.Detector.default_config in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let instrs ms =
    List.fold_left (fun a (m : R.measurement) -> a + m.R.dyn_instrs) 0 ms
  in
  let seq_none, seq_none_wall = timed (fun () -> Sweep.run ~tool:R.No_tool programs) in
  let seq_det, seq_det_wall = timed (fun () -> Sweep.run ~tool:detector programs) in
  let n_instrs = instrs seq_none in
  let ips_none = float_of_int n_instrs /. max 1e-9 seq_none_wall in
  let ips_det = float_of_int (instrs seq_det) /. max 1e-9 seq_det_wall in
  let pass = n_instrs > 0 in
  let json =
    Printf.sprintf
      "{\"programs\":%d,\"dyn_instrs\":%d,\"instrs_per_sec_no_tool\":%.0f,\"instrs_per_sec_detector\":%.0f,\"wall_s_no_tool\":%.4f,\"wall_s_detector\":%.4f,\"pass\":%b}\n"
      (List.length programs) n_instrs ips_none ips_det seq_none_wall
      seq_det_wall pass
  in
  let oc = open_out "BENCH_throughput.json" in
  output_string oc json;
  close_out oc;
  print_string (Fpx_harness.Ascii.section "Simulator throughput");
  Printf.printf
    "  %d programs, %d simulated instrs\n  no-tool %.2fM instrs/s \
     (%.3fs), detector %.2fM instrs/s (%.3fs) -> %s (BENCH_throughput.json \
     written)\n"
    (List.length programs) n_instrs (ips_none /. 1e6) seq_none_wall
    (ips_det /. 1e6) seq_det_wall
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

(* --- Execution-core microbenchmark ---------------------------------------- *)

(* Instrs-per-second of the execute layer alone, per opcode class, on
   both engines. Straight-line kernel bodies (no memory traffic in the
   timed region beyond the final store) isolate the per-instruction
   interpretation cost the decode layer exists to remove; the gate is
   self-relative — the decoded engine must beat the reference
   interpreter on every class. Lands in BENCH_exec.json. *)
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
  let time_engine
      (run :
        ?hooks:Gpu.Exec.hooks -> ?max_dyn_instrs:int ->
        device:Gpu.Device.t -> grid:int -> block:int ->
        params:Gpu.Param.t list -> Program.t -> Gpu.Stats.t) prog =
    let dev = Gpu.Device.create () in
    let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:(4 * 512) in
    let params = [ Gpu.Param.Ptr out ] in
    let launch () = run ~device:dev ~grid:4 ~block:128 ~params prog in
    ignore (launch ());
    (* warm: decode + allocate once *)
    let t0 = Unix.gettimeofday () in
    let reps = 5 in
    let dyn = ref 0 in
    for _ = 1 to reps do
      let st = launch () in
      dyn := !dyn + st.Gpu.Stats.dyn_instrs
    done;
    let wall = Unix.gettimeofday () -. t0 in
    float_of_int !dyn /. max 1e-9 wall
  in
  let classes = [ ("ffma", ffma); ("dadd", dadd); ("mufu", mufu);
                  ("mixed", mixed) ] in
  let rows =
    List.map
      (fun (name, prog) ->
        let ips_ref = time_engine Fpx_oracle.Exec_ref.run prog in
        let ips_dec = time_engine Gpu.Exec.run prog in
        (name, ips_ref, ips_dec, ips_dec /. ips_ref))
      classes
  in
  let pass = List.for_all (fun (_, _, _, s) -> s >= 1.0) rows in
  let json =
    Printf.sprintf "{%s,\"pass\":%b}\n"
      (String.concat ","
         (List.map
            (fun (name, r, d, s) ->
              Printf.sprintf
                "\"%s\":{\"instrs_per_sec_reference\":%.0f,\"instrs_per_sec_decoded\":%.0f,\"speedup\":%.2f}"
                name r d s)
            rows))
      pass
  in
  let oc = open_out "BENCH_exec.json" in
  output_string oc json;
  close_out oc;
  print_string (Fpx_harness.Ascii.section "Execution-core microbenchmark");
  List.iter
    (fun (name, r, d, s) ->
      Printf.printf "  %-6s reference %6.2fM instrs/s, decoded %6.2fM instrs/s (%.2fx)\n"
        name (r /. 1e6) (d /. 1e6) s)
    rows;
  Printf.printf "  decoded >= reference on every class: %b -> %s (BENCH_exec.json written)\n"
    pass (if pass then "PASS" else "FAIL");
  if not pass then exit 1

(* --- Multi-tenant isolation bench ----------------------------------------- *)

(* The tenancy gate: a record-flooding BinFPE neighbour (hotspot) is
   co-run against a detector-carrying victim (myocyte). Unpartitioned,
   the interference must be measurable — the victim loses cycles to
   contention and findings to throttled channel drains, so its
   exception report differs from solo. Under compute+memory
   partitioning the victim's report must come back byte-identical to
   running alone, and the whole co-run must replay byte-identically.
   Lands in BENCH_tenancy.json. *)
let tenancy_bench () =
  let module Mt = Fpx_tenancy.Mt in
  let module Tenant = Fpx_tenancy.Tenant in
  let module Bw = Fpx_gpu.Bandwidth in
  let backoff =
    R.Detector { Gpu_fpx.Detector.default_config with adaptive_backoff = true }
  in
  let victim =
    Tenant.make ~tool:backoff ~slot_share:0.5 ~mem_share:0.5
      ~program:"myocyte" "victim"
  in
  let aggressor =
    Tenant.make ~tool:R.Binfpe ~slot_share:0.5 ~mem_share:0.5
      ~program:"hotspot" "aggressor"
  in
  let tenants = [ aggressor; victim ] in
  let solo = Mt.solo victim in
  let run p = Mt.run ~partition:p tenants in
  let shared = run Bw.No_partition in
  let fenced = run Bw.Compute_memory in
  let victim_of (r : Mt.result) =
    List.find
      (fun (o : Mt.outcome) -> o.Mt.tenant.Tenant.id = "victim")
      r.Mt.outcomes
  in
  let sv = victim_of shared and fv = victim_of fenced in
  let solo_report = Mt.report_text solo in
  (* gate (b): unpartitioned interference is measurable and corrupts
     the victim's findings *)
  let interference =
    sv.Mt.contention_cycles > 0
    && sv.Mt.records_stranded > 0
    && Mt.report_text sv <> solo_report
  in
  (* gate (a): compute+memory partitioning restores the solo report *)
  let isolated =
    Mt.report_text fv = solo_report
    && fv.Mt.contention_cycles = 0
    && fv.Mt.drains_delayed = 0
    && fv.Mt.records_stranded = 0
  in
  (* gate (c): the co-run is deterministic — replays byte-identically *)
  let deterministic =
    Mt.result_json (run Bw.No_partition) = Mt.result_json shared
    && Mt.result_json (run Bw.Compute_memory) = Mt.result_json fenced
  in
  let pass = interference && isolated && deterministic in
  let json =
    Printf.sprintf
      "{\"solo\":{\"cycles\":%d,\"records_seen\":%d},\"no_partition\":{\"cycles\":%d,\"contention_cycles\":%d,\"records_seen\":%d,\"drains_delayed\":%d,\"records_stranded\":%d},\"compute_memory\":{\"cycles\":%d,\"contention_cycles\":%d,\"records_seen\":%d},\"interference_measurable\":%b,\"victim_report_identical\":%b,\"deterministic\":%b,\"pass\":%b}\n"
      solo.Mt.total_cycles solo.Mt.records_seen sv.Mt.total_cycles
      sv.Mt.contention_cycles sv.Mt.records_seen sv.Mt.drains_delayed
      sv.Mt.records_stranded fv.Mt.total_cycles fv.Mt.contention_cycles
      fv.Mt.records_seen interference isolated deterministic pass
  in
  let oc = open_out "BENCH_tenancy.json" in
  output_string oc json;
  close_out oc;
  print_string (Fpx_harness.Ascii.section "Multi-tenant isolation");
  Printf.printf
    "  victim solo:        %9d cycles, %d records seen\n\
    \  shared (none):      %9d cycles (+%d contention), %d seen, %d \
     drains delayed, %d stranded\n\
    \  shared (comp+mem):  %9d cycles (+%d contention), %d seen\n"
    solo.Mt.total_cycles solo.Mt.records_seen sv.Mt.total_cycles
    sv.Mt.contention_cycles sv.Mt.records_seen sv.Mt.drains_delayed
    sv.Mt.records_stranded fv.Mt.total_cycles fv.Mt.contention_cycles
    fv.Mt.records_seen;
  Printf.printf
    "  interference measurable %b, partitioned report identical %b, \
     deterministic %b -> %s (BENCH_tenancy.json written)\n"
    interference isolated deterministic
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

(* --- Artefact printing --------------------------------------------------- *)

let with_perf = lazy (E.perf_sweep ())

let artefact = function
  | "table1" -> print_string (E.table1 ())
  | "table2" -> print_string (E.table2 ())
  | "table3" -> print_string (E.table3 ())
  | "table4" -> print_string (fst (E.table4 ()))
  | "table5" -> print_string (E.table5 ())
  | "table6" -> print_string (E.table6 ())
  | "table7" -> print_string (E.table7 ())
  | "figure4" -> print_string (E.figure4 (Lazy.force with_perf))
  | "figure5" -> print_string (E.figure5 (Lazy.force with_perf))
  | "figure6" -> print_string (E.figure6 ())
  | "machines" -> print_string (E.machines ())
  | "ablation" -> print_string (E.ablation ())
  | "summary" -> print_string (E.summary (Lazy.force with_perf))
  | "obs" -> obs_bench ()
  | "obs2" -> obs2_bench ()
  | "resilience" -> resilience_bench ()
  | "static" -> static_bench ()
  | "parallel" -> parallel_bench ()
  | "serve" -> serve_bench ()
  | "throughput" -> throughput_bench ()
  | "exec" -> exec_bench ()
  | "tenancy" -> tenancy_bench ()
  | "fuzz" -> fuzz_bench ()
  | "sdc" -> sdc_bench ()
  | "micro" ->
    print_string (Fpx_harness.Ascii.section "Bechamel micro-benchmarks");
    run_bechamel (micro_tests ())
  | "bechamel" ->
    print_string
      (Fpx_harness.Ascii.section "Bechamel: one timing per table/figure");
    run_bechamel (artefact_tests ())
  | other ->
    Printf.eprintf "unknown target %S\n" other;
    exit 1

let all_targets =
  [ "table1"; "table2"; "table3"; "table4"; "figure4"; "figure5"; "table5";
    "figure6"; "table6"; "table7"; "machines"; "ablation"; "summary"; "obs";
    "obs2"; "resilience"; "static"; "parallel"; "serve"; "throughput";
    "exec"; "tenancy"; "fuzz"; "sdc"; "bechamel"; "micro" ]

let () =
  match Array.to_list Sys.argv with
  | _ :: (_ :: _ as targets) -> List.iter artefact targets
  | _ -> List.iter artefact all_targets
