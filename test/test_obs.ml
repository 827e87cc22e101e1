(* Observability layer tests: the metrics registry, the trace ring,
   the profile accumulator, and the end-to-end guarantees (events and
   counters consistent with a detector run; zero cost when disabled). *)

module Obs = Fpx_obs
module M = Fpx_obs.Metrics
module Span = Fpx_obs.Span
module R = Fpx_harness.Runner
module Catalog = Fpx_workloads.Catalog

let detector = R.Detector Gpu_fpx.Detector.default_config

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let count_sub ~sub s =
  let n = String.length sub in
  let rec go acc i =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (acc + 1) (i + 1)
    else go acc (i + 1)
  in
  go 0 0

(* --- Metrics ------------------------------------------------------------- *)

let test_metrics_counter () =
  let t = M.create () in
  let c = M.counter t ~help:"a counter" "fpx_test_total" in
  M.incr c;
  M.add c 41;
  Alcotest.(check int) "value" 42 (M.value c);
  (* registration is idempotent: same handle, same running value *)
  let c' = M.counter t "fpx_test_total" in
  M.incr c';
  Alcotest.(check int) "same handle" 43 (M.value c);
  Alcotest.(check int) "one metric" 1 (M.cardinal t);
  Alcotest.(check (option int)) "read by name" (Some 43)
    (M.counter_value t "fpx_test_total");
  Alcotest.(check (option int)) "unknown name" None
    (M.counter_value t "nope")

let test_metrics_gauge () =
  let t = M.create () in
  let g = M.gauge t "fpx_occupancy" in
  M.set g 9.0;
  M.set g 17.0;
  Alcotest.(check (float 1e-9)) "last write wins" 17.0 (M.gauge_value g);
  Alcotest.(check (option (float 1e-9))) "read by name" (Some 17.0)
    (M.gauge_read t "fpx_occupancy")

let test_metrics_kind_mismatch () =
  let t = M.create () in
  ignore (M.counter t "fpx_x");
  Alcotest.check_raises "counter reused as gauge"
    (Invalid_argument
       "Fpx_obs.Metrics: \"fpx_x\" already registered as another kind")
    (fun () -> ignore (M.gauge t "fpx_x"))

let test_metrics_histogram_and_render () =
  let t = M.create () in
  let h = M.histogram t ~buckets:[ 1.0; 10.0; 100.0 ] "fpx_h" in
  List.iter (M.observe h) [ 0.5; 5.0; 50.0; 500.0 ];
  let c = M.counter t ~help:"exceptions" "fpx_e_total{kind=\"NaN\"}" in
  M.add c 3;
  let json = M.to_json t in
  Alcotest.(check bool) "json histogram" true
    (contains ~sub:"\"fpx_h\"" json);
  Alcotest.(check bool) "json labelled counter" true
    (contains ~sub:"fpx_e_total{kind=\\\"NaN\\\"}" json);
  let prom = M.to_prometheus_text t in
  (* cumulative buckets: 1, 2, 3, and +Inf = 4 *)
  Alcotest.(check bool) "le=1 bucket" true
    (contains ~sub:"fpx_h_bucket{le=\"1\"} 1" prom);
  Alcotest.(check bool) "+Inf bucket" true
    (contains ~sub:"fpx_h_bucket{le=\"+Inf\"} 4" prom);
  Alcotest.(check bool) "count" true (contains ~sub:"fpx_h_count 4" prom);
  Alcotest.(check bool) "labelled sample passes through" true
    (contains ~sub:"fpx_e_total{kind=\"NaN\"} 3" prom)

(* --- The simulated-cycle recorder ------------------------------------ *)

let test_trace_ring_drops_oldest () =
  let t = Span.cycles ~capacity:4 () in
  for i = 1 to 10 do
    Span.instant t ~name:(Printf.sprintf "e%d" i) ~cat:"test" ~ts:i ()
  done;
  Alcotest.(check int) "recorded" 10 (Span.recorded t);
  Alcotest.(check int) "retained" 4 (List.length (Span.spans t));
  Alcotest.(check int) "dropped" 6 (Span.dropped t);
  let json = Span.to_chrome_json t in
  Alcotest.(check bool) "oldest gone" false (contains ~sub:"\"e6\"" json);
  Alcotest.(check bool) "newest kept" true (contains ~sub:"\"e10\"" json);
  Alcotest.(check bool) "drop count exported" true
    (contains ~sub:"\"dropped_events\":6" json)

let test_trace_chrome_shape () =
  let t = Span.cycles ~capacity:16 () in
  Span.complete t ~name:"kernel" ~cat:"kernel" ~ts:0 ~dur:100
    ~args:[ ("grid", Span.I 4); ("ok", Span.B true) ]
    ();
  Span.instant t ~tid:3 ~name:"exception" ~cat:"exception" ~ts:42
    ~args:[ ("kind", Span.S "NaN"); ("x", Span.F 0.5) ]
    ();
  let json = Span.to_chrome_json t in
  Alcotest.(check bool) "wrapper" true
    (contains ~sub:"{\"traceEvents\":[" json);
  Alcotest.(check bool) "span" true (contains ~sub:"\"ph\":\"X\"" json);
  Alcotest.(check bool) "duration" true (contains ~sub:"\"dur\":100" json);
  Alcotest.(check bool) "instant" true (contains ~sub:"\"ph\":\"i\"" json);
  Alcotest.(check bool) "tid" true (contains ~sub:"\"tid\":3" json);
  Alcotest.(check bool) "string arg" true
    (contains ~sub:"\"kind\":\"NaN\"" json);
  Alcotest.(check bool) "clock note" true
    (contains ~sub:"simulated-cycles" json);
  Alcotest.(check bool) "no lane metadata on the cycle clock" false
    (contains ~sub:"\"ph\":\"M\"" json)

let test_trace_meta () =
  let t = Span.create ~capacity:8 ~clock:(fun () -> 0.0) () in
  Span.with_installed t (fun () -> Span.with_ "work" ignore);
  let json = Span.to_chrome_json t in
  let label =
    match Span.track_infos t with
    | [ i ] -> i.Span.label
    | _ -> Alcotest.fail "expected one track"
  in
  Alcotest.(check bool) "metadata events" true
    (contains ~sub:"\"ph\":\"M\"" json);
  Alcotest.(check bool) "process name value in args" true
    (contains ~sub:"{\"name\":\"fpx-spans\"}" json);
  Alcotest.(check bool) "thread name value in args" true
    (contains ~sub:(Printf.sprintf "{\"name\":%S}" label) json);
  Alcotest.(check bool) "wall clock label" true
    (contains ~sub:"\"clock\":\"wall-clock-us\"" json);
  Alcotest.check_raises "cycle events need a cycle recorder"
    (Invalid_argument
       "Fpx_obs.Span: cycle-stamped event on a wall-clock recorder")
    (fun () -> Span.instant t ~name:"x" ~cat:"x" ~ts:0 ())

(* --- Sink ----------------------------------------------------------------- *)

let test_sink_null () =
  Alcotest.(check bool) "null inactive" false (Obs.Sink.is_active Obs.Sink.null);
  Alcotest.(check bool) "no active payload" true
    (Obs.Sink.active Obs.Sink.null = None);
  Alcotest.(check bool) "no summary" true
    (Obs.Sink.summary Obs.Sink.null = None)

let test_sink_timeline () =
  match Obs.Sink.active (Obs.Sink.create ()) with
  | None -> Alcotest.fail "create () must be active"
  | Some a ->
    Alcotest.(check int) "launch-relative ts" 25
      (Obs.Sink.now a ~launch_cycles:25);
    a.Obs.Sink.cycle_base <- 1000;
    Alcotest.(check int) "global timeline" 1025
      (Obs.Sink.now a ~launch_cycles:25)

(* --- Profile -------------------------------------------------------------- *)

let test_profile_accumulates () =
  let p = Obs.Profile.create () in
  Obs.Profile.add_dyn p ~kernel:"k" ~pc:3 ~label:"FFMA" ~n:10;
  Obs.Profile.add_dyn p ~kernel:"k" ~pc:3 ~label:"FFMA" ~n:5;
  Obs.Profile.add_dyn p ~kernel:"k" ~pc:7 ~label:"MUFU" ~n:100;
  Obs.Profile.add_exce p ~kernel:"k" ~pc:3 ~n:2 ();
  Alcotest.(check int) "two sites" 2 (Obs.Profile.cardinal p);
  (match Obs.Profile.top_by_dyn ~n:1 p with
  | [ s ] ->
    Alcotest.(check int) "hottest pc" 7 s.Obs.Profile.pc;
    Alcotest.(check int) "hottest dyn" 100 s.Obs.Profile.dyn
  | _ -> Alcotest.fail "expected one site");
  (match Obs.Profile.top_by_exces ~n:5 p with
  | [ s ] ->
    Alcotest.(check int) "excepting pc" 3 s.Obs.Profile.pc;
    Alcotest.(check int) "exce count" 2 s.Obs.Profile.exces
  | _ -> Alcotest.fail "only excepting sites listed");
  Alcotest.(check bool) "render mentions label" true
    (contains ~sub:"MUFU" (Obs.Profile.render p))

(* --- End-to-end ----------------------------------------------------------- *)

let test_detector_run_populates_sink () =
  let obs = Obs.Sink.create () in
  let m = R.run ~obs ~tool:detector (Catalog.find "GRAMSCHM") in
  match Obs.Sink.active obs with
  | None -> Alcotest.fail "sink must stay active"
  | Some a ->
    let json = Span.to_chrome_json a.Obs.Sink.trace in
    Alcotest.(check bool) "has a kernel span" true
      (count_sub ~sub:"\"cat\":\"kernel\"" json >= 1);
    Alcotest.(check bool) "has an exception instant" true
      (count_sub ~sub:"\"cat\":\"exception\"" json >= 1);
    let counter name = M.counter_value a.Obs.Sink.metrics name in
    Alcotest.(check (option int)) "records counter = measurement"
      (Some m.R.records)
      (counter "fpx_records_pushed_total");
    Alcotest.(check (option int)) "dyn instrs counter = measurement"
      (Some m.R.dyn_instrs)
      (counter "fpx_dyn_instrs_total");
    Alcotest.(check bool) "profile populated" true
      (Obs.Profile.cardinal a.Obs.Sink.profile > 0);
    Alcotest.(check bool) "profile saw exceptions" true
      (Obs.Profile.top_by_exces a.Obs.Sink.profile <> [])

(* Under [dune runtest] the cwd is the build sandbox where a copy of
   golden/ lives; a manual run from the project root sees test/golden. *)
let golden_trace_path =
  let local = Filename.concat "golden" "gramschm_detect_trace.json" in
  if Sys.file_exists local then local
  else Filename.concat "test" local

let test_detect_trace_golden () =
  (* the simulated-cycle timeline of [fpx_run detect GRAMSCHM
     --trace-out], byte for byte *)
  let obs = Obs.Sink.create () in
  ignore (R.run ~obs ~tool:detector (Catalog.find "GRAMSCHM") : R.measurement);
  match Obs.Sink.active obs with
  | None -> Alcotest.fail "sink must stay active"
  | Some a ->
    let expected = In_channel.with_open_bin golden_trace_path In_channel.input_all in
    Alcotest.(check string) "matches golden trace" expected
      (Span.to_chrome_json a.Obs.Sink.trace)

let test_trace_dropped_counter_surfaced () =
  (* a tiny ring forces wrap-around; the run must surface the drop count
     as a metric so truncation is never silent *)
  let obs = Obs.Sink.create ~trace_capacity:2 () in
  ignore (R.run ~obs ~tool:detector (Catalog.find "GRAMSCHM") : R.measurement);
  match Obs.Sink.active obs with
  | None -> Alcotest.fail "sink must stay active"
  | Some a ->
    let d = Span.dropped a.Obs.Sink.trace in
    Alcotest.(check bool) "ring wrapped" true (d > 0);
    Alcotest.(check (option int)) "counter matches ring" (Some d)
      (M.counter_value a.Obs.Sink.metrics "fpx_trace_events_dropped_total");
    (* a roomy ring records nothing: the counter only exists on drops *)
    let obs2 = Obs.Sink.create () in
    ignore (R.run ~obs:obs2 ~tool:detector (Catalog.find "Triad") : R.measurement);
    (match Obs.Sink.active obs2 with
    | Some a2 ->
      Alcotest.(check int) "no drops" 0 (Span.dropped a2.Obs.Sink.trace);
      Alcotest.(check (option int)) "no counter" None
        (M.counter_value a2.Obs.Sink.metrics "fpx_trace_events_dropped_total")
    | None -> Alcotest.fail "sink must stay active")

let test_obs_never_changes_results () =
  (* the acceptance bar for "zero-cost when disabled": the modelled
     numbers are bit-identical whether the sink is null or active, for
     every tool on the programs bench/main.exe obs times *)
  List.iter
    (fun (tool_name, tool) ->
      List.iter
        (fun name ->
          let w = Catalog.find name in
          let base = R.run ~tool w in
          let traced = R.run ~obs:(Obs.Sink.create ()) ~tool w in
          let what = Printf.sprintf "%s/%s" tool_name name in
          Alcotest.(check (float 0.0)) (what ^ ": same slowdown")
            base.R.slowdown traced.R.slowdown;
          Alcotest.(check int) (what ^ ": same records") base.R.records
            traced.R.records;
          Alcotest.(check int) (what ^ ": same exceptions")
            base.R.total_exceptions traced.R.total_exceptions)
        [ "GRAMSCHM"; "nbody"; "myocyte"; "GEMM"; "hotspot"; "Triad" ])
    [ ("GPU-FPX", detector); ("BinFPE", R.Binfpe); ("analyzer", R.Analyzer) ]

let suite =
  ( "obs",
    [ Alcotest.test_case "metrics counter" `Quick test_metrics_counter;
      Alcotest.test_case "metrics gauge" `Quick test_metrics_gauge;
      Alcotest.test_case "metrics kind mismatch" `Quick
        test_metrics_kind_mismatch;
      Alcotest.test_case "metrics histogram + render" `Quick
        test_metrics_histogram_and_render;
      Alcotest.test_case "trace ring drops oldest" `Quick
        test_trace_ring_drops_oldest;
      Alcotest.test_case "chrome trace shape" `Quick test_trace_chrome_shape;
      Alcotest.test_case "trace meta" `Quick test_trace_meta;
      Alcotest.test_case "detect trace golden" `Quick test_detect_trace_golden;
      Alcotest.test_case "trace dropped counter surfaced" `Quick
        test_trace_dropped_counter_surfaced;
      Alcotest.test_case "sink null" `Quick test_sink_null;
      Alcotest.test_case "sink timeline" `Quick test_sink_timeline;
      Alcotest.test_case "profile accumulates" `Quick test_profile_accumulates;
      Alcotest.test_case "detector run populates sink" `Quick
        test_detector_run_populates_sink;
      Alcotest.test_case "obs never changes results" `Quick
        test_obs_never_changes_results ] )
