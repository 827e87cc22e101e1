(* Span tracing and the Domprof attribution pass: nesting and paths,
   unbalanced instrumentation, per-domain track separation under a real
   parallel Sched.map, ring-drop accounting, both export formats, and
   the diagnose pipeline end-to-end (the dominant-overhead verdict must
   never be empty). *)

module Span = Fpx_obs.Span
module Domprof = Fpx_obs.Domprof
module R = Fpx_harness.Runner
module Sweep = Fpx_harness.Sweep
module Catalog = Fpx_workloads.Catalog

let detector = R.Detector Gpu_fpx.Detector.default_config

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* A deterministic clock: every read advances it by [step]. *)
let fake_clock ?(step = 1.0) () =
  let now = ref 0.0 in
  fun () ->
    let t = !now in
    now := t +. step;
    t

let qcheck_case t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

(* --- Recording semantics --------------------------------------------- *)

let test_nesting_and_paths () =
  let r = Span.create ~clock:(fake_clock ()) () in
  Span.with_installed r (fun () ->
      Span.begin_ ~cat:"a" "outer";
      Span.begin_ ~cat:"b" "inner";
      Span.end_ ();
      Span.end_ ());
  match Span.spans r with
  | [ outer; inner ] ->
    Alcotest.(check string) "outer path" "outer" outer.Span.path;
    Alcotest.(check string) "inner path" "outer;inner" inner.Span.path;
    Alcotest.(check int) "outer depth" 0 outer.Span.depth;
    Alcotest.(check int) "inner depth" 1 inner.Span.depth;
    Alcotest.(check bool) "inner contained" true
      (inner.Span.t0 >= outer.Span.t0
      && inner.Span.t0 +. inner.Span.dur <= outer.Span.t0 +. outer.Span.dur);
    Alcotest.(check string) "outer cat" "a" outer.Span.cat
  | sps -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length sps))

let test_unbalanced_end () =
  let r = Span.create ~clock:(fake_clock ()) () in
  Span.with_installed r (fun () ->
      Span.end_ ();
      (* no open frame: counted, not raised *)
      Span.begin_ "balanced";
      Span.end_ ();
      Span.end_ ();
      Span.begin_ "never-closed");
  Alcotest.(check int) "unbalanced ends counted" 2 (Span.unbalanced r);
  Alcotest.(check int) "open frame retained" 1 (Span.open_frames r);
  Alcotest.(check int) "only the balanced span exported" 1
    (List.length (Span.spans r));
  Alcotest.(check int) "recorded" 1 (Span.recorded r)

let test_disabled_is_noop () =
  Alcotest.(check bool) "disabled" false (Span.enabled ());
  (* none of these may raise or record anywhere *)
  Span.begin_ "x";
  Span.end_ ();
  Alcotest.(check int) "with_ still runs the body" 3
    (Span.with_ "y" (fun () -> 3))

let test_ring_drops_counted () =
  let r = Span.create ~capacity:4 ~clock:(fake_clock ()) () in
  Span.with_installed r (fun () ->
      for i = 1 to 10 do
        Span.with_ (Printf.sprintf "s%d" i) (fun () -> ())
      done);
  Alcotest.(check int) "recorded" 10 (Span.recorded r);
  Alcotest.(check int) "dropped" 6 (Span.dropped r);
  let sps = Span.spans r in
  Alcotest.(check int) "retained" 4 (List.length sps);
  (* the survivors are the newest four *)
  Alcotest.(check (list string)) "newest kept"
    [ "s7"; "s8"; "s9"; "s10" ]
    (List.map (fun s -> s.Span.name) sps)

let test_cross_domain_tracks () =
  let r = Span.create () in
  (* Each body waits, up to a deadline, until a second body is running:
     two bodies then overlap, so they ran on two domains, however fast
     one domain could otherwise have stolen all eight. *)
  let started = Atomic.make 0 in
  let body i =
    Atomic.incr started;
    let deadline = Unix.gettimeofday () +. 5.0 in
    while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    i * i
  in
  Span.with_installed r (fun () ->
      ignore
        (Fpx_sched.Sched.map ~jobs:4
           (fun i -> Span.with_ ~cat:"work" "task-body" (fun () -> body i))
           [ 1; 2; 3; 4; 5; 6; 7; 8 ]
          : int list));
  let infos = Span.track_infos r in
  Alcotest.(check bool) "several domains registered tracks" true
    (List.length infos >= 2);
  (* track ids are distinct and every span's track id is registered *)
  let ids = List.map (fun i -> i.Span.track_id) infos in
  Alcotest.(check int) "ids distinct" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun sp -> Alcotest.(check bool) "span on a known track" true
        (List.mem sp.Span.track ids))
    (Span.spans r);
  (* the worker bodies really ran on more than one track *)
  let body_tracks =
    List.sort_uniq compare
      (List.filter_map
         (fun sp ->
           if sp.Span.name = "task-body" then Some sp.Span.track else None)
         (Span.spans r))
  in
  Alcotest.(check bool) "bodies spread across tracks" true
    (List.length body_tracks >= 2);
  Alcotest.(check int) "all 8 bodies recorded" 8
    (List.length
       (List.filter (fun sp -> sp.Span.name = "task-body") (Span.spans r)));
  Alcotest.(check int) "no unbalanced frames" 0 (Span.unbalanced r);
  Alcotest.(check int) "no open frames" 0 (Span.open_frames r)

(* --- Export ----------------------------------------------------------- *)

let test_chrome_export_shape () =
  let r = Span.create ~capacity:2 ~clock:(fake_clock ()) () in
  Span.with_installed r (fun () ->
      Span.begin_ ~cat:"outer" "parent";
      Span.with_ "child-1" (fun () -> ());
      Span.with_ "child-2" (fun () -> ());
      Span.end_ ());
  let json = Span.to_chrome_json r in
  Alcotest.(check bool) "wall-clock clock label" true
    (contains ~sub:"wall-clock-us" json);
  Alcotest.(check bool) "thread_name metadata" true
    (contains ~sub:"\"thread_name\"" json);
  Alcotest.(check bool) "process_name metadata" true
    (contains ~sub:"fpx-spans" json);
  Alcotest.(check bool) "complete events" true
    (contains ~sub:"\"ph\":\"X\"" json);
  (* capacity 2, three spans completed: the drop marker must be present *)
  Alcotest.(check int) "one span dropped" 1 (Span.dropped r);
  Alcotest.(check bool) "spans_dropped instant" true
    (contains ~sub:"spans_dropped" json)

let test_collapsed_export_self_time () =
  let now = ref 0.0 in
  let clock () = !now in
  let r = Span.create ~clock () in
  Span.with_installed r (fun () ->
      Span.begin_ "parent";
      (* parent: 0 .. 10s; child covers 2 .. 6s, so parent self = 6s *)
      now := 2.0;
      Span.begin_ "child";
      now := 6.0;
      Span.end_ ();
      now := 10.0;
      Span.end_ ());
  let folded = Span.to_collapsed r in
  let label =
    match Span.track_infos r with
    | [ i ] -> i.Span.label
    | _ -> Alcotest.fail "expected one track"
  in
  Alcotest.(check bool) "parent line carries self time" true
    (contains ~sub:(label ^ ";parent 6000000\n") folded);
  Alcotest.(check bool) "child line carries its own time" true
    (contains ~sub:(label ^ ";parent;child 4000000\n") folded)

(* Byte pins for both exports of one fake-clock recording with nesting
   and a ring drop: [leaf] completes first, so a capacity of 3 drops it
   and [a] keeps its whole duration as self time. *)
let test_export_pins () =
  let r = Span.create ~capacity:3 ~clock:(fake_clock ()) () in
  Span.with_installed r (fun () ->
      Span.begin_ ~cat:"run" ~args:[ ("n", Span.I 2) ] "root";
      Span.with_ "a" (fun () -> Span.with_ ~cat:"exec" "leaf" ignore);
      Span.with_ ~args:[ ("k", Span.S "x\"y") ] "b" ignore;
      Span.end_ ());
  Alcotest.(check int) "one span dropped" 1 (Span.dropped r);
  Alcotest.(check string) "collapsed"
    "domain-0;root 3000000\ndomain-0;root;a 3000000\ndomain-0;root;b 1000000\n"
    (Span.to_collapsed r);
  Alcotest.(check string) "chrome"
    "{\"traceEvents\":[{\"name\":\"process_name\",\"cat\":\"__metadata\",\"pid\":0,\"tid\":0,\"ts\":0,\"ph\":\"M\",\"args\":{\"name\":\"fpx-spans\"}},{\"name\":\"thread_name\",\"cat\":\"__metadata\",\"pid\":0,\"tid\":0,\"ts\":0,\"ph\":\"M\",\"args\":{\"name\":\"domain-0\"}},{\"name\":\"root\",\"cat\":\"run\",\"pid\":0,\"tid\":0,\"ts\":1000000,\"ph\":\"X\",\"dur\":7000000,\"args\":{\"n\":2}},{\"name\":\"a\",\"cat\":\"span\",\"pid\":0,\"tid\":0,\"ts\":2000000,\"ph\":\"X\",\"dur\":3000000},{\"name\":\"b\",\"cat\":\"span\",\"pid\":0,\"tid\":0,\"ts\":6000000,\"ph\":\"X\",\"dur\":1000000,\"args\":{\"k\":\"x\\\"y\"}},{\"name\":\"spans_dropped\",\"cat\":\"span\",\"pid\":0,\"tid\":0,\"ts\":0,\"ph\":\"i\",\"s\":\"g\",\"args\":{\"count\":1}}],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"wall-clock-us\",\"dropped_events\":1}}"
    (Span.to_chrome_json r)

(* --- Domprof ----------------------------------------------------------- *)

let test_phase_classification () =
  let sp ?(cat = "sched") name =
    { Span.track = 0; name; cat; depth = 0; path = name; t0 = 0.0; dur = 1.0;
      instant = false; args = [] }
  in
  List.iter
    (fun (cat, name, want) ->
      Alcotest.(check string) (cat ^ "/" ^ name) want
        (Domprof.phase_of (sp ~cat name)))
    [ ("sched", "sched.task", "task_other");
      ("sched", "sched.claim", "steal");
      ("sched", "sched.worker", "queue_wait");
      ("sched", "sched.spawn", "spawn");
      ("sched", "sched.join", "join");
      ("run", "run.setup", "setup");
      ("run", "run.body", "body_other");
      ("run", "run.report", "report");
      ("jit", "jit.instrument", "jit");
      ("exec", "exec.launch", "exec");
      ("drain", "launch.drain", "drain");
      ("sweep", "sweep.census", "merge");
      ("sweep", "sweep.report_json", "merge");
      ("sweep", "sweep.merge_metrics", "merge");
      ("fuzz", "fuzz.case", "fuzz");
      ("span", "anything", "other") ]

(* Property: on a single track with no ring drops, the per-phase self
   times of a breakdown sum to at most the recorder's wall time. The
   generator drives real begin_/end_ calls from a random nesting script
   against a deterministic clock. *)
let prop_phase_times_bounded_by_wall =
  let cats = [| "sched"; "run"; "jit"; "exec"; "sweep"; "span" |] in
  let gen =
    QCheck.make
      ~print:(fun ops -> String.concat "" (List.map (fun b -> if b then "(" else ")") ops))
      QCheck.Gen.(list_size (int_bound 60) bool)
  in
  QCheck.Test.make ~count:200
    ~name:"diagnose phase totals sum to <= wall" gen (fun script ->
      let now = ref 0.0 in
      let clock () = !now in
      let r = Span.create ~capacity:4096 ~clock () in
      let depth = ref 0 in
      Span.with_installed r (fun () ->
          List.iteri
            (fun i op ->
              now := !now +. 1.0;
              if op then begin
                Span.begin_ ~cat:cats.(i mod Array.length cats)
                  (Printf.sprintf "s%d" i);
                incr depth
              end
              else if !depth > 0 then begin
                Span.end_ ();
                decr depth
              end)
            script;
          (* close whatever is still open so every span is exported *)
          while !depth > 0 do
            now := !now +. 1.0;
            Span.end_ ();
            decr depth
          done);
      let wall = !now in
      let b = Domprof.of_spans ~jobs:1 ~wall_s:wall r in
      let total =
        List.fold_left (fun a p -> a +. p.Domprof.total_s) 0.0
          b.Domprof.phases
      in
      Alcotest.(check int) "no drops" 0 b.Domprof.spans_dropped;
      total <= wall +. 1e-6)

let test_diagnose_jobs4_verdict () =
  (* the acceptance assertion: a real jobs=1 vs jobs=4 sweep diagnosis
     carries a non-empty verdict and a dominant source *)
  let programs = List.map Catalog.find [ "GEMM"; "Triad"; "nbody" ] in
  let measure jobs =
    let r = Span.create () in
    let t0 = Unix.gettimeofday () in
    Span.with_installed r (fun () ->
        let ms = Sweep.run ~jobs ~tool:detector programs in
        ignore (Sweep.report_json ms : string));
    let wall_s = Unix.gettimeofday () -. t0 in
    Domprof.of_spans ~jobs ~wall_s r
  in
  let base = measure 1 in
  let target = measure 4 in
  let d = Domprof.diagnose ~base ~target in
  Alcotest.(check bool) "verdict non-empty" true (d.Domprof.verdict <> "");
  Alcotest.(check bool) "dominant non-empty" true (d.Domprof.dominant <> "");
  Alcotest.(check int) "base saw every task" 3 base.Domprof.tasks;
  Alcotest.(check int) "target saw every task" 3 target.Domprof.tasks;
  Alcotest.(check bool) "target used several tracks" true
    (target.Domprof.tracks >= 2);
  (* the JSON carries the same verdict, and render never explodes *)
  let json = Domprof.diagnosis_json d in
  Alcotest.(check bool) "verdict in JSON" true
    (contains ~sub:"\"verdict\":" json);
  Alcotest.(check bool) "render non-empty" true
    (String.length (Domprof.render d) > 0);
  (* sequential self-diagnosis also verdicts (the jobs<=1 arm) *)
  let d1 = Domprof.diagnose ~base ~target:base in
  Alcotest.(check bool) "jobs=1 verdict non-empty" true
    (d1.Domprof.verdict <> "")

let test_record_metrics () =
  let r = Span.create () in
  Span.with_installed r (fun () ->
      ignore
        (Fpx_sched.Sched.map ~jobs:2 (fun x -> x + 1) [ 1; 2; 3; 4 ]
          : int list));
  let b = Domprof.of_spans ~jobs:2 ~wall_s:1.0 r in
  let m = Fpx_obs.Metrics.create () in
  Domprof.record_metrics r b m;
  Alcotest.(check (option int)) "recorded counter"
    (Some (Span.recorded r))
    (Fpx_obs.Metrics.counter_value m "fpx_spans_recorded_total");
  Alcotest.(check bool) "task histogram exported" true
    (contains ~sub:"fpx_sched_task_seconds"
       (Fpx_obs.Metrics.to_prometheus_text m));
  Alcotest.(check bool) "phase gauges exported" true
    (contains ~sub:"fpx_phase_seconds" (Fpx_obs.Metrics.to_json m))

let suite =
  ( "span",
    [ Alcotest.test_case "nesting and paths" `Quick test_nesting_and_paths;
      Alcotest.test_case "unbalanced end" `Quick test_unbalanced_end;
      Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
      Alcotest.test_case "ring drops counted" `Quick test_ring_drops_counted;
      Alcotest.test_case "cross-domain tracks" `Quick test_cross_domain_tracks;
      Alcotest.test_case "chrome export shape" `Quick test_chrome_export_shape;
      Alcotest.test_case "collapsed export self time" `Quick
        test_collapsed_export_self_time;
      Alcotest.test_case "export byte pins" `Quick test_export_pins;
      Alcotest.test_case "phase classification" `Quick
        test_phase_classification;
      qcheck_case prop_phase_times_bounded_by_wall;
      Alcotest.test_case "diagnose jobs=4 verdict" `Quick
        test_diagnose_jobs4_verdict;
      Alcotest.test_case "record metrics" `Quick test_record_metrics ] )
