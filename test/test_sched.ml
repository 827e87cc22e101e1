(* The domain scheduler and the cross-shard merge machinery behind
   --jobs: results in input order for any job count, sequential
   exception semantics, merge laws for the location table and the
   metrics registry, the cross-run census, and the end-to-end property
   that a parallel catalog sweep emits byte-identical reports — also
   under fault injection and static pruning. *)

module Sched = Fpx_sched.Sched
module Sweep = Fpx_harness.Sweep
module R = Fpx_harness.Runner
module L = Gpu_fpx.Loc_table
module M = Fpx_obs.Metrics
module F = Fpx_fault.Fault

let qcheck_case t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

(* --- Sched ------------------------------------------------------------ *)

let test_map_order () =
  let xs = List.init 23 (fun i -> i) in
  let expected = List.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Sched.map ~jobs (fun x -> x * x) xs))
    [ 1; 2; 4; 8; 64 ];
  Alcotest.(check (list int)) "empty" [] (Sched.map ~jobs:4 (fun x -> x) []);
  (* a one-element list runs inline: min jobs n - 1 = 0 domains *)
  Alcotest.(check (list int)) "singleton" [ 9 ]
    (Sched.map ~jobs:4 (fun x -> x * x) [ 3 ])

let test_map_index_tagged () =
  Alcotest.(check (list int))
    "index + value" [ 10; 21; 32; 43 ]
    (Sched.map ~jobs:3 (fun (i, x) -> (10 * x) + i)
       [ (0, 1); (1, 2); (2, 3); (3, 4) ])

let test_first_error_wins () =
  let f x = if x mod 2 = 0 then failwith (string_of_int x) else x in
  Alcotest.check_raises "first failing input re-raised" (Failure "2")
    (fun () -> ignore (Sched.map ~jobs:4 f [ 1; 2; 3; 4; 5; 6 ]))

(* every item runs exactly once, whichever domain claims it *)
let test_map_runs_every_item () =
  let total = Atomic.make 0 in
  ignore
    (Sched.map ~jobs:4
       (fun x -> ignore (Atomic.fetch_and_add total x))
       (List.init 100 (fun i -> i))
      : unit list);
  Alcotest.(check int) "sum" 4950 (Atomic.get total)

let test_recommended_jobs () =
  Alcotest.(check bool) "at least one" true (Sched.recommended_jobs () >= 1)

(* --- Pool ------------------------------------------------------------- *)

(* A future carries its task's exception: awaiting the futures in
   submission order re-raises the first failing one, as [map] does. *)
let test_pool_first_error_wins () =
  let pool = Sched.Pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Sched.Pool.shutdown pool)
    (fun () ->
      let f x = if x mod 2 = 0 then failwith (string_of_int x) else x in
      let futs =
        List.map (fun x -> Sched.Pool.submit pool (fun () -> f x))
          [ 1; 2; 3; 4; 5; 6 ]
      in
      Alcotest.check_raises "first failing input re-raised" (Failure "2")
        (fun () -> ignore (List.map Sched.Pool.await futs : int list));
      (* awaiting again replays the same outcome *)
      Alcotest.check_raises "await is repeatable" (Failure "4")
        (fun () -> ignore (Sched.Pool.await (List.nth futs 3) : int));
      Alcotest.(check int) "successes still readable" 5
        (Sched.Pool.await (List.nth futs 4)))

(* The bare cell: awaited from several domains, fulfilled once, a
   second fulfil rejected. *)
let test_pool_promise_fulfil () =
  let fut = Sched.Pool.promise () in
  let waiters =
    List.init 3 (fun _ -> Domain.spawn (fun () -> Sched.Pool.await fut))
  in
  Sched.Pool.fulfil fut (Sched.Pool.capture (fun () -> 17));
  Alcotest.(check (list int)) "every waiter woken" [ 17; 17; 17 ]
    (List.map Domain.join waiters);
  Alcotest.check_raises "write-once"
    (Invalid_argument "Sched.Pool.fulfil: already fulfilled") (fun () ->
      Sched.Pool.fulfil fut (Ok 18));
  Alcotest.(check int) "first value kept" 17 (Sched.Pool.await fut)

let test_pool_create_needs_a_worker () =
  Alcotest.check_raises "jobs = 0"
    (Invalid_argument "Sched.Pool.create: jobs < 1") (fun () ->
      ignore (Sched.Pool.create ~jobs:0 : Sched.Pool.t))

let test_pool_submit_await () =
  let pool = Sched.Pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Sched.Pool.shutdown pool)
    (fun () ->
      let futs =
        List.init 8 (fun i -> Sched.Pool.submit pool (fun () -> i * i))
      in
      (* await out of submission order *)
      Alcotest.(check (list int)) "results by future" [ 49; 0; 16; 9 ]
        (List.map Sched.Pool.await
           [ List.nth futs 7; List.nth futs 0; List.nth futs 4;
             List.nth futs 3 ]);
      Alcotest.(check int) "run helper" 42
        (Sched.Pool.run pool (fun () -> 42)))

let test_pool_shutdown_rejects () =
  let pool = Sched.Pool.create ~jobs:2 in
  Alcotest.(check int) "warm pool runs" 7
    (Sched.Pool.run pool (fun () -> 7));
  Sched.Pool.shutdown pool;
  (* idempotent *)
  Sched.Pool.shutdown pool;
  match Sched.Pool.submit pool (fun () -> 0) with
  | _ -> Alcotest.fail "submit after shutdown must raise"
  | exception Invalid_argument _ -> ()

(* Workers only exit once the queue is empty, so a shutdown issued
   while futures are still queued must complete them all — no result is
   dropped on the floor. *)
let test_pool_shutdown_completes_pending () =
  let pool = Sched.Pool.create ~jobs:1 in
  let gate = Atomic.make false in
  let blocker =
    Sched.Pool.submit pool (fun () ->
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        -1)
  in
  (* these sit queued behind the blocker on the single worker *)
  let futs = List.init 5 (fun i -> Sched.Pool.submit pool (fun () -> i * i)) in
  Alcotest.(check int) "all six in flight" 6 (Sched.Pool.in_flight pool);
  Atomic.set gate true;
  Sched.Pool.shutdown pool;
  Alcotest.(check int) "blocker done" (-1) (Sched.Pool.await blocker);
  Alcotest.(check (list int)) "queued futures completed by shutdown"
    [ 0; 1; 4; 9; 16 ]
    (List.map Sched.Pool.await futs);
  Alcotest.(check int) "drained" 0 (Sched.Pool.in_flight pool)

let test_pool_submit_after_shutdown_message () =
  let pool = Sched.Pool.create ~jobs:2 in
  Sched.Pool.shutdown pool;
  let expected = Invalid_argument "Sched.Pool: submit after shutdown" in
  Alcotest.check_raises "submit" expected (fun () ->
      ignore (Sched.Pool.submit pool (fun () -> 0)));
  Alcotest.check_raises "run (via submit)" expected (fun () ->
      ignore (Sched.Pool.run pool (fun () -> 0)))

(* in_flight = queued + running must account every submission exactly,
   also when the submitters race each other from several threads. *)
let test_pool_in_flight_concurrent_submitters () =
  let pool = Sched.Pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Sched.Pool.shutdown pool)
    (fun () ->
      let gate = Atomic.make false in
      let fm = Mutex.create () in
      let futs = ref [] in
      let submitter _ =
        Thread.create
          (fun () ->
            for i = 0 to 2 do
              let fut =
                Sched.Pool.submit pool (fun () ->
                    while not (Atomic.get gate) do
                      Domain.cpu_relax ()
                    done;
                    i)
              in
              Mutex.lock fm;
              futs := fut :: !futs;
              Mutex.unlock fm
            done)
          ()
      in
      let threads = List.init 4 submitter in
      List.iter Thread.join threads;
      (* all 12 submitted, none can finish while the gate is shut *)
      Alcotest.(check int) "all submissions accounted" 12
        (Sched.Pool.in_flight pool);
      Atomic.set gate true;
      let results = List.map Sched.Pool.await !futs in
      Alcotest.(check int) "all completed" 12 (List.length results);
      Alcotest.(check int) "sum of results" 12
        (List.fold_left ( + ) 0 results);
      Alcotest.(check int) "idle once every future is awaited" 0
        (Sched.Pool.in_flight pool);
      (* a finished task leaves the books before its future is published,
         so the caller woken by await never still sees it in flight *)
      for i = 1 to 300 do
        let v = Sched.Pool.await (Sched.Pool.submit pool (fun () -> i)) in
        let n = Sched.Pool.in_flight pool in
        if v <> i || n <> 0 then
          Alcotest.failf "round %d: result %d, in_flight %d right after await"
            i v n
      done)

(* --- Loc_table.intern ------------------------------------------------- *)

let e ~kernel ~pc ~loc = { L.kernel; pc; loc }

let test_loc_intern_first_seen () =
  let t = L.create () in
  let a = L.intern t (e ~kernel:"k1" ~pc:0 ~loc:"left.cu:1") in
  (* same (kernel, pc) key with a different loc string: same index, and
     the first-seen entry is kept *)
  let a' = L.intern t (e ~kernel:"k1" ~pc:0 ~loc:"right.cu:9") in
  let b = L.intern t (e ~kernel:"k3" ~pc:8 ~loc:"k3.cu:3") in
  Alcotest.(check int) "re-interning returns the same index" a a';
  Alcotest.(check bool) "a new key gets a new index" true (b <> a);
  Alcotest.(check int) "two entries" 2 (L.size t);
  Alcotest.(check string) "first-seen loc wins" "left.cu:1" (L.entry t a).L.loc;
  Alcotest.(check (list string)) "index order = first-seen order"
    [ "left.cu:1"; "k3.cu:3" ]
    (List.map (fun (en : L.entry) -> en.L.loc) (L.entries t))

(* --- BinFPE over the census subset ----------------------------------- *)

(* BinFPE ships every checked value over the channel and classifies it
   host-side. Its record count and unique findings over the census
   subset are pinned to the values computed before its records became
   flat packets (692,996 records, 53 findings). *)
let test_binfpe_pinned () =
  let programs =
    List.map Fpx_workloads.Catalog.find
      [ "GRAMSCHM"; "LU"; "GEMM"; "hotspot"; "SRU-Example"; "CuMF-Movielens" ]
  in
  let ms = Sweep.run ~tool:R.Binfpe programs in
  let lines =
    List.concat_map
      (fun m ->
        List.map
          (fun (f : R.finding) ->
            Printf.sprintf "%s %d %s %s %s" f.R.kernel f.R.pc f.R.loc
              (Fpx_sass.Isa.fp_format_to_string f.R.fmt)
              (Fpx_tool.Exce.to_string f.R.exce))
          m.R.binfpe_findings)
      ms
  in
  Alcotest.(check int) "records" 692_996
    (List.fold_left (fun a m -> a + m.R.records) 0 ms);
  Alcotest.(check int) "findings" 53 (List.length lines);
  Alcotest.(check string) "findings digest" "625de5956b77e9045beeed658539b4f5"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* --- Sweep.census ------------------------------------------------------ *)

(* The census of a catalog subset, pinned to the numbers the
   Global_table-merge census printed for it (133 locations, 53 unique
   triplets). A stack with BinFPE, in either order, counts the detector's
   findings only, so it must agree, and BinFPE alone counts nothing. *)
let test_census_pinned () =
  let programs =
    List.map Fpx_workloads.Catalog.find
      [ "GRAMSCHM"; "LU"; "GEMM"; "hotspot"; "SRU-Example"; "CuMF-Movielens" ]
  in
  let det = R.Detector Gpu_fpx.Detector.default_config in
  List.iter
    (fun tool ->
      Alcotest.(check (pair int int))
        (R.tool_config_to_string tool)
        (133, 53)
        (Sweep.census (Sweep.run ~tool programs)))
    [ det; R.Stack [ det; R.Binfpe ]; R.Stack [ R.Binfpe; det ] ];
  Alcotest.(check (pair int int)) "BinFPE" (0, 0)
    (Sweep.census (Sweep.run ~tool:R.Binfpe programs))

(* --- Metrics: merge + deterministic export ---------------------------- *)

let test_metrics_merge () =
  let a = M.create () and b = M.create () in
  M.add (M.counter a "fpx_c_total") 2;
  M.add (M.counter b "fpx_c_total") 5;
  M.add (M.counter b "fpx_only_b_total") 1;
  M.set (M.gauge a "fpx_g") 1.0;
  M.set (M.gauge b "fpx_g") 9.0;
  List.iter (M.observe (M.histogram a ~buckets:[ 1.0; 10.0 ] "fpx_h")) [ 0.5 ];
  List.iter
    (M.observe (M.histogram b ~buckets:[ 1.0; 10.0 ] "fpx_h"))
    [ 5.0; 50.0 ];
  let m = M.merge a b in
  Alcotest.(check (option int)) "counters sum" (Some 7)
    (M.counter_value m "fpx_c_total");
  Alcotest.(check (option int)) "one-sided counter" (Some 1)
    (M.counter_value m "fpx_only_b_total");
  Alcotest.(check (option (float 1e-9))) "gauge: last merged wins" (Some 9.0)
    (M.gauge_read m "fpx_g");
  let prom = M.to_prometheus_text m in
  (* bucket-wise: 0.5 -> le=1, 5.0 -> le=10, 50.0 -> +Inf *)
  let has sub s =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "le=1" true (has "fpx_h_bucket{le=\"1\"} 1" prom);
  Alcotest.(check bool) "le=10" true (has "fpx_h_bucket{le=\"10\"} 2" prom);
  Alcotest.(check bool) "+Inf" true (has "fpx_h_bucket{le=\"+Inf\"} 3" prom);
  (* inputs unmutated *)
  Alcotest.(check (option int)) "left intact" (Some 2)
    (M.counter_value a "fpx_c_total")

let test_metrics_merge_bucket_mismatch () =
  let a = M.create () and b = M.create () in
  ignore (M.histogram a ~buckets:[ 1.0 ] "fpx_h");
  ignore (M.histogram b ~buckets:[ 1.0; 2.0 ] "fpx_h");
  Alcotest.check_raises "mismatched buckets rejected"
    (Invalid_argument "Fpx_obs.Metrics.merge: \"fpx_h\" has mismatched buckets")
    (fun () -> ignore (M.merge a b))

(* The same metrics registered in two different orders must export the
   same bytes — the sweep registers per-run metrics in whatever order
   the domains finish resolving them. *)
let populate order =
  let t = M.create () in
  List.iter
    (function
      | `Z -> M.add (M.counter t ~help:"z" "fpx_z_total") 3
      | `A -> M.add (M.counter t ~help:"a" "fpx_a_total{kind=\"NaN\"}") 1
      | `G -> M.set (M.gauge t ~help:"m" "fpx_m_gauge") 2.5
      | `H ->
        List.iter
          (M.observe (M.histogram t ~help:"h" ~buckets:[ 1.0; 10.0 ] "fpx_h"))
          [ 0.5; 5.0; 50.0 ])
    order;
  t

let golden_path name =
  let local = Filename.concat "golden" name in
  if Sys.file_exists local then local else Filename.concat "test" local

let read_golden name =
  let ic = open_in_bin (golden_path name) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  String.trim s

let test_metrics_export_order_independent () =
  let t1 = populate [ `Z; `A; `G; `H ] in
  let t2 = populate [ `H; `G; `A; `Z ] in
  Alcotest.(check string) "json bytes" (M.to_json t1) (M.to_json t2);
  Alcotest.(check string) "prometheus bytes" (M.to_prometheus_text t1)
    (M.to_prometheus_text t2)

let test_metrics_export_golden () =
  let t = populate [ `Z; `A; `G; `H ] in
  (* FPX_BLESS=1 dune exec test/main.exe (from the project root) rewrites
     the golden files in place. *)
  if Sys.getenv_opt "FPX_BLESS" <> None then begin
    let write name s =
      let oc = open_out_bin (golden_path name) in
      output_string oc s;
      close_out oc
    in
    write "metrics.json" (M.to_json t ^ "\n");
    write "metrics.prom" (M.to_prometheus_text t)
  end;
  Alcotest.(check string) "json golden" (read_golden "metrics.json")
    (String.trim (M.to_json t));
  Alcotest.(check string) "prometheus golden" (read_golden "metrics.prom")
    (String.trim (M.to_prometheus_text t))

(* --- Parallel sweep determinism (qcheck) ------------------------------ *)

let catalog = Array.of_list Fpx_workloads.Catalog.evaluated

let arb_programs =
  let gen =
    QCheck.Gen.(
      list_size (int_range 2 5) (int_bound (Array.length catalog - 1)))
  in
  QCheck.make
    ~print:(fun idxs ->
      String.concat ","
        (List.map (fun i -> catalog.(i).Fpx_workloads.Workload.name) idxs))
    gen

let detector = R.Detector Gpu_fpx.Detector.default_config

let sweep_bytes ?fault ~tool ~jobs idxs =
  Sweep.report_json
    (Sweep.run ~jobs ?fault ~tool (List.map (fun i -> catalog.(i)) idxs))

let prop_jobs_identical =
  QCheck.Test.make ~count:8 ~name:"--jobs 4 report bytes = --jobs 1"
    arb_programs (fun idxs ->
      sweep_bytes ~tool:detector ~jobs:4 idxs
      = sweep_bytes ~tool:detector ~jobs:1 idxs)

let prop_jobs_identical_fault =
  QCheck.Test.make ~count:6
    ~name:"--jobs 4 = --jobs 1 under seeded fault injection"
    (QCheck.pair arb_programs QCheck.small_nat)
    (fun (idxs, seed) ->
      let fault = F.spec ~sites:F.all_sites ~rate:0.05 ~seed () in
      sweep_bytes ~fault ~tool:detector ~jobs:4 idxs
      = sweep_bytes ~fault ~tool:detector ~jobs:1 idxs)

let prop_jobs_identical_prune =
  QCheck.Test.make ~count:6 ~name:"--jobs 4 = --jobs 1 under --static-prune"
    arb_programs (fun idxs ->
      let tool =
        R.Detector
          { Gpu_fpx.Detector.default_config with
            Gpu_fpx.Detector.static_prune = true }
      in
      sweep_bytes ~tool ~jobs:4 idxs = sweep_bytes ~tool ~jobs:1 idxs)

let suite =
  ( "sched",
    [ Alcotest.test_case "map: input order for any jobs" `Quick
        test_map_order;
      Alcotest.test_case "map: index-tagged items" `Quick
        test_map_index_tagged;
      Alcotest.test_case "first error in input order" `Quick
        test_first_error_wins;
      Alcotest.test_case "map: every item runs once" `Quick
        test_map_runs_every_item;
      Alcotest.test_case "recommended jobs" `Quick test_recommended_jobs;
      Alcotest.test_case "pool: first error in input order" `Quick
        test_pool_first_error_wins;
      Alcotest.test_case "pool: promise/fulfil cell" `Quick
        test_pool_promise_fulfil;
      Alcotest.test_case "pool: create needs a worker" `Quick
        test_pool_create_needs_a_worker;
      Alcotest.test_case "pool: submit/await" `Quick test_pool_submit_await;
      Alcotest.test_case "pool: shutdown rejects submits" `Quick
        test_pool_shutdown_rejects;
      Alcotest.test_case "pool: shutdown completes pending futures" `Quick
        test_pool_shutdown_completes_pending;
      Alcotest.test_case "pool: submit-after-shutdown error" `Quick
        test_pool_submit_after_shutdown_message;
      Alcotest.test_case "pool: in_flight under concurrent submitters"
        `Quick test_pool_in_flight_concurrent_submitters;
      Alcotest.test_case "loc intern: first-seen wins" `Quick
        test_loc_intern_first_seen;
      Alcotest.test_case "binfpe: census subset pinned" `Quick
        test_binfpe_pinned;
      Alcotest.test_case "census: catalog subset pinned" `Quick
        test_census_pinned;
      Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
      Alcotest.test_case "metrics merge: bucket mismatch" `Quick
        test_metrics_merge_bucket_mismatch;
      Alcotest.test_case "metrics export: order-independent" `Quick
        test_metrics_export_order_independent;
      Alcotest.test_case "metrics export: golden" `Quick
        test_metrics_export_golden;
      qcheck_case prop_jobs_identical;
      qcheck_case prop_jobs_identical_fault;
      qcheck_case prop_jobs_identical_prune ] )
