(* The domain scheduler and the cross-shard merge machinery behind
   --jobs: results in input order for any job count, sequential
   exception semantics, merge laws for the location/global tables and
   the metrics registry, and the end-to-end property that a parallel
   catalog sweep emits byte-identical reports — also under fault
   injection and static pruning. *)

module Sched = Fpx_sched.Sched
module Sweep = Fpx_harness.Sweep
module R = Fpx_harness.Runner
module L = Gpu_fpx.Loc_table
module G = Gpu_fpx.Global_table
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
  Alcotest.(check (list int)) "singleton" [ 9 ]
    (Sched.map ~jobs:4 (fun x -> x * x) [ 3 ])

let test_mapi_indices () =
  Alcotest.(check (list int))
    "index + value" [ 10; 21; 32; 43 ]
    (Sched.mapi ~jobs:3 (fun i x -> (10 * x) + i) [ 1; 2; 3; 4 ])

let test_first_error_wins () =
  let f x = if x mod 2 = 0 then failwith (string_of_int x) else x in
  Alcotest.check_raises "first failing input re-raised" (Failure "2")
    (fun () -> ignore (Sched.map ~jobs:4 f [ 1; 2; 3; 4; 5; 6 ]))

let test_iter_runs_everything () =
  let total = Atomic.make 0 in
  Sched.iter ~jobs:4 (fun x -> ignore (Atomic.fetch_and_add total x)) (List.init 100 (fun i -> i));
  Alcotest.(check int) "sum" 4950 (Atomic.get total)

let test_recommended_jobs () =
  Alcotest.(check bool) "at least one" true (Sched.recommended_jobs () >= 1)

(* --- Pool ------------------------------------------------------------- *)

let test_pool_map_matches_seq () =
  let pool = Sched.Pool.create ~jobs:3 () in
  Fun.protect
    ~finally:(fun () -> Sched.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "jobs fixed at create" 3 (Sched.Pool.jobs pool);
      (* reuse the same pool across several calls *)
      for n = 0 to 3 do
        let xs = List.init (10 * n) Fun.id in
        Alcotest.(check (list int))
          (Printf.sprintf "n=%d" (List.length xs))
          (List.mapi (fun i x -> (10 * x) + i) xs)
          (Sched.mapi ~pool (fun i x -> (10 * x) + i) xs)
      done;
      Alcotest.(check int) "idle between calls" 0 (Sched.Pool.in_flight pool))

let test_pool_first_error_wins () =
  let pool = Sched.Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Sched.Pool.shutdown pool)
    (fun () ->
      let f x = if x mod 2 = 0 then failwith (string_of_int x) else x in
      Alcotest.check_raises "first failing input re-raised" (Failure "2")
        (fun () -> ignore (Sched.map ~pool f [ 1; 2; 3; 4; 5; 6 ])))

let test_pool_submit_await () =
  let pool = Sched.Pool.create ~jobs:2 () in
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
  let pool = Sched.Pool.create ~jobs:2 () in
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
  let pool = Sched.Pool.create ~jobs:1 () in
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
  let pool = Sched.Pool.create ~jobs:2 () in
  Sched.Pool.shutdown pool;
  let expected = Invalid_argument "Sched.Pool: submit after shutdown" in
  Alcotest.check_raises "submit" expected (fun () ->
      ignore (Sched.Pool.submit pool (fun () -> 0)));
  Alcotest.check_raises "run (via submit)" expected (fun () ->
      ignore (Sched.Pool.run pool (fun () -> 0)));
  (* map over a warm pool reports the same error *)
  Alcotest.check_raises "map" expected (fun () ->
      ignore (Sched.map ~pool (fun x -> x) [ 1; 2; 3 ]))

(* in_flight = queued + running must account every submission exactly,
   also when the submitters race each other from several threads. *)
let test_pool_in_flight_concurrent_submitters () =
  let pool = Sched.Pool.create ~jobs:2 () in
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

let test_pool_sweep_identical () =
  let programs =
    List.filter_map
      (fun n ->
        match Fpx_workloads.Catalog.find n with
        | w -> Some w
        | exception Not_found -> None)
      [ "Triad"; "GEMM"; "hotspot" ]
  in
  let tool = R.Detector Gpu_fpx.Detector.default_config in
  let seq = Sweep.report_json (Sweep.run ~tool programs) in
  let pool = Sched.Pool.create ~jobs:3 () in
  Fun.protect
    ~finally:(fun () -> Sched.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check string) "pool sweep = sequential bytes" seq
        (Sweep.report_json (Sweep.run ~pool ~tool programs));
      (* and again on the warm pool *)
      Alcotest.(check string) "second pool sweep identical" seq
        (Sweep.report_json (Sweep.run ~pool ~tool programs)))

(* --- Loc_table.merge -------------------------------------------------- *)

let e ~kernel ~pc ~loc = { L.kernel; pc; loc; sass = kernel ^ "-sass" }

let test_loc_merge_dedup_count () =
  let a = L.create () and b = L.create () in
  ignore (L.intern a (e ~kernel:"k1" ~pc:0 ~loc:"k1.cu:1") : int);
  ignore (L.intern a (e ~kernel:"k1" ~pc:4 ~loc:"k1.cu:2") : int);
  ignore (L.intern b (e ~kernel:"k1" ~pc:4 ~loc:"k1.cu:2") : int);
  ignore (L.intern b (e ~kernel:"k2" ~pc:0 ~loc:"k2.cu:1") : int);
  let m = L.merge a b in
  Alcotest.(check int) "union size (shared (k1,4) counted once)" 3 (L.size m);
  Alcotest.(check int) "self-merge is idempotent" 3 (L.size (L.merge m m));
  (* inputs untouched *)
  Alcotest.(check int) "left intact" 2 (L.size a);
  Alcotest.(check int) "right intact" 2 (L.size b)

let test_loc_merge_first_seen () =
  let a = L.create () and b = L.create () in
  ignore (L.intern a (e ~kernel:"k1" ~pc:0 ~loc:"left.cu:1") : int);
  (* same (kernel, pc) key with a different loc string on the right:
     the merged table must keep the left (first-seen) entry *)
  ignore (L.intern b (e ~kernel:"k1" ~pc:0 ~loc:"right.cu:9") : int);
  ignore (L.intern b (e ~kernel:"k3" ~pc:8 ~loc:"k3.cu:3") : int);
  let m = L.merge a b in
  Alcotest.(check string) "first-seen loc wins" "left.cu:1" (L.entry m 0).L.loc;
  Alcotest.(check string) "left entries keep their indices" "left.cu:1"
    (L.entry m (L.intern m (e ~kernel:"k1" ~pc:0 ~loc:"ignored"))).L.loc;
  Alcotest.(check (list string))
    "index order = left entries then new right entries"
    [ "left.cu:1"; "k3.cu:3" ]
    (List.map (fun (en : L.entry) -> en.L.loc) (L.entries m))

(* --- Global_table.merge ----------------------------------------------- *)

let test_gt_merge () =
  let a = G.create () and b = G.create () in
  ignore (G.test_and_set a 1 : bool);
  ignore (G.test_and_set a 7 : bool);
  ignore (G.test_and_set b 7 : bool);
  ignore (G.test_and_set b 42 : bool);
  let m = G.merge a b in
  Alcotest.(check int) "union cardinal" 3 (G.cardinal m);
  Alcotest.(check bool) "slot from left" true (G.mem m 1);
  Alcotest.(check bool) "shared slot" true (G.mem m 7);
  Alcotest.(check bool) "slot from right" true (G.mem m 42);
  Alcotest.(check bool) "unset stays unset" false (G.mem m 2);
  Alcotest.(check int) "left intact" 2 (G.cardinal a);
  Alcotest.(check int) "right intact" 2 (G.cardinal b)

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
      Alcotest.test_case "mapi: indices" `Quick test_mapi_indices;
      Alcotest.test_case "first error in input order" `Quick
        test_first_error_wins;
      Alcotest.test_case "iter covers every item" `Quick
        test_iter_runs_everything;
      Alcotest.test_case "recommended jobs" `Quick test_recommended_jobs;
      Alcotest.test_case "pool: map matches sequential" `Quick
        test_pool_map_matches_seq;
      Alcotest.test_case "pool: first error in input order" `Quick
        test_pool_first_error_wins;
      Alcotest.test_case "pool: submit/await" `Quick test_pool_submit_await;
      Alcotest.test_case "pool: shutdown rejects submits" `Quick
        test_pool_shutdown_rejects;
      Alcotest.test_case "pool: shutdown completes pending futures" `Quick
        test_pool_shutdown_completes_pending;
      Alcotest.test_case "pool: submit-after-shutdown error" `Quick
        test_pool_submit_after_shutdown_message;
      Alcotest.test_case "pool: in_flight under concurrent submitters"
        `Quick test_pool_in_flight_concurrent_submitters;
      Alcotest.test_case "pool: sweep byte-identical" `Quick
        test_pool_sweep_identical;
      Alcotest.test_case "loc merge: dedup count" `Quick
        test_loc_merge_dedup_count;
      Alcotest.test_case "loc merge: first-seen wins" `Quick
        test_loc_merge_first_seen;
      Alcotest.test_case "global-table merge" `Quick test_gt_merge;
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
