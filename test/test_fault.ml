(* fpx_fault: plan determinism, per-site stream independence, the
   channel's graceful-degradation behaviours, and end-to-end runner
   statuses under injection. *)

module Fault = Fpx_fault.Fault
module Channel = Fpx_gpu.Channel
module Cost = Fpx_gpu.Cost
module Stats = Fpx_gpu.Stats
module R = Fpx_harness.Runner
module Catalog = Fpx_workloads.Catalog

let qcheck_case t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

let active_exn plan =
  match Fault.active plan with
  | Some a -> a
  | None -> Alcotest.fail "expected an active plan"

(* --- plan ------------------------------------------------------------ *)

let test_none_inactive () =
  Alcotest.(check bool) "none is inactive" false (Fault.is_active Fault.none);
  Alcotest.(check bool) "no active view" true (Fault.active Fault.none = None)

let test_site_names_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Fault.site_to_string s)
        true
        (Fault.site_of_string (Fault.site_to_string s) = Some s))
    Fault.all_sites;
  Alcotest.(check bool) "unknown name" true
    (Fault.site_of_string "no-such-site" = None)

let decisions a site n = List.init n (fun _ -> Fault.roll a site)

let test_plan_deterministic () =
  (* two plans from the same spec make identical decisions at every
     site *)
  let spec = Fault.spec ~seed:42 ~rate:0.3 () in
  let a1 = active_exn (Fault.of_spec spec)
  and a2 = active_exn (Fault.of_spec spec) in
  List.iter
    (fun site ->
      Alcotest.(check (list bool))
        (Fault.site_to_string site)
        (decisions a1 site 200) (decisions a2 site 200))
    Fault.all_sites

let test_streams_independent () =
  (* interleaving draws at one site must not shift another site's
     sequence *)
  let spec = Fault.spec ~seed:7 ~rate:0.5 () in
  let a1 = active_exn (Fault.of_spec spec) in
  let pure = decisions a1 Fault.Channel_drop 100 in
  let a2 = active_exn (Fault.of_spec spec) in
  let interleaved =
    List.init 100 (fun _ ->
        ignore (Fault.roll a2 Fault.Jit_fail : bool);
        ignore (Fault.draw a2 Fault.Mem_bit_flip : int);
        Fault.roll a2 Fault.Channel_drop)
  in
  Alcotest.(check (list bool)) "same sequence" pure interleaved

let test_disabled_site_never_fires () =
  let spec = Fault.spec ~sites:[ Fault.Channel_drop ] ~rate:1.0 ~seed:1 () in
  let a = active_exn (Fault.of_spec spec) in
  Alcotest.(check bool) "enabled fires" true (Fault.roll a Fault.Channel_drop);
  Alcotest.(check bool) "disabled never" true
    (List.for_all not (decisions a Fault.Jit_fail 50))

let test_counters_and_reasons () =
  let spec = Fault.spec ~rate:1.0 ~seed:3 () in
  let a = active_exn (Fault.of_spec spec) in
  Alcotest.(check int) "starts empty" 0 (Fault.total_injected a);
  Alcotest.(check (list string)) "no reasons" [] (Fault.reasons a);
  ignore (Fault.fire a Fault.Drain_fail : bool);
  ignore (Fault.fire a Fault.Drain_fail : bool);
  Fault.note a Fault.Channel_drop;
  Alcotest.(check int) "three injected" 3 (Fault.total_injected a);
  Alcotest.(check int) "drain twice" 2 (Fault.injected a Fault.Drain_fail);
  Alcotest.(check (list string))
    "reasons ordered by site" [ "channel-drop(1)"; "drain-fail(2)" ]
    (Fault.reasons a)

(* --- channel under faults -------------------------------------------- *)

(* Pushes the packets (i, 1000 + i, -i) for i = 1..n and drains them,
   returning the delivered packets in order. *)
let drained_with ~spec n =
  let fault = Fault.of_spec spec in
  let ch = Channel.create ~fault ~cost:Cost.default () in
  let stats = Stats.create () in
  Channel.new_launch ch;
  for i = 1 to n do
    Channel.push ch ~stats i (1000 + i) (-i)
  done;
  let got = ref [] in
  let delivered =
    Channel.drain ch ~stats (fun a b c -> got := (a, b, c) :: !got)
  in
  Alcotest.(check int) "drain returns the delivered count"
    (List.length !got) delivered;
  (List.rev !got, ch, stats)

let packets = Alcotest.(list (triple int int int))

let test_channel_drop_all () =
  let spec = Fault.spec ~sites:[ Fault.Channel_drop ] ~rate:1.0 ~seed:9 () in
  let got, ch, stats = drained_with ~spec 50 in
  Alcotest.check packets "nothing delivered" [] got;
  Alcotest.(check int) "all dropped" 50 (Channel.dropped ch);
  Alcotest.(check int) "retried before dropping"
    (50 * Cost.default.Cost.retry_limit)
    (Channel.retries ch);
  Alcotest.(check bool) "backoff cycles charged" true
    (stats.Stats.fault_cycles > 0)

let test_channel_corrupt_detected () =
  let spec =
    Fault.spec ~sites:[ Fault.Channel_corrupt ] ~rate:1.0 ~seed:9 ()
  in
  let got, ch, _ = drained_with ~spec 20 in
  Alcotest.check packets "all discarded, none mis-decoded" [] got;
  Alcotest.(check int) "all detected" 20 (Channel.corrupt_detected ch)

let test_channel_drain_failure () =
  let spec = Fault.spec ~sites:[ Fault.Drain_fail ] ~rate:1.0 ~seed:9 () in
  let got, ch, _ = drained_with ~spec 20 in
  Alcotest.check packets "everything pending lost" [] got;
  Alcotest.(check int) "one failed drain" 1 (Channel.drain_failures ch)

let test_channel_stall_burst_charged () =
  let spec = Fault.spec ~sites:[ Fault.Channel_stall ] ~rate:1.0 ~seed:9 () in
  let got, _, stats = drained_with ~spec 10 in
  Alcotest.check packets "records still delivered"
    (List.init 10 (fun k -> (k + 1, 1001 + k, -(k + 1))))
    got;
  Alcotest.(check int) "one burst per push"
    (10 * Cost.default.Cost.stall_burst)
    stats.Stats.fault_cycles

(* --- qcheck properties ------------------------------------------------ *)

let prop_none_is_exact =
  QCheck.Test.make ~count:50 ~name:"Fault.none channel is exact"
    QCheck.(list_of_size (Gen.int_bound 200) (triple int int int))
    (fun xs ->
      let ch = Channel.create ~cost:Cost.default () in
      let stats = Stats.create () in
      Channel.new_launch ch;
      List.iter (fun (a, b, c) -> Channel.push ch ~stats a b c) xs;
      let got = ref [] in
      let n = Channel.drain ch ~stats (fun a b c -> got := (a, b, c) :: !got) in
      List.rev !got = xs
      && n = List.length xs
      && stats.Stats.records_pushed = List.length xs
      && stats.Stats.fault_cycles = 0)

let prop_same_seed_same_json =
  QCheck.Test.make ~count:8 ~name:"same fault seed, identical measurement"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let fault = Fault.spec ~rate:0.2 ~seed () in
      let w = Catalog.find "GRAMSCHM" in
      let j () = R.to_json (R.run ~fault ~tool:(R.Detector Gpu_fpx.Detector.default_config) w) in
      j () = j ())

(* --- runner statuses -------------------------------------------------- *)

let test_runner_completed_without_fault () =
  let m = R.run ~tool:(R.Detector Gpu_fpx.Detector.default_config)
      (Catalog.find "GRAMSCHM")
  in
  Alcotest.(check string) "completed" "completed"
    (R.status_to_string m.R.status)

let test_runner_degraded_under_drops () =
  let fault =
    Fault.spec ~sites:[ Fault.Channel_drop ] ~rate:0.9 ~seed:11 ()
  in
  let m =
    R.run ~fault ~tool:(R.Detector Gpu_fpx.Detector.default_config)
      (Catalog.find "GRAMSCHM")
  in
  Alcotest.(check string) "degraded" "degraded"
    (R.status_to_string m.R.status);
  Alcotest.(check bool) "names the drop site" true
    (match m.R.status with
    | R.Degraded (r :: _) ->
      String.length r >= 12 && String.sub r 0 12 = "channel-drop"
    | _ -> false)

let test_runner_gt_fallback () =
  let fault =
    Fault.spec ~sites:[ Fault.Gt_alloc_fail ] ~rate:1.0 ~seed:5 ()
  in
  let m =
    R.run ~fault ~tool:(R.Detector Gpu_fpx.Detector.default_config)
      (Catalog.find "GRAMSCHM")
  in
  Alcotest.(check string) "degraded" "degraded"
    (R.status_to_string m.R.status);
  Alcotest.(check bool) "warning logged" true
    (List.exists
       (fun l ->
         String.length l >= 16 && String.sub l 0 16 = "#GPU-FPX WARNING")
       m.R.log);
  (* the fallback pushes every occurrence, so the unique findings are
     still all there *)
  Alcotest.(check int) "findings intact" 9 m.R.total_exceptions

(* The executor's budget watchdog ends the run as a hang (exit 2 in the
   CLI), like the runtime's slowdown watchdog, with the watchdog's message as
   the status detail. *)
let test_runner_watchdog_hung () =
  let fault =
    Fault.spec ~sites:[ Fault.Watchdog_exhaust ] ~rate:1.0 ~seed:5 ()
  in
  let m =
    R.run ~fault ~tool:(R.Detector Gpu_fpx.Detector.default_config)
      (Catalog.find "myocyte")
  in
  Alcotest.(check string) "hung" "hung" (R.status_to_string m.R.status);
  Alcotest.(check bool) "hang flag" true m.R.hang;
  let msg = R.status_detail m.R.status in
  Alcotest.(check bool) "watchdog message" true
    (String.length msg >= 9 && String.sub msg 0 9 = "watchdog:")

let suite =
  ( "fault",
    [ Alcotest.test_case "none is inactive" `Quick test_none_inactive;
      Alcotest.test_case "site names round-trip" `Quick
        test_site_names_roundtrip;
      Alcotest.test_case "plan deterministic" `Quick test_plan_deterministic;
      Alcotest.test_case "streams independent" `Quick test_streams_independent;
      Alcotest.test_case "disabled site never fires" `Quick
        test_disabled_site_never_fires;
      Alcotest.test_case "counters and reasons" `Quick
        test_counters_and_reasons;
      Alcotest.test_case "channel: drop all" `Quick test_channel_drop_all;
      Alcotest.test_case "channel: corruption detected" `Quick
        test_channel_corrupt_detected;
      Alcotest.test_case "channel: drain failure" `Quick
        test_channel_drain_failure;
      Alcotest.test_case "channel: stall bursts charged" `Quick
        test_channel_stall_burst_charged;
      qcheck_case prop_none_is_exact;
      qcheck_case prop_same_seed_same_json;
      Alcotest.test_case "runner: completed" `Quick
        test_runner_completed_without_fault;
      Alcotest.test_case "runner: degraded under drops" `Quick
        test_runner_degraded_under_drops;
      Alcotest.test_case "runner: GT-alloc fallback" `Quick
        test_runner_gt_fallback;
      Alcotest.test_case "runner: watchdog fault" `Slow
        test_runner_watchdog_hung ] )
