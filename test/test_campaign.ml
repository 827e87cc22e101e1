(* Architectural bit-flip campaign engine: fault-site plumbing, the
   SASS mutator, outcome classification, and the crash-safe store. *)

module Fault = Fpx_fault.Fault
module Prng = Fault.Prng
module C = Fpx_campaign.Campaign
module Store = Fpx_campaign.Store
module Mutate = Fpx_sass.Mutate
module Program = Fpx_sass.Program
module R = Fpx_harness.Runner

(* --- Prng.pick on an empty array (the campaign's drawing sites) ------ *)

let test_pick_empty_raises () =
  let p = Prng.stream ~seed:1 0 in
  Alcotest.check_raises "names the drawing site"
    (Invalid_argument "Fault.Prng.pick(campaign.programs): empty array")
    (fun () -> ignore (Prng.pick ~what:"campaign.programs" p ([||] : int array)));
  Alcotest.check_raises "default site name"
    (Invalid_argument "Fault.Prng.pick(array): empty array")
    (fun () -> ignore (Prng.pick p ([||] : int array)));
  Alcotest.(check int) "non-empty still draws" 7
    (Prng.pick ~what:"one" p [| 7 |])

(* --- the SASS instruction mutator ------------------------------------ *)

let gemm_prog () =
  let w = Fpx_workloads.Catalog.find "GRAMSCHM" in
  Fpx_klang.Compile.compile ~mode:Fpx_klang.Mode.precise
    (List.hd w.Fpx_workloads.Workload.kernels)

let test_mutate_candidates_never_empty () =
  let prog = gemm_prog () in
  Array.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "pc %d has candidates" i.Fpx_sass.Instr.pc)
        true
        (Mutate.candidates i <> []))
    prog.Program.instrs

let test_mutate_deterministic_and_length_preserving () =
  let prog = gemm_prog () in
  let n = Program.length prog in
  for sel = 0 to 40 do
    let pc = sel mod n in
    match Mutate.instr_flip prog ~pc ~sel, Mutate.instr_flip prog ~pc ~sel with
    | Ok a, Ok b ->
      Alcotest.(check string)
        (Printf.sprintf "pc %d sel %d deterministic" pc sel)
        (Program.disassemble a) (Program.disassemble b);
      Alcotest.(check int)
        (Printf.sprintf "pc %d sel %d length preserved" pc sel)
        n (Program.length a)
    | Error a, Error b ->
      Alcotest.(check string) "same error" a b
    | Ok _, Error _ | Error _, Ok _ ->
      Alcotest.fail "instr_flip nondeterministic"
  done

let test_mutate_changes_program () =
  let prog = gemm_prog () in
  let changed = ref 0 in
  for sel = 0 to 20 do
    match Mutate.instr_flip prog ~pc:(sel mod Program.length prog) ~sel with
    | Ok m ->
      if Program.disassemble m <> Program.disassemble prog then incr changed
    | Error _ -> ()
  done;
  Alcotest.(check bool) "mutations actually mutate" true (!changed > 15)

(* --- targeted architectural faults at the Fault layer ---------------- *)

let test_arch_tick_fires_exactly_once () =
  let spec =
    Fault.spec ~sites:[] ~rate:0.0
      ~arch:(Fault.Reg_flip { at_dyn = 2; lane = 3; reg = 1; bit = 7 })
      ~seed:9 ()
  in
  match Fault.active (Fault.of_spec spec) with
  | None -> Alcotest.fail "plan inactive"
  | Some a ->
    Alcotest.(check bool) "tick 0 silent" true (Fault.arch_tick a = None);
    Alcotest.(check bool) "tick 1 silent" true (Fault.arch_tick a = None);
    (match Fault.arch_tick a with
    | Some (Fault.Reg_flip { reg = 1; bit = 7; _ }) -> ()
    | _ -> Alcotest.fail "tick 2 should deliver the flip");
    Alcotest.(check bool) "fired" true (Fault.arch_fired a);
    Alcotest.(check bool) "tick 3 silent" true (Fault.arch_tick a = None);
    Alcotest.(check int) "noted once" 1
      (Fault.injected a Fault.Reg_bit_flip)

let test_arch_instr_flip_keyed_by_kernel () =
  let spec =
    Fault.spec ~sites:[] ~rate:0.0
      ~arch:(Fault.Instr_flip { kernel = "k1"; pc = 4; sel = 11 })
      ~seed:9 ()
  in
  match Fault.active (Fault.of_spec spec) with
  | None -> Alcotest.fail "plan inactive"
  | Some a ->
    Alcotest.(check bool) "other kernel untouched" true
      (Fault.arch_instr_flip a ~kernel:"other" = None);
    Alcotest.(check bool) "target kernel mutated" true
      (Fault.arch_instr_flip a ~kernel:"k1" = Some (4, 11));
    Alcotest.(check bool) "idempotent across launches" true
      (Fault.arch_instr_flip a ~kernel:"k1" = Some (4, 11));
    Alcotest.(check int) "noted once" 1
      (Fault.injected a Fault.Instr_bit_flip)

(* --- combined channel + watchdog degradation (one plan) -------------- *)

let test_combined_fault_degradation () =
  let fault =
    Fault.spec
      ~sites:[ Fault.Channel_stall; Fault.Drain_fail; Fault.Watchdog_exhaust ]
      ~rate:0.6 ~seed:3 ()
  in
  (* The point: three degradation mechanisms in one plan must yield a
     classified partial measurement, never an unhandled crash. *)
  let m =
    R.run ~fault
      ~tool:(R.Detector Gpu_fpx.Detector.default_config)
      (Fpx_workloads.Catalog.find "GRAMSCHM")
  in
  (match m.R.status with
  | R.Degraded reasons ->
    Alcotest.(check bool) "degradation reasons listed" true (reasons <> [])
  | R.Hung msg ->
    Alcotest.(check bool) "post-hoc or watchdog hang" true
      (msg = ""
      || (String.length msg >= 9 && String.sub msg 0 9 = "watchdog:"))
  | R.Faulted msg -> Alcotest.fail ("triple-fault plan faulted: " ^ msg)
  | R.Completed -> Alcotest.fail "60% triple-fault plan completed cleanly");
  (* partial report still renders *)
  Alcotest.(check bool) "report renders" true
    (String.length (R.to_json m) > 0)

(* --- result lines and the store -------------------------------------- *)

let test_result_line_roundtrip () =
  let r =
    {
      C.id = 41;
      program = "GEMM";
      site = "instr-bit-flip";
      target = "instr k\"x\" pc 3 sel 9";
      outcome = C.Decode_fail;
      detected = false;
      detail = "decode-fail: kernel \"gemm\"\n\tline two";
    }
  in
  (match C.result_of_line (C.result_to_line r) with
  | Some r' -> Alcotest.(check bool) "round-trips" true (r = r')
  | None -> Alcotest.fail "line did not parse");
  Alcotest.(check bool) "torn line rejected" true
    (C.result_of_line "{\"id\":3,\"program\":\"GE" = None)

let tmpdir () = Filename.temp_file "campaign" ".d" |> fun f ->
  Sys.remove f;
  f

let test_store_append_load_reset () =
  let root = tmpdir () in
  let key = Store.key_of ~seed:1 ~total:5 ~budget_factor:16 ~programs:[ "a" ] in
  Alcotest.(check (list string)) "empty before create" [] (Store.load ~root ~key);
  Store.append ~root ~key [ "{\"id\":0}"; "{\"id\":1}" ];
  Store.append ~root ~key [ "{\"id\":2}" ];
  Alcotest.(check (list string)) "appends accumulate"
    [ "{\"id\":0}"; "{\"id\":1}"; "{\"id\":2}" ]
    (Store.load ~root ~key);
  (* simulate a torn trailing write *)
  let oc =
    open_out_gen [ Open_append; Open_wronly ] 0o644 (Store.path ~root ~key)
  in
  output_string oc "{\"id\":3,\"trunc";
  close_out oc;
  Alcotest.(check (list string)) "torn tail dropped"
    [ "{\"id\":0}"; "{\"id\":1}"; "{\"id\":2}" ]
    (Store.load ~root ~key);
  Store.reset ~root ~key;
  Alcotest.(check (list string)) "reset clears" [] (Store.load ~root ~key);
  Alcotest.(check bool) "key independent of nothing else" true
    (String.length key = 32)

(* Stores written before the shared codec escaped CR and TAB as \u00XX;
   they must still load. A braced but malformed line is skipped. *)
let test_store_old_lines () =
  let root = tmpdir () in
  let key = Store.key_of ~seed:2 ~total:9 ~budget_factor:16 ~programs:[ "a" ] in
  Store.append ~root ~key
    [ {|{"id":1,}|};
      {|{"id":7,"program":"GEMM","site":"reg-bit-flip","target":"reg r3","outcome":"crash","detected":false,"detail":"trap:\u000d\u0009 \"q\" \\ end"}|}
    ];
  let expected =
    {
      C.id = 7;
      program = "GEMM";
      site = "reg-bit-flip";
      target = "reg r3";
      outcome = C.Crash;
      detected = false;
      detail = "trap:\r\t \"q\" \\ end";
    }
  in
  Alcotest.(check bool) "old line loads, malformed skipped" true
    (List.filter_map C.result_of_line (Store.load ~root ~key) = [ expected ]);
  Alcotest.(check bool) "rewritten with named escapes" true
    (String.ends_with ~suffix:{|"detail":"trap:\r\t \"q\" \\ end"}|}
       (C.result_to_line expected))

(* --- a tiny end-to-end campaign -------------------------------------- *)

let small_cfg ?store ?halt_after ?(jobs = 1) () =
  C.config ~jobs ~programs:[ "GRAMSCHM"; "Triad" ] ?store ?halt_after
    ~resume:(halt_after = None && store <> None)
    ~minimize:false ~seed:5 ~total:6 ()

let test_campaign_resume_and_jobs_invariance () =
  (* straight run, sequential, no store *)
  let s1 = C.run (C.config ~jobs:1 ~programs:[ "GRAMSCHM"; "Triad" ] ~seed:5 ~total:6 ()) in
  Alcotest.(check int) "all classified" 6 s1.C.completed;
  (* parallel *)
  let s2 = C.run (C.config ~jobs:2 ~programs:[ "GRAMSCHM"; "Triad" ] ~seed:5 ~total:6 ()) in
  Alcotest.(check string) "jobs-invariant summary" (C.summary_json s1)
    (C.summary_json s2);
  (* halted then resumed through a store *)
  let root = tmpdir () in
  let halted =
    C.run
      (C.config ~jobs:2 ~programs:[ "GRAMSCHM"; "Triad" ] ~store:root
         ~halt_after:2 ~seed:5 ~total:6 ())
  in
  Alcotest.(check bool) "halted early" true halted.C.halted;
  Alcotest.(check int) "partial store" 2 halted.C.completed;
  let resumed =
    C.run
      (C.config ~jobs:1 ~programs:[ "GRAMSCHM"; "Triad" ] ~store:root
         ~resume:true ~seed:5 ~total:6 ())
  in
  Alcotest.(check string) "kill+resume byte-identical" (C.summary_json s1)
    (C.summary_json resumed);
  (* every injection lands in exactly one outcome class *)
  Alcotest.(check int) "outcome classes partition the plan" 6
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (C.by_outcome resumed));
  (* a second resume runs nothing and reports the same *)
  let again = C.load (small_cfg ~store:root ()) in
  Alcotest.(check string) "load-only report identical" (C.summary_json s1)
    (C.summary_json again)

let test_rerun_matches_plan () =
  let cfg = C.config ~programs:[ "GRAMSCHM" ] ~seed:5 ~total:4 () in
  let s = C.run cfg in
  let r0 = C.rerun cfg ~id:2 in
  let from_run = List.nth s.C.results 2 in
  Alcotest.(check bool) "rerun reproduces the campaign record" true
    (r0 = from_run);
  Alcotest.check_raises "id outside plan"
    (Invalid_argument "Campaign.rerun: id 9 outside plan 0..3") (fun () ->
      ignore (C.rerun cfg ~id:9))

(* --- the launch ledger ------------------------------------------------ *)

module W = Fpx_workloads.Workload
module D = Gpu_fpx.Detector

(* A store line per injection, sorted as text: the seed-42 plan's ids
   0-299 as the engine classified them before it had a launch ledger. *)
let test_seed42_store_lines () =
  let s = C.run (C.config ~jobs:2 ~minimize:false ~seed:42 ~total:300 ()) in
  let got = List.sort compare (List.map C.result_to_line s.C.results) in
  (* [dune runtest] runs in the build's test dir, a manual [dune exec]
     from the project root *)
  let path =
    let local = Filename.concat "golden" "campaign_seed42_300.jsonl" in
    if Sys.file_exists local then local else Filename.concat "test" local
  in
  let want = In_channel.with_open_text path In_channel.input_lines in
  Alcotest.(check int) "line count" (List.length want) (List.length got);
  List.iter2 (fun w g -> Alcotest.(check string) "store line" w g) want got

let test_ledger_counters () =
  let s =
    C.run
      (C.config ~jobs:1 ~programs:[ "GRAMSCHM"; "Triad"; "hotspot" ]
         ~seed:42 ~total:30 ())
  in
  Alcotest.(check bool) "launches replayed" true (s.C.launches_replayed > 0);
  Alcotest.(check bool) "injections reconverged" true (s.C.reconverged > 0);
  let m = Fpx_obs.Metrics.create () in
  C.record_metrics s m;
  List.iter
    (fun (name, n) ->
      Alcotest.(check (option int)) name (Some n)
        (Fpx_obs.Metrics.counter_value m name))
    [ ("campaign_launches_replayed_total", s.C.launches_replayed);
      ("campaign_reconverged_total", s.C.reconverged) ]

(* A run as a campaign sees it: the JSON report, the final memory
   digest (None when the body did not finish) and the measurement. *)
let observe ?ledger ?fault (w : W.t) =
  let digest = ref None in
  let run ctx =
    w.W.run ctx;
    digest := Some (Fpx_gpu.Memory.digest (W.device ctx).Fpx_gpu.Device.memory)
  in
  let m =
    R.run ?ledger ?fault ~tool:(R.Detector D.default_config) { w with W.run }
  in
  (R.to_json m, !digest, m)

let recorded (w : W.t) =
  let l = R.ledger () in
  let _, digest, _ = observe ~ledger:(R.Record l) w in
  Alcotest.(check bool) "golden run finished" true (digest <> None);
  l

(* The ledger's run against one without it: the same report bytes and
   final memory, and the counters the case expects. *)
let check_against_plain ~what ~replayed ~ledger ~fault w =
  let plain_json, plain_digest, _ = observe ~fault w in
  let json, digest, m = observe ~ledger:(R.Replay ledger) ~fault w in
  Alcotest.(check string) (what ^ ": report") plain_json json;
  Alcotest.(check (option string)) (what ^ ": memory") plain_digest digest;
  Alcotest.(check int) (what ^ ": launches replayed") replayed m.R.replayed;
  Alcotest.(check bool) (what ^ ": no early exit") false m.R.reconverged

let spec arch = Fault.spec ~sites:[] ~rate:0.0 ~arch ~seed:1 ()

(* Three launches: [copy] twice, then [check], whose 16-thread block
   leaves lanes 16-31 dead. [scale] is [check]'s arithmetic: [x * 2]
   raises nothing, [x / 0] an exception the detector logs; either way
   [check] stores [x], so memory cannot tell the two apart. *)
let copy_k =
  Fpx_klang.Dsl.(
    kernel "ledger_copy"
      [ ("out", ptr F32); ("a", ptr F32) ]
      [ store "out" tid (load "a" tid) ])

let check_k scale =
  Fpx_klang.Dsl.(
    kernel "ledger_check"
      [ ("out", ptr F32); ("a", ptr F32) ]
      [ let_ "x" F32 (load "a" tid);
        let_ "t" F32 (scale (v "x"));
        store "out" tid (select (v "t" <: f32 0.0) (v "x") (v "x")) ])

let ledger_workload ?(name = "ledger-probe") ?(copies = 2) ?(second_grid = 1)
    scale =
  W.make ~name ~suite:W.Polybench ~kernels:[ copy_k; check_k scale ]
    (fun ctx ->
      let cp = W.compile ctx copy_k and ck = W.compile ctx (check_k scale) in
      let a = W.f32s ctx (W.randf ~seed:3 ~lo:1.0 ~hi:2.0 64) in
      let o1 = W.zeros ctx ~bytes:256 and o2 = W.zeros ctx ~bytes:256 in
      W.launch ctx ~grid:1 ~block:32 cp [ Ptr o1; Ptr a ];
      if copies > 1 then begin
        W.launch ctx ~grid:second_grid ~block:32 cp [ Ptr o2; Ptr a ];
        W.launch ctx ~grid:1 ~block:16 ck [ Ptr o1; Ptr o2 ]
      end)

let doubled x = Fpx_klang.Dsl.(x *: f32 2.0)
let clean = ledger_workload doubled

let test_ledger_reconverges () =
  let l = recorded clean in
  let _, _, golden = observe clean in
  (* the flip lands in [check]'s second step, in a dead lane, so it
     changes nothing *)
  let _, _, one_copy =
    observe (ledger_workload ~name:"one-copy" ~copies:1 doubled)
  in
  let before_check = 2 * one_copy.R.dyn_instrs in
  Alcotest.(check bool) "check has steps" true
    (golden.R.dyn_instrs > before_check + 1);
  let fault =
    spec
      (Fault.Reg_flip { at_dyn = before_check + 1; lane = 20; reg = 0; bit = 3 })
  in
  let _, digest, m = observe ~ledger:(R.Replay l) ~fault clean in
  Alcotest.(check int) "both copies replayed" 2 m.R.replayed;
  Alcotest.(check bool) "back on the golden state" true m.R.reconverged;
  Alcotest.(check (option string)) "the body did not finish" None digest;
  (* [check] uses no shared memory, so a shared-memory flip there is
     masked too *)
  let _, _, m =
    observe ~ledger:(R.Replay l)
      ~fault:
        (spec
           (Fault.Shmem_flip { at_dyn = before_check + 1; word = 5; bit = 7 }))
      clean
  in
  Alcotest.(check bool) "shared-memory flip reconverges" true m.R.reconverged;
  (* the same flip in a run whose [check] raises an exception the
     golden one did not: memory is equal, the detector is not *)
  let noisy = ledger_workload (fun x -> Fpx_klang.Dsl.(x /: f32 0.0)) in
  check_against_plain ~what:"detector differs" ~replayed:2 ~ledger:l ~fault
    noisy;
  let _, _, m = observe ~fault noisy in
  Alcotest.(check bool) "the noisy run logs more" true (m.R.log <> [])

(* A request that differs from the ledger's at launch 1 ends the replay
   there, mid-prefix: launch 0 is replayed, the rest execute. *)
let test_ledger_request_mismatch () =
  let l = recorded clean in
  let fault =
    spec (Fault.Reg_flip { at_dyn = 1_000_000; lane = 3; reg = 1; bit = 30 })
  in
  check_against_plain ~what:"tampered request" ~replayed:1 ~ledger:l ~fault
    (ledger_workload ~second_grid:2 doubled);
  check_against_plain ~what:"flip past the end" ~replayed:3 ~ledger:l ~fault
    clean;
  (* a budget the first launch exceeds: nothing is replayed, and the
     watchdog stops the run as it would without a ledger *)
  check_against_plain ~what:"budget" ~replayed:0 ~ledger:l
    ~fault:{ fault with Fault.budget = Some 4 }
    clean

(* An instruction flip in GRAMSCHM's third kernel: its first launch is
   launch 2, so launches 0 and 1 are replayed. *)
let test_ledger_instr_flip_prefix () =
  let w = Fpx_workloads.Catalog.find "GRAMSCHM" in
  let l = recorded w in
  let prog =
    Fpx_klang.Compile.compile ~mode:Fpx_klang.Mode.precise
      (List.nth w.W.kernels 2)
  in
  let pc = 5 in
  let sel =
    let rec find sel =
      match Mutate.instr_flip prog ~pc ~sel with
      | Ok _ -> sel
      | Error _ -> find (sel + 1)
    in
    find 0
  in
  let fault =
    spec (Fault.Instr_flip { kernel = prog.Program.name; pc; sel })
  in
  check_against_plain ~what:"instr flip" ~replayed:2 ~ledger:l ~fault w

let suite =
  ( "campaign",
    [ Alcotest.test_case "Prng.pick empty raises" `Quick
        test_pick_empty_raises;
      Alcotest.test_case "mutate: candidates never empty" `Quick
        test_mutate_candidates_never_empty;
      Alcotest.test_case "mutate: deterministic, length-preserving" `Quick
        test_mutate_deterministic_and_length_preserving;
      Alcotest.test_case "mutate: changes the program" `Quick
        test_mutate_changes_program;
      Alcotest.test_case "arch: reg flip fires exactly once" `Quick
        test_arch_tick_fires_exactly_once;
      Alcotest.test_case "arch: instr flip keyed by kernel" `Quick
        test_arch_instr_flip_keyed_by_kernel;
      Alcotest.test_case "combined stall+drain+watchdog degrades, no crash"
        `Quick test_combined_fault_degradation;
      Alcotest.test_case "result line round-trip" `Quick
        test_result_line_roundtrip;
      Alcotest.test_case "store: append/load/torn-tail/reset" `Quick
        test_store_append_load_reset;
      Alcotest.test_case "store: old escapes load, malformed skipped" `Quick
        test_store_old_lines;
      Alcotest.test_case "campaign: resume + jobs invariance" `Quick
        test_campaign_resume_and_jobs_invariance;
      Alcotest.test_case "ledger: seed-42 store lines" `Quick
        test_seed42_store_lines;
      Alcotest.test_case "ledger: counters" `Quick test_ledger_counters;
      Alcotest.test_case "ledger: reconverges, not past the detector" `Quick
        test_ledger_reconverges;
      Alcotest.test_case "ledger: request mismatch falls back" `Quick
        test_ledger_request_mismatch;
      Alcotest.test_case "ledger: instr flip replays the prefix" `Quick
        test_ledger_instr_flip_prefix;
      Alcotest.test_case "campaign: rerun matches plan" `Quick
        test_rerun_matches_plan ] )
