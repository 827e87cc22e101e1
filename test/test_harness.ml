(* Harness tests: the runner, performance-model invariants, NVBit
   runtime behaviour, and the headline claims of §4. *)

module W = Fpx_workloads.Workload
module Catalog = Fpx_workloads.Catalog
module R = Fpx_harness.Runner
module E = Fpx_harness.Experiments
module Gpu = Fpx_gpu
module Json = Fpx_obs.Json

let detector = R.Detector Gpu_fpx.Detector.default_config

let test_geomean () =
  Alcotest.(check (float 1e-9)) "geomean [2;8]" 4.0 (R.geomean [ 2.0; 8.0 ]);
  Alcotest.(check (float 1e-9)) "geomean []" 1.0 (R.geomean []);
  Alcotest.(check (float 1e-9)) "geomean [5]" 5.0 (R.geomean [ 5.0 ])

let test_runner_native_baseline () =
  let m = R.run ~tool:R.No_tool (Catalog.find "GEMM") in
  Alcotest.(check (float 1e-9)) "native slowdown is 1" 1.0 m.R.slowdown;
  Alcotest.(check int) "no records" 0 m.R.records

let test_tool_ordering () =
  (* on an FP-heavy program: native < GPU-FPX < BinFPE *)
  let w = Catalog.find "nbody" in
  let fpx = R.run ~tool:detector w in
  let bin = R.run ~tool:R.Binfpe w in
  Alcotest.(check bool) "fpx slower than native" true (fpx.R.slowdown > 1.0);
  Alcotest.(check bool) "binfpe slower than fpx" true
    (bin.R.slowdown > fpx.R.slowdown)

let test_binfpe_hangs_resolved_by_gt () =
  (* myocyte: BinFPE hangs; GPU-FPX with the global table does not *)
  let w = Catalog.find "myocyte" in
  let bin = R.run ~tool:R.Binfpe w in
  let fpx = R.run ~tool:detector w in
  Alcotest.(check bool) "binfpe hangs" true bin.R.hang;
  Alcotest.(check bool) "gpu-fpx does not" false fpx.R.hang

let test_outlier_programs () =
  (* the three Figure-5 outliers: almost no FP, so GPU-FPX's fixed
     global-table cost makes it slower than BinFPE there *)
  List.iter
    (fun name ->
      let w = Catalog.find name in
      let fpx = R.run ~tool:detector w in
      let bin = R.run ~tool:R.Binfpe w in
      Alcotest.(check bool)
        (name ^ ": BinFPE faster")
        true
        (bin.R.slowdown < fpx.R.slowdown))
    [ "simpleAWBarrier"; "reductionMultiBlockCG";
      "conjugateGradientMultiBlockCG" ]

let test_sampling_reduces_slowdown () =
  let w = Catalog.find "CuMF-Movielens" in
  let full = R.run ~tool:detector w in
  let sampled =
    R.run
      ~tool:
        (R.Detector
           { Gpu_fpx.Detector.default_config with
             Gpu_fpx.Detector.sampling = Gpu_fpx.Sampling.every 256 })
      w
  in
  Alcotest.(check bool) "k=256 at least 3x cheaper" true
    (full.R.slowdown /. sampled.R.slowdown >= 3.0);
  Alcotest.(check int) "no exceptions lost" full.R.total_exceptions
    sampled.R.total_exceptions

let test_no_gt_same_findings () =
  (* the GT is a transfer optimisation: it never changes what is found *)
  List.iter
    (fun name ->
      let w = Catalog.find name in
      let with_gt = R.run ~tool:detector w in
      let without =
        R.run
          ~tool:
            (R.Detector
               { Gpu_fpx.Detector.default_config with Gpu_fpx.Detector.use_gt = false })
          w
      in
      Alcotest.(check int) (name ^ ": same totals") with_gt.R.total_exceptions
        without.R.total_exceptions)
    [ "GRAMSCHM"; "S3D"; "Laghos"; "HPCG" ]

let test_warp_leader_ablation_same_findings () =
  let w = Catalog.find "myocyte" in
  let leader = R.run ~tool:detector w in
  let per_lane =
    R.run
      ~tool:
        (R.Detector
           { Gpu_fpx.Detector.default_config with Gpu_fpx.Detector.warp_leader = false })
      w
  in
  Alcotest.(check int) "same findings" leader.R.total_exceptions
    per_lane.R.total_exceptions

let test_detector_deterministic () =
  let w = Catalog.find "myocyte" in
  let a = R.run ~tool:detector w in
  let b = R.run ~tool:detector w in
  Alcotest.(check int) "same exceptions" a.R.total_exceptions b.R.total_exceptions;
  Alcotest.(check (float 1e-12)) "same slowdown" a.R.slowdown b.R.slowdown

(* --- NVBit runtime ------------------------------------------------------- *)

let test_runtime_invocation_counts () =
  let dev = Gpu.Device.create () in
  let rt = Fpx_nvbit.Runtime.create dev in
  let k = Fpx_workloads.Kernels.copy "count_k" Fpx_klang.Ast.F32 in
  let prog = Fpx_klang.Compile.compile k in
  let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:256 in
  let a = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:256 in
  for _ = 1 to 5 do
    Fpx_nvbit.Runtime.launch rt ~grid:1 ~block:32
      ~params:[ Gpu.Param.Ptr out; Ptr a; I32 32l ] prog
  done;
  Alcotest.(check int) "5 invocations" 5
    (Fpx_nvbit.Runtime.invocations rt ~kernel:"count_k")

let test_runtime_jit_charged_when_enabled () =
  let dev = Gpu.Device.create () in
  let rt = Fpx_nvbit.Runtime.create dev in
  let det = Gpu_fpx.Detector.create dev in
  Fpx_nvbit.Runtime.attach rt (Gpu_fpx.Detector.tool det);
  let k = Fpx_workloads.Kernels.copy "jit_k" Fpx_klang.Ast.F32 in
  let prog = Fpx_klang.Compile.compile k in
  let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:256 in
  let a = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:256 in
  Fpx_nvbit.Runtime.launch rt ~grid:1 ~block:32
    ~params:[ Gpu.Param.Ptr out; Ptr a; I32 32l ] prog;
  let st = Fpx_nvbit.Runtime.totals rt in
  let cost = dev.Gpu.Device.cost in
  Alcotest.(check bool) "jit cycles charged" true
    (st.Gpu.Stats.tool_cycles
    >= cost.Gpu.Cost.jit_launch_fixed
       + (cost.Gpu.Cost.jit_per_instr * Fpx_sass.Program.length prog))

let test_inject_cost () =
  let dev = Gpu.Device.create () in
  let prog =
    Fpx_sass.Program.make ~name:"c" [ Fpx_sass.Instr.make Fpx_sass.Isa.NOP [] ]
  in
  let b = Fpx_tool.Inject.create dev prog in
  Fpx_tool.Inject.insert_before b ~pc:0 ~n_values:3 (fun _ _ -> ());
  Alcotest.(check int) "sites" 1 (Fpx_tool.Inject.sites b);
  let hooks = Fpx_tool.Inject.build b in
  match hooks.Gpu.Exec.before.(0) with
  | [ inj ] ->
    let cost = dev.Gpu.Device.cost in
    Alcotest.(check int) "fixed cost"
      (cost.Gpu.Cost.callback_overhead + (3 * cost.Gpu.Cost.per_value_read))
      inj.Gpu.Exec.fixed_cost
  | _ -> Alcotest.fail "expected one injection"

(* --- Experiment drivers --------------------------------------------------- *)

let test_structural_tables_render () =
  List.iter
    (fun s -> Alcotest.(check bool) "non-empty" true (String.length s > 100))
    (List.map (fun n -> E.report [ n ]) [ "table1"; "table2"; "table3" ])

let test_headline_claims () =
  (* the paper's headline numbers, on a manageable subset for speed:
     GPU-FPX beats BinFPE by a large geomean factor on FP-heavy code *)
  let programs =
    List.map Catalog.find
      [ "nbody"; "GEMM"; "MD"; "hotspot"; "srad"; "backprop"; "Triad";
        "mri-q"; "lavaMD"; "Reduction" ]
  in
  let g tool =
    R.geomean
      (List.map
         (fun (m : R.measurement) -> m.R.slowdown)
         (Fpx_harness.Sweep.run ~tool programs))
  in
  Alcotest.(check bool) "binfpe much slower" true
    (g R.Binfpe /. g detector > 5.0)

(* A report plan holds every distinct result at once, so a measurement
   must be plain data: no device (the 64 MiB global memory alone is
   8.4 M words) and no tool (a detector's 1 MiB global table is 131 K
   words). *)
let test_measurement_holds_no_device () =
  List.iter
    (fun tool ->
      let m = R.run ~tool (Catalog.find "GEMM") in
      let words = Obj.reachable_words (Obj.repr m) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d reachable words"
           (R.tool_config_to_string tool) words)
        true (words < 20_000))
    [ detector;
      R.Detector { Gpu_fpx.Detector.default_config with use_gt = false };
      R.Binfpe;
      R.Analyzer ]

(* Artefacts that share runs render from one plan: the bytes equal the
   artefacts rendered one by one, and each distinct run sets up once.
   Hand count for table5 + table7 + machines + ablation:
   - table5: detector full and 1-in-64 on myocyte, Sw4lite (64), Laghos: 6;
   - table7: the analyzer on its 11 programs, plus the repaired and the
     original detector run of the 5 with a repair (GRAMSCHM, LU,
     CuMF-Movielens, cuML-HousePrice, SRU-Example): 21, total 27;
   - machines: Turing is the default precise mode, so of its 5 programs
     only S3D's detector run is new, plus 5 Ampere runs: 6, total 33;
   - ablation: myocyte without warp leader, 5 BinFPE channel capacities
     and 3 simpleAWBarrier runs are new; the default, precise and Ampere
     myocyte runs are shared: 9, total 42 (of 49 declared). *)
let test_report_plan_shares_runs () =
  let names = [ "table5"; "table7"; "machines"; "ablation" ] in
  let r = Fpx_obs.Span.create ~capacity:(1 lsl 20) () in
  let text = Fpx_obs.Span.with_installed r (fun () -> E.report names) in
  Alcotest.(check string) "same bytes as one by one"
    (String.concat "" (List.map (fun n -> E.report [ n ]) names))
    text;
  Alcotest.(check int) "no span dropped" 0 (Fpx_obs.Span.dropped r);
  Alcotest.(check int) "one setup per distinct run" 42
    (List.length
       (List.filter
          (fun (s : Fpx_obs.Span.span) -> s.Fpx_obs.Span.name = "run.setup")
          (Fpx_obs.Span.spans r)))

let test_channel_capacity_ablation () =
  (* the hang is channel congestion, not instrumentation cost: BinFPE on
     myocyte hangs at the default channel size, but an enormous buffer
     absorbs the per-lane record flood and the run terminates *)
  let w = Catalog.find "myocyte" in
  let default = R.run ~tool:R.Binfpe w in
  let huge =
    R.run
      ~cost:
        { Gpu.Cost.default with Gpu.Cost.channel_capacity = 262_144 }
      ~tool:R.Binfpe w
  in
  Alcotest.(check bool) "hangs at default capacity" true default.R.hang;
  Alcotest.(check bool) "terminates with huge channel" false huge.R.hang;
  Alcotest.(check int) "same records either way" default.R.records
    huge.R.records;
  (* congestion model sanity: slowdown is monotone non-increasing in
     channel capacity *)
  let slowdown cap =
    (R.run
       ~cost:{ Gpu.Cost.default with Gpu.Cost.channel_capacity = cap }
       ~tool:R.Binfpe w)
      .R.slowdown
  in
  let s1 = slowdown 1_024 and s2 = slowdown 16_384 and s3 = slowdown 262_144 in
  Alcotest.(check bool) "monotone in capacity" true (s1 >= s2 && s2 >= s3)

(* --- JSON output ---------------------------------------------------------- *)

(* [R.to_json] is compact: it must parse, and no raw control character
   may appear anywhere in it (the parser itself tolerates them inside
   strings). *)
let json_well_formed s =
  String.for_all (fun c -> Char.code c >= 0x20) s
  && match Json.parse s with
     | _ -> true
     | exception Json.Parse_error _ -> false

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_to_json () =
  let m = R.run ~tool:detector (Catalog.find "GRAMSCHM") in
  let j = R.to_json m in
  Alcotest.(check bool) "well-formed" true (json_well_formed j);
  Alcotest.(check bool) "object" true
    (String.length j > 2 && j.[0] = '{' && j.[String.length j - 1] = '}');
  Alcotest.(check bool) "program field" true
    (contains ~sub:"\"program\":\"GRAMSCHM\"" j);
  Alcotest.(check bool) "counts array" true (contains ~sub:"\"counts\":[" j);
  Alcotest.(check bool) "NaN count present" true
    (contains ~sub:"\"kind\":\"NaN\"" j);
  Alcotest.(check bool) "records field" true
    (contains ~sub:(Printf.sprintf "\"records\":%d" m.R.records) j);
  Alcotest.(check bool) "dyn_instrs field" true
    (contains ~sub:(Printf.sprintf "\"dyn_instrs\":%d" m.R.dyn_instrs) j);
  Alcotest.(check bool) "status field" true
    (contains ~sub:"\"status\":\"completed\"" j);
  Alcotest.(check bool) "status_detail field" true
    (contains ~sub:"\"status_detail\":" j)

(* Every string the reports quote must reparse to itself: a failure
   means the escaper emitted something a JSON parser would reject or
   reread differently. *)
let test_json_escape_roundtrip () =
  let cases =
    [ "plain";
      "quote \" backslash \\ done";
      "multi\nline\nreport log";
      "tab\there, cr\rthere";
      "bell\007 backspace\b formfeed\012 null\000";
      "path\\to\\file \"quoted\"\nend";
      String.init 32 Char.chr ]
  in
  List.iter
    (fun s ->
      let e = Json.quote s in
      Alcotest.(check bool) "round-trip" true (Json.parse e = Json.Str s);
      String.iter
        (fun c ->
          Alcotest.(check bool) "no raw control char escapes the escaper" true
            (Char.code c >= 0x20))
        e)
    cases

(* dune runtest executes from the test build dir, where the (deps ...)
   copy of golden/ lives; a manual `dune exec test/main.exe` from the
   project root sees it under test/golden instead. *)
let golden_path =
  let local = Filename.concat "golden" "gramschm_detect.json" in
  if Sys.file_exists local then local else Filename.concat "test" local

let test_to_json_golden () =
  (* the full serialised report for a deterministic detector run is
     pinned: any drift in the JSON schema or in what the detector finds
     on GRAMSCHM shows up as a diff against the golden file *)
  let expected =
    let ic = open_in_bin golden_path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    String.trim s
  in
  let m = R.run ~tool:detector (Catalog.find "GRAMSCHM") in
  Alcotest.(check string) "matches golden file" expected
    (String.trim (R.to_json m))

(* The one deterministic throughput count: the uninstrumented sweep
   over the evaluated catalog simulates exactly this many dynamic
   instructions, so drift in the workloads, the compiler or the
   execution core's instruction accounting shows up here. *)
let test_catalog_dyn_instrs () =
  let ms = Fpx_harness.Sweep.run ~jobs:1 ~tool:R.No_tool Catalog.evaluated in
  Alcotest.(check int) "dynamic instructions" 774_374
    (List.fold_left (fun a (m : R.measurement) -> a + m.R.dyn_instrs) 0 ms)

let test_to_json_escaping () =
  (* a long multi-line report log must not leak unescaped quotes or raw
     control characters into the JSON string values *)
  let m = R.run ~tool:detector (Catalog.find "myocyte") in
  let j = R.to_json m in
  Alcotest.(check bool) "well-formed with long log" true (json_well_formed j);
  Alcotest.(check bool) "no raw newline" true
    (not (String.contains j '\n'))

(* A standalone .sass kernel that traps ends in a Faulted measurement on
   the standard runner path, never an uncaught exception: the path
   `fpx_run run-sass` and serve .sass submits take. Besides an
   out-of-bounds load, that covers malformed kernels — a missing source
   operand, a predicate past P7 — whose reads raise Invalid_argument.
   The replay oracle files each one as a crash. *)
let test_trapping_sass_faults () =
  List.iter
    (fun (text, expected) ->
      let c = Fpx_fuzz.Repro.of_file (Fpx_sass.Parse.file text) in
      (match (R.run ~tool:detector (Fpx_fuzz.Repro.workload c)).R.status with
      | R.Faulted msg -> Alcotest.(check string) "trap message" expected msg
      | s -> Alcotest.fail ("expected faulted, got " ^ R.status_to_string s));
      Alcotest.(check bool) "replay files a crash" true
        (Fpx_fuzz.Oracle.primary (Fpx_fuzz.Oracle.check c)
        = Some Fpx_fuzz.Oracle.Crash))
    [ ( ".kernel trap_oob\n.launch 1 32\n  MOV R2, 0x7fffff00 ;\n\
        \  LDG.E.32 R4, R2 ;\n  EXIT ;\n",
        "global access out of bounds: 4 bytes at 0x7fffff00 in kernel \
         trap_oob" );
      ("FADD R0, R1 ;\nEXIT ;\n", {|Invalid_argument("index out of bounds")|});
      ( "FSETP.GT.AND P9, R1, R2 ;\nEXIT ;\n",
        {|Invalid_argument("index out of bounds")|} ) ]

let suite =
  ( "harness",
    [ Alcotest.test_case "geomean" `Quick test_geomean;
      Alcotest.test_case "native baseline" `Quick test_runner_native_baseline;
      Alcotest.test_case "tool slowdown ordering" `Quick test_tool_ordering;
      Alcotest.test_case "BinFPE hang resolved by GT" `Quick
        test_binfpe_hangs_resolved_by_gt;
      Alcotest.test_case "Figure 5 outliers" `Quick test_outlier_programs;
      Alcotest.test_case "sampling reduces slowdown, keeps findings" `Quick
        test_sampling_reduces_slowdown;
      Alcotest.test_case "GT never changes findings" `Quick
        test_no_gt_same_findings;
      Alcotest.test_case "warp-leader ablation" `Quick
        test_warp_leader_ablation_same_findings;
      Alcotest.test_case "determinism" `Quick test_detector_deterministic;
      Alcotest.test_case "runtime invocation counts" `Quick
        test_runtime_invocation_counts;
      Alcotest.test_case "JIT cost charged" `Quick
        test_runtime_jit_charged_when_enabled;
      Alcotest.test_case "inject cost model" `Quick test_inject_cost;
      Alcotest.test_case "structural tables render" `Quick
        test_structural_tables_render;
      Alcotest.test_case "channel-capacity ablation" `Quick
        test_channel_capacity_ablation;
      Alcotest.test_case "to_json shape" `Quick test_to_json;
      Alcotest.test_case "json_escape round-trip" `Quick
        test_json_escape_roundtrip;
      Alcotest.test_case "to_json golden file" `Quick test_to_json_golden;
      Alcotest.test_case "to_json escaping" `Quick test_to_json_escaping;
      Alcotest.test_case "trapping .sass run faults" `Quick
        test_trapping_sass_faults;
      Alcotest.test_case "catalog sweep dyn instrs pinned" `Quick
        test_catalog_dyn_instrs;
      Alcotest.test_case "headline claim (subset)" `Slow test_headline_claims;
      Alcotest.test_case "measurement holds no device" `Quick
        test_measurement_holds_no_device;
      Alcotest.test_case "report plan shares runs" `Quick
        test_report_plan_shares_runs ] )

