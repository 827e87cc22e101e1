module W = Fpx_workloads.Workload
module Catalog = Fpx_workloads.Catalog
module Isa = Fpx_sass.Isa
module Exce = Fpx_tool.Exce
module Detector = Gpu_fpx.Detector
module Sampling = Gpu_fpx.Sampling

type perf = {
  binfpe : Runner.measurement list;
  fpx_no_gt : Runner.measurement list;
  fpx : Runner.measurement list;
}

let detector_config ?(use_gt = true) ?(k = 0) ?(static_prune = false) () =
  {
    Detector.use_gt;
    warp_leader = true;
    sampling = (if k = 0 then Sampling.always else Sampling.every k);
    adaptive_backoff = false;
    static_prune;
  }

let perf_sweep ?(jobs = 1) ?(programs = Catalog.evaluated) () =
  let sweep tool = Sweep.run ~jobs ~tool programs in
  {
    binfpe = sweep Runner.Binfpe;
    fpx_no_gt = sweep (Runner.Detector (detector_config ~use_gt:false ()));
    fpx = sweep (Runner.Detector (detector_config ()));
  }

(* --- Structural tables ------------------------------------------------ *)

let table1 () =
  let rows =
    List.map
      (fun (m, d, c) ->
        [ m; d;
          (match c with
          | `Computation -> "Computation"
          | `Control_flow -> "Control Flow") ])
      Isa.table1
  in
  Ascii.section "Table 1: SASS opcodes supported by GPU-FPX"
  ^ Ascii.table ~header:[ "Instruction"; "Description"; "Class" ] rows

let table2 () =
  let rows =
    List.map
      (fun (s, cond) -> [ Gpu_fpx.Analyzer.state_to_string s; cond ])
      Gpu_fpx.Analyzer.table2
  in
  Ascii.section "Table 2: instruction state categorisation (analyzer)"
  ^ Ascii.table ~header:[ "State"; "Condition" ] rows

let table3 () =
  let rows =
    List.map
      (fun suite ->
        let ps = Catalog.by_suite suite in
        let names = List.map (fun w -> w.W.name) ps in
        let shown =
          if suite = W.Cuda_samples then
            Printf.sprintf "%d programs" (List.length ps)
          else String.concat ", " names
        in
        [ W.suite_to_string suite; string_of_int (List.length ps); shown ])
      W.all_suites
  in
  Ascii.section
    (Printf.sprintf "Table 3: evaluated programs (%d total)"
       (List.length Catalog.evaluated))
  ^ Ascii.table ~header:[ "Suite"; "#"; "Programs" ] rows

(* --- Table 4 ----------------------------------------------------------- *)

let count_cells (m : Runner.measurement) =
  List.map
    (fun fmt ->
      List.map (fun exce -> Runner.count m ~fmt ~exce) Exce.all)
    [ Isa.FP64; Isa.FP32 ]

let table4_header =
  [ "Suite"; "Program"; "64:NAN"; "INF"; "SUB"; "DIV0"; "32:NAN"; "INF";
    "SUB"; "DIV0" ]

let table4 () =
  let ms =
    List.filter_map
      (fun w ->
        if not w.W.meaningful then None
        else
          let m = Runner.run ~tool:(Runner.Detector (detector_config ())) w in
          if m.Runner.total_exceptions > 0 then Some (w, m) else None)
      Catalog.evaluated
  in
  let rows =
    List.map
      (fun ((w : W.t), m) ->
        [ W.suite_to_string w.W.suite; w.W.name ]
        @ List.concat_map (List.map string_of_int) (count_cells m))
      ms
  in
  let txt =
    Ascii.section
      (Printf.sprintf
         "Table 4: exceptions detected by GPU-FPX (%d programs with \
          meaningful exceptions)"
         (List.length ms))
    ^ Ascii.table ~header:table4_header rows
  in
  (txt, List.map snd ms)

(* --- Figures 4 and 5 --------------------------------------------------- *)

let buckets =
  [ ("<10x", fun s -> s < 10.0);
    ("10-100x", fun s -> s >= 10.0 && s < 100.0);
    ("100-1000x", fun s -> s >= 100.0 && s < 1000.0);
    (">=1000x", fun s -> s >= 1000.0) ]

let bucket_counts ms =
  List.map
    (fun (_, p) ->
      List.length
        (List.filter
           (fun (m : Runner.measurement) -> (not m.Runner.hang) && p m.Runner.slowdown)
           ms))
    buckets
  @ [ List.length (List.filter (fun (m : Runner.measurement) -> m.Runner.hang) ms) ]

let figure4 perf =
  let labels = List.map fst buckets @ [ "hang" ] in
  let series =
    [ ("BinFPE", bucket_counts perf.binfpe);
      ("GPU-FPX w/o GT", bucket_counts perf.fpx_no_gt);
      ("GPU-FPX w/ GT", bucket_counts perf.fpx) ]
  in
  Ascii.section "Figure 4: slowdown distribution across the catalog"
  ^ Ascii.histogram ~title:"programs per slowdown range"
      ~labels
      (List.map (fun (n, c) -> (n, c)) series)

let figure5 perf =
  let pts =
    List.map2
      (fun (f : Runner.measurement) (b : Runner.measurement) ->
        (f.Runner.slowdown, b.Runner.slowdown))
      perf.fpx perf.binfpe
  in
  let above =
    List.length (List.filter (fun (x, y) -> y > x) pts)
  in
  let two_oom =
    List.length (List.filter (fun (x, y) -> y >= 100.0 *. x) pts)
  in
  let three_oom =
    List.length (List.filter (fun (x, y) -> y >= 1000.0 *. x) pts)
  in
  Ascii.section "Figure 5: per-program slowdown, BinFPE vs GPU-FPX"
  ^ Ascii.scatter ~title:"each point = one program"
      ~xlabel:"GPU-FPX slowdown" ~ylabel:"BinFPE slowdown" pts
  ^ Printf.sprintf
      "points above the diagonal (GPU-FPX faster): %d / %d\n\
       programs where GPU-FPX is >=2 orders of magnitude faster: %d\n\
       programs where GPU-FPX is >=3 orders of magnitude faster: %d\n"
      above (List.length pts) two_oom three_oom

(* --- Table 5 and Figure 6 (sampling) ----------------------------------- *)

let severe_programs =
  [ "myocyte"; "Sw4lite (64)"; "Laghos" ]

let table5 () =
  let fmt_cell full k64 =
    if full = k64 then string_of_int full
    else Printf.sprintf "%d->%d" full k64
  in
  let rows =
    List.map
      (fun name ->
        let w = Catalog.find name in
        let full = Runner.run ~tool:(Runner.Detector (detector_config ())) w in
        let samp =
          Runner.run ~tool:(Runner.Detector (detector_config ~k:64 ())) w
        in
        [ name ]
        @ List.concat_map
            (fun fmt ->
              List.map
                (fun exce ->
                  fmt_cell (Runner.count full ~fmt ~exce)
                    (Runner.count samp ~fmt ~exce))
                Exce.all)
            [ Isa.FP64; Isa.FP32 ])
      severe_programs
  in
  Ascii.section
    "Table 5: detection change from full instrumentation to 1-in-64 sampling"
  ^ Ascii.table
      ~header:
        [ "Program"; "64:NAN"; "INF"; "SUB"; "DIV0"; "32:NAN"; "INF"; "SUB";
          "DIV0" ]
      rows

let sampling_factors = [ 0; 4; 16; 64; 256 ]

let figure6 () =
  let programs = Catalog.evaluated in
  let rows =
    List.map
      (fun k ->
        let ms =
          List.map
            (fun w ->
              Runner.run ~tool:(Runner.Detector (detector_config ~k ())) w)
            programs
        in
        let g = Runner.geomean (List.map (fun m -> m.Runner.slowdown) ms) in
        let total =
          List.fold_left (fun a m -> a + m.Runner.total_exceptions) 0 ms
        in
        (k, g, total))
      sampling_factors
  in
  let cumf = Catalog.find "CuMF-Movielens" in
  let cumf_full = Runner.run ~tool:(Runner.Detector (detector_config ())) cumf in
  let cumf_s =
    Runner.run ~tool:(Runner.Detector (detector_config ~k:256 ())) cumf
  in
  Ascii.section "Figure 6: FREQ-REDN-FACTOR vs slowdown and detection"
  ^ Ascii.table
      ~header:[ "freq-redn-factor"; "geomean slowdown"; "total exceptions" ]
      (List.map
         (fun (k, g, total) ->
           [ (if k = 0 then "1 (off)" else string_of_int k);
             Printf.sprintf "%.2fx" g; string_of_int total ])
         rows)
  ^ Printf.sprintf
      "\nCuMF-Movielens anecdote: slowdown %.1fx at full instrumentation vs \
       %.1fx at k=256 (%.0fx improvement), exceptions %d -> %d (none lost)\n"
      cumf_full.Runner.slowdown cumf_s.Runner.slowdown
      (cumf_full.Runner.slowdown /. cumf_s.Runner.slowdown)
      cumf_full.Runner.total_exceptions cumf_s.Runner.total_exceptions

(* --- Table 6 (fast-math) ----------------------------------------------- *)

let fastmath_programs =
  [ "GRAMSCHM"; "LU"; "cfd"; "myocyte"; "S3D"; "stencil"; "wp"; "rayTracing" ]

let table6 () =
  let rows =
    List.concat_map
      (fun name ->
        let w = Catalog.find name in
        let row mode flag =
          let m =
            Runner.run ~mode ~tool:(Runner.Detector (detector_config ())) w
          in
          [ name; flag ]
          @ List.concat_map (List.map string_of_int) (count_cells m)
        in
        [ row Fpx_klang.Mode.precise "no";
          row Fpx_klang.Mode.fast_math "yes" ])
      fastmath_programs
  in
  Ascii.section "Table 6: --use_fast_math effect on detected exceptions"
  ^ Ascii.table
      ~header:
        [ "Program"; "fastmath"; "64:NAN"; "INF"; "SUB"; "DIV0"; "32:NAN";
          "INF"; "SUB"; "DIV0" ]
      rows

(* --- Table 7 (diagnosis) ----------------------------------------------- *)

let table7_programs =
  [ ("GRAMSCHM", `Fixable);
    ("LU", `Fixable);
    ("myocyte", `Needs_experts);
    ("S3D", `Benign);
    ("interval", `Benign);
    ("Laghos", `Needs_experts);
    ("Sw4lite (64)", `Needs_experts);
    ("HPCG", `Needs_experts);
    ("CuMF-Movielens", `Fixable);
    ("cuML-HousePrice", `Fixable);
    ("SRU-Example", `Fixable) ]

let table7 () =
  let yn b = if b then "yes" else "no" in
  let rows =
    List.map
      (fun (name, klass) ->
        let w = Catalog.find name in
        let m = Runner.run ~tool:Runner.Analyzer w in
        (* diagnosable: the analyzer localised an appearance (or a
           comparison involving the exception) somewhere. *)
        let diagnosable =
          match klass with
          | `Needs_experts -> false
          | `Fixable | `Benign -> m.Runner.analyzer_reports <> []
        in
        (* "matters" is computed, not hand-labelled: did a NaN/INF
           actually escape to the program's memory? *)
        let matters = m.Runner.escapes <> [] in
        let fixed =
          match Runner.run_repair ~tool:(Runner.Detector (detector_config ())) w with
          | Some rm ->
            let before =
              Runner.run ~tool:(Runner.Detector (detector_config ())) w
            in
            let severe m =
              List.fold_left
                (fun a (_, e, n) ->
                  match e with
                  | Exce.Nan | Exce.Inf | Exce.Div0 -> a + n
                  | Exce.Sub -> a)
                0 m.Runner.counts
            in
            Some (severe rm < severe before)
          | None -> None
        in
        [ name;
          yn diagnosable;
          (match klass with
          | `Needs_experts -> "N.A."
          | `Benign -> "no"
          | `Fixable -> yn matters);
          (match fixed, klass with
          | Some b, `Fixable -> yn b
          | _, `Benign -> "N.A."
          | _ -> "N.A.") ])
      table7_programs
  in
  Ascii.section "Table 7: diagnoses and repairs with the analyzer"
  ^ Ascii.table ~header:[ "Program"; "Diagnose?"; "Matters?"; "Fixed?" ] rows

(* --- Machine comparison -------------------------------------------------- *)

let machines () =
  let progs = [ "GRAMSCHM"; "LU"; "myocyte"; "S3D"; "CuMF-Movielens" ] in
  let row name =
    let w = Catalog.find name in
    let per arch =
      let mode = Fpx_klang.Mode.with_arch arch Fpx_klang.Mode.precise in
      let m = Runner.run ~mode ~tool:(Runner.Detector (detector_config ())) w in
      (m.Runner.total_exceptions, m.Runner.slowdown)
    in
    let t_e, t_s = per Fpx_klang.Mode.Turing in
    let a_e, a_s = per Fpx_klang.Mode.Ampere in
    [ name; string_of_int t_e; Printf.sprintf "%.1fx" t_s;
      string_of_int a_e; Printf.sprintf "%.1fx" a_s ]
  in
  (* static expansion-size evidence for §2.2's division note *)
  let div_sizes =
    let k =
      Fpx_klang.Dsl.(
        kernel "divprobe"
          [ ("out", ptr Fpx_klang.Ast.F32); ("a", ptr Fpx_klang.Ast.F32);
            ("n", scalar Fpx_klang.Ast.I32) ]
          [ let_ "i" Fpx_klang.Ast.I32 tid;
            store "out" (v "i") (f32 1.0 /: load "a" (v "i")) ])
    in
    let len arch =
      Fpx_sass.Program.length
        (Fpx_klang.Compile.compile
           ~mode:(Fpx_klang.Mode.with_arch arch Fpx_klang.Mode.precise) k)
    in
    Printf.sprintf
      "FP32 division expansion: %d instructions on Turing, %d on Ampere\n"
      (len Fpx_klang.Mode.Turing) (len Fpx_klang.Mode.Ampere)
  in
  Ascii.section
    "Machine comparison: RTX 2070 SUPER (Turing) vs RTX 3060 (Ampere)"
  ^ Ascii.table
      ~header:
        [ "Program"; "Turing exc."; "slowdown"; "Ampere exc."; "slowdown" ]
      (List.map row progs)
  ^ div_sizes

(* --- Ablations ---------------------------------------------------------- *)

let ablation () =
  let myo = Catalog.find "myocyte" in
  let with_leader = Runner.run ~tool:(Runner.Detector (detector_config ())) myo in
  let without_leader =
    Runner.run
      ~tool:
        (Runner.Detector
           { Detector.use_gt = true; warp_leader = false;
             sampling = Sampling.always; adaptive_backoff = false;
             static_prune = false })
      myo
  in
  let turing =
    Runner.run ~mode:Fpx_klang.Mode.precise
      ~tool:(Runner.Detector (detector_config ())) myo
  in
  let ampere =
    Runner.run
      ~mode:(Fpx_klang.Mode.with_arch Fpx_klang.Mode.Ampere Fpx_klang.Mode.precise)
      ~tool:(Runner.Detector (detector_config ())) myo
  in
  (* Channel-capacity sweep on the hang mechanism: BinFPE ships every
     per-lane value over the channel, so a small buffer congests into a
     hang while an enormous one buys the slowdown back — the pressure
     GPU-FPX instead removes at the source with the GT. *)
  let channel_rows =
    List.map
      (fun cap ->
        let cost =
          { Fpx_gpu.Cost.default with Fpx_gpu.Cost.channel_capacity = cap }
        in
        let m = Runner.run ~cost ~tool:Runner.Binfpe myo in
        [ Printf.sprintf "myocyte, BinFPE, channel capacity %d" cap;
          (if m.Runner.hang then "hang"
           else Printf.sprintf "%.1fx" m.Runner.slowdown);
          string_of_int m.Runner.records;
          string_of_int m.Runner.total_exceptions ])
      [ 64; 256; 1024; 16384; 262144 ]
  in
  (* GT-allocation fixed cost on a Figure-5 outlier: with the one-time
     allocation waived, GPU-FPX beats BinFPE even on a nearly-FP-free
     program — confirming the paper's footnote that the below-diagonal
     points are fixed cost, not checking cost. *)
  let outlier_rows =
    let w = Catalog.find "simpleAWBarrier" in
    let bin = Runner.run ~tool:Runner.Binfpe w in
    let fpx = Runner.run ~tool:(Runner.Detector (detector_config ())) w in
    let fpx_free =
      Runner.run
        ~cost:{ Fpx_gpu.Cost.default with Fpx_gpu.Cost.gt_alloc_per_launch = 0 }
        ~tool:(Runner.Detector (detector_config ())) w
    in
    [ [ "simpleAWBarrier, BinFPE";
        Printf.sprintf "%.2fx" bin.Runner.slowdown;
        string_of_int bin.Runner.records; "-" ];
      [ "simpleAWBarrier, GPU-FPX";
        Printf.sprintf "%.2fx" fpx.Runner.slowdown;
        string_of_int fpx.Runner.records; "-" ];
      [ "simpleAWBarrier, GPU-FPX, GT alloc waived";
        Printf.sprintf "%.2fx" fpx_free.Runner.slowdown;
        string_of_int fpx_free.Runner.records; "-" ] ]
  in
  Ascii.section "Ablations (design choices from DESIGN.md)"
  ^ Ascii.table
      ~header:[ "Configuration"; "slowdown"; "records"; "exceptions" ]
      ([ [ "myocyte, warp-leader dedup";
           Printf.sprintf "%.1fx" with_leader.Runner.slowdown;
           string_of_int with_leader.Runner.records;
           string_of_int with_leader.Runner.total_exceptions ];
         [ "myocyte, per-lane GT probes";
           Printf.sprintf "%.1fx" without_leader.Runner.slowdown;
           string_of_int without_leader.Runner.records;
           string_of_int without_leader.Runner.total_exceptions ];
         [ "myocyte, Turing division expansion";
           Printf.sprintf "%.1fx" turing.Runner.slowdown; "-";
           string_of_int turing.Runner.total_exceptions ];
         [ "myocyte, Ampere division expansion";
           Printf.sprintf "%.1fx" ampere.Runner.slowdown; "-";
           string_of_int ampere.Runner.total_exceptions ] ]
      @ channel_rows @ outlier_rows)

(* --- Headline summary ---------------------------------------------------- *)

let summary perf =
  let slowdowns ms = List.map (fun (m : Runner.measurement) -> m.Runner.slowdown) ms in
  let g_b = Runner.geomean (slowdowns perf.binfpe) in
  let g_f = Runner.geomean (slowdowns perf.fpx) in
  let under10 ms =
    100
    * List.length
        (List.filter (fun (m : Runner.measurement) -> m.Runner.slowdown < 10.0) ms)
    / List.length ms
  in
  let hangs ms =
    List.length (List.filter (fun (m : Runner.measurement) -> m.Runner.hang) ms)
  in
  Ascii.section "Headline results"
  ^ Printf.sprintf
      "geomean slowdown: BinFPE %.1fx, GPU-FPX w/o GT %.1fx, GPU-FPX %.1fx\n\
       geomean speedup of GPU-FPX over BinFPE: %.1fx\n\
       programs under 10x slowdown: BinFPE %d%%, GPU-FPX %d%%\n\
       hangs: BinFPE %d, GPU-FPX w/o GT %d, GPU-FPX w/ GT %d\n"
      g_b
      (Runner.geomean (slowdowns perf.fpx_no_gt))
      g_f (g_b /. g_f) (under10 perf.binfpe) (under10 perf.fpx)
      (hangs perf.binfpe) (hangs perf.fpx_no_gt) (hangs perf.fpx)
