module W = Fpx_workloads.Workload
module Catalog = Fpx_workloads.Catalog
module Isa = Fpx_sass.Isa
module Exce = Fpx_tool.Exce
module Detector = Gpu_fpx.Detector
module Sampling = Gpu_fpx.Sampling
module Mode = Fpx_klang.Mode
module Cost = Fpx_gpu.Cost

(* --- Run keys ------------------------------------------------------------ *)

(* One run the evaluation needs. Keys compare structurally (the whole
   tool config, warp_leader included), so artefacts that need the same
   run share one measurement. A program is its suite and name: GEMM and
   bfs each appear in two suites. *)
type key = {
  suite : W.suite;
  program : string;
  tool : Runner.tool_config;
  mode : Mode.t;
  cost : Cost.t;
  repaired : bool;
}

let run ?(mode = Mode.precise) ?(cost = Cost.default) ?(repaired = false) tool
    (w : W.t) =
  { suite = w.W.suite; program = w.W.name; tool; mode; cost; repaired }

let fpx ?(config = Detector.default_config) ?mode ?cost ?repaired w =
  run ?mode ?cost ?repaired (Runner.Detector config) w

let binfpe w = run Runner.Binfpe w
let no_gt w = fpx ~config:{ Detector.default_config with use_gt = false } w

let sampled k = { Detector.default_config with sampling = Sampling.every k }

(* The plan executor: the one place a run happens. Every distinct result
   stays alive until the report renders, so tool state ([extras], which
   nothing here reads) is dropped: it would multiply peak RSS by six. *)
let measure k =
  let same w = w.W.suite = k.suite && w.W.name = k.program in
  let w = List.find same Catalog.evaluated in
  let w = if k.repaired then { w with W.run = Option.get w.W.repair } else w in
  let m = Runner.run ~cost:k.cost ~mode:k.mode ~tool:k.tool w in
  { m with Runner.extras = [] }

type artefact = {
  name : string;
  keys : key list;
  render : (key -> Runner.measurement) -> string;
}

let static name text = { name; keys = []; render = (fun _ -> text ()) }

let catalog f = List.map f Catalog.evaluated

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

let kinds_header =
  [ "64:NAN"; "INF"; "SUB"; "DIV0"; "32:NAN"; "INF"; "SUB"; "DIV0" ]

let table4 =
  let programs = List.filter (fun w -> w.W.meaningful) Catalog.evaluated in
  let render get =
    let rows =
      List.filter_map
        (fun w ->
          let m = get (fpx w) in
          if m.Runner.total_exceptions = 0 then None
          else
            Some
              ([ W.suite_to_string w.W.suite; w.W.name ]
              @ List.concat_map (List.map string_of_int) (count_cells m)))
        programs
    in
    Ascii.section
      (Printf.sprintf
         "Table 4: exceptions detected by GPU-FPX (%d programs with \
          meaningful exceptions)"
         (List.length rows))
    ^ Ascii.table ~header:("Suite" :: "Program" :: kinds_header) rows
  in
  { name = "table4"; keys = List.map fpx programs; render }

(* --- Figures 4 and 5 --------------------------------------------------- *)

let buckets =
  [ ("<10x", fun s -> s < 10.0);
    ("10-100x", fun s -> s >= 10.0 && s < 100.0);
    ("100-1000x", fun s -> s >= 100.0 && s < 1000.0);
    (">=1000x", fun s -> s >= 1000.0) ]

let bucket_counts ms =
  let count p = List.length (List.filter p ms) in
  List.map
    (fun (_, p) -> count (fun m -> (not m.Runner.hang) && p m.Runner.slowdown))
    buckets
  @ [ count (fun m -> m.Runner.hang) ]

(* The three catalog sweeps behind Figures 4-5 and the headline claims. *)
let perf_keys = catalog binfpe @ catalog no_gt @ catalog fpx

let figure4 =
  let render get =
    let labels = List.map fst buckets @ [ "hang" ] in
    let series =
      [ ("BinFPE", bucket_counts (List.map get (catalog binfpe)));
        ("GPU-FPX w/o GT", bucket_counts (List.map get (catalog no_gt)));
        ("GPU-FPX w/ GT", bucket_counts (List.map get (catalog fpx))) ]
    in
    Ascii.section "Figure 4: slowdown distribution across the catalog"
    ^ Ascii.histogram ~title:"programs per slowdown range" ~labels series
  in
  { name = "figure4"; keys = perf_keys; render }

let figure5 =
  let render get =
    let pts =
      List.map2
        (fun f b -> ((get f).Runner.slowdown, (get b).Runner.slowdown))
        (catalog fpx) (catalog binfpe)
    in
    let count p = List.length (List.filter p pts) in
    Ascii.section "Figure 5: per-program slowdown, BinFPE vs GPU-FPX"
    ^ Ascii.scatter ~title:"each point = one program"
        ~xlabel:"GPU-FPX slowdown" ~ylabel:"BinFPE slowdown" pts
    ^ Printf.sprintf
        "points above the diagonal (GPU-FPX faster): %d / %d\n\
         programs where GPU-FPX is >=2 orders of magnitude faster: %d\n\
         programs where GPU-FPX is >=3 orders of magnitude faster: %d\n"
        (count (fun (x, y) -> y > x))
        (List.length pts)
        (count (fun (x, y) -> y >= 100.0 *. x))
        (count (fun (x, y) -> y >= 1000.0 *. x))
  in
  { name = "figure5"; keys = catalog fpx @ catalog binfpe; render }

(* --- Table 5 and Figure 6 (sampling) ----------------------------------- *)

let severe_programs =
  List.map Catalog.find [ "myocyte"; "Sw4lite (64)"; "Laghos" ]

let table5 =
  let samp w = fpx ~config:(sampled 64) w in
  let fmt_cell full k64 =
    if full = k64 then string_of_int full
    else Printf.sprintf "%d->%d" full k64
  in
  let render get =
    let rows =
      List.map
        (fun w ->
          let full = get (fpx w) and samp = get (samp w) in
          [ w.W.name ]
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
    ^ Ascii.table ~header:("Program" :: kinds_header) rows
  in
  { name = "table5";
    keys = List.concat_map (fun w -> [ fpx w; samp w ]) severe_programs;
    render }

let sampling_factors = [ 0; 4; 16; 64; 256 ]

let figure6 =
  let at k = catalog (fpx ~config:(sampled k)) in
  let cumf = Catalog.find "CuMF-Movielens" in
  let cumf_full = fpx cumf and cumf_s = fpx ~config:(sampled 256) cumf in
  let render get =
    let row k =
      let ms = List.map get (at k) in
      [ (if k = 0 then "1 (off)" else string_of_int k);
        Printf.sprintf "%.2fx"
          (Runner.geomean (List.map (fun m -> m.Runner.slowdown) ms));
        string_of_int
          (List.fold_left (fun a m -> a + m.Runner.total_exceptions) 0 ms) ]
    in
    let cumf_full = get cumf_full and cumf_s = get cumf_s in
    Ascii.section "Figure 6: FREQ-REDN-FACTOR vs slowdown and detection"
    ^ Ascii.table
        ~header:[ "freq-redn-factor"; "geomean slowdown"; "total exceptions" ]
        (List.map row sampling_factors)
    ^ Printf.sprintf
        "\nCuMF-Movielens anecdote: slowdown %.1fx at full instrumentation vs \
         %.1fx at k=256 (%.0fx improvement), exceptions %d -> %d (none lost)\n"
        cumf_full.Runner.slowdown cumf_s.Runner.slowdown
        (cumf_full.Runner.slowdown /. cumf_s.Runner.slowdown)
        cumf_full.Runner.total_exceptions cumf_s.Runner.total_exceptions
  in
  { name = "figure6";
    keys = List.concat_map at sampling_factors @ [ cumf_full; cumf_s ];
    render }

(* --- Table 6 (fast-math) ----------------------------------------------- *)

let fastmath_programs =
  List.map Catalog.find
    [ "GRAMSCHM"; "LU"; "cfd"; "myocyte"; "S3D"; "stencil"; "wp"; "rayTracing" ]

let table6 =
  let modes = [ (Mode.precise, "no"); (Mode.fast_math, "yes") ] in
  let render get =
    let rows =
      List.concat_map
        (fun w ->
          List.map
            (fun (mode, flag) ->
              [ w.W.name; flag ]
              @ List.concat_map (List.map string_of_int)
                  (count_cells (get (fpx ~mode w))))
            modes)
        fastmath_programs
    in
    Ascii.section "Table 6: --use_fast_math effect on detected exceptions"
    ^ Ascii.table ~header:("Program" :: "fastmath" :: kinds_header) rows
  in
  { name = "table6";
    keys =
      List.concat_map
        (fun w -> List.map (fun (mode, _) -> fpx ~mode w) modes)
        fastmath_programs;
    render }

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
  |> List.map (fun (name, klass) -> (Catalog.find name, klass))

let table7 =
  let has_repair w = w.W.repair <> None in
  let keys_of (w, _) =
    run Runner.Analyzer w
    :: (if has_repair w then [ fpx ~repaired:true w; fpx w ] else [])
  in
  let yn b = if b then "yes" else "no" in
  let render get =
    let rows =
      List.map
        (fun (w, klass) ->
          let m = get (run Runner.Analyzer w) in
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
            if has_repair w then
              let severe m =
                List.fold_left
                  (fun a (_, e, n) ->
                    match e with
                    | Exce.Nan | Exce.Inf | Exce.Div0 -> a + n
                    | Exce.Sub -> a)
                  0 m.Runner.counts
              in
              Some
                (severe (get (fpx ~repaired:true w)) < severe (get (fpx w)))
            else None
          in
          [ w.W.name;
            yn diagnosable;
            (match klass with
            | `Needs_experts -> "N.A."
            | `Benign -> "no"
            | `Fixable -> yn matters);
            (match fixed, klass with Some b, `Fixable -> yn b | _ -> "N.A.") ])
        table7_programs
    in
    Ascii.section "Table 7: diagnoses and repairs with the analyzer"
    ^ Ascii.table ~header:[ "Program"; "Diagnose?"; "Matters?"; "Fixed?" ] rows
  in
  { name = "table7"; keys = List.concat_map keys_of table7_programs; render }

(* --- Machine comparison -------------------------------------------------- *)

let machines =
  let progs = [ "GRAMSCHM"; "LU"; "myocyte"; "S3D"; "CuMF-Movielens" ] in
  let archs = [ Mode.Turing; Mode.Ampere ] in
  let at arch name =
    fpx ~mode:(Mode.with_arch arch Mode.precise) (Catalog.find name)
  in
  let render get =
    let row name =
      name
      :: List.concat_map
          (fun arch ->
            let m = get (at arch name) in
            [ string_of_int m.Runner.total_exceptions;
              Printf.sprintf "%.1fx" m.Runner.slowdown ])
          archs
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
          (Fpx_klang.Compile.compile ~mode:(Mode.with_arch arch Mode.precise) k)
      in
      Printf.sprintf
        "FP32 division expansion: %d instructions on Turing, %d on Ampere\n"
        (len Mode.Turing) (len Mode.Ampere)
    in
    Ascii.section
      "Machine comparison: RTX 2070 SUPER (Turing) vs RTX 3060 (Ampere)"
    ^ Ascii.table
        ~header:
          [ "Program"; "Turing exc."; "slowdown"; "Ampere exc."; "slowdown" ]
        (List.map row progs)
    ^ div_sizes
  in
  { name = "machines";
    keys = List.concat_map (fun n -> List.map (fun a -> at a n) archs) progs;
    render }

(* --- Ablations ---------------------------------------------------------- *)

let ablation =
  let myo = Catalog.find "myocyte" and awb = Catalog.find "simpleAWBarrier" in
  let x1 m = Printf.sprintf "%.1fx" m.Runner.slowdown
  and x2 m = Printf.sprintf "%.2fx" m.Runner.slowdown
  and records m = string_of_int m.Runner.records
  and exceptions m = string_of_int m.Runner.total_exceptions
  and dash _ = "-" in
  let rows =
    [ ("myocyte, warp-leader dedup", fpx myo, [ x1; records; exceptions ]);
      ( "myocyte, per-lane GT probes",
        fpx ~config:{ Detector.default_config with warp_leader = false } myo,
        [ x1; records; exceptions ] );
      ("myocyte, Turing division expansion", fpx myo, [ x1; dash; exceptions ]);
      ( "myocyte, Ampere division expansion",
        fpx ~mode:(Mode.with_arch Mode.Ampere Mode.precise) myo,
        [ x1; dash; exceptions ] ) ]
    (* Channel-capacity sweep on the hang mechanism: BinFPE ships every
       per-lane value over the channel, so a small buffer congests into a
       hang while an enormous one buys the slowdown back — the pressure
       GPU-FPX instead removes at the source with the GT. *)
    @ List.map
        (fun cap ->
          ( Printf.sprintf "myocyte, BinFPE, channel capacity %d" cap,
            run ~cost:{ Cost.default with channel_capacity = cap } Runner.Binfpe
              myo,
            [ (fun m -> if m.Runner.hang then "hang" else x1 m);
              records; exceptions ] ))
        [ 64; 256; 1024; 16384; 262144 ]
    (* GT-allocation fixed cost on a Figure-5 outlier: with the one-time
       allocation waived, GPU-FPX beats BinFPE even on a nearly-FP-free
       program — confirming the paper's footnote that the below-diagonal
       points are fixed cost, not checking cost. *)
    @ [ ("simpleAWBarrier, BinFPE", binfpe awb, [ x2; records; dash ]);
        ("simpleAWBarrier, GPU-FPX", fpx awb, [ x2; records; dash ]);
        ( "simpleAWBarrier, GPU-FPX, GT alloc waived",
          fpx ~cost:{ Cost.default with gt_alloc_per_launch = 0 } awb,
          [ x2; records; dash ] ) ]
  in
  let render get =
    Ascii.section "Ablations (design choices from DESIGN.md)"
    ^ Ascii.table
        ~header:[ "Configuration"; "slowdown"; "records"; "exceptions" ]
        (List.map
           (fun (label, k, cells) ->
             let m = get k in
             label :: List.map (fun cell -> cell m) cells)
           rows)
  in
  { name = "ablation"; keys = List.map (fun (_, k, _) -> k) rows; render }

(* --- Headline summary ---------------------------------------------------- *)

let summary =
  let render get =
    let ms f = List.map get (catalog f) in
    let slowdowns = List.map (fun m -> m.Runner.slowdown) in
    let bin = ms binfpe and nogt = ms no_gt and gt = ms fpx in
    let g_b = Runner.geomean (slowdowns bin) in
    let g_f = Runner.geomean (slowdowns gt) in
    let count p ms = List.length (List.filter p ms) in
    let under10 ms =
      100 * count (fun m -> m.Runner.slowdown < 10.0) ms / List.length ms
    in
    let hangs = count (fun m -> m.Runner.hang) in
    Ascii.section "Headline results"
    ^ Printf.sprintf
        "geomean slowdown: BinFPE %.1fx, GPU-FPX w/o GT %.1fx, GPU-FPX %.1fx\n\
         geomean speedup of GPU-FPX over BinFPE: %.1fx\n\
         programs under 10x slowdown: BinFPE %d%%, GPU-FPX %d%%\n\
         hangs: BinFPE %d, GPU-FPX w/o GT %d, GPU-FPX w/ GT %d\n"
        g_b
        (Runner.geomean (slowdowns nogt))
        g_f (g_b /. g_f) (under10 bin) (under10 gt)
        (hangs bin) (hangs nogt) (hangs gt)
  in
  { name = "summary"; keys = perf_keys; render }

(* --- The plan ------------------------------------------------------------ *)

let artefacts =
  [ static "table1" table1; static "table2" table2; static "table3" table3;
    table4; figure4; figure5; table5; figure6; table6; table7; machines;
    ablation; summary ]

let names = List.map (fun a -> a.name) artefacts

let report ?(jobs = 1) names =
  let arts =
    List.map
      (fun n ->
        match List.find_opt (fun a -> a.name = n) artefacts with
        | Some a -> a
        | None -> invalid_arg ("Experiments.report: unknown artefact " ^ n))
      names
  in
  (* Runs are deterministic and independent, so each distinct key runs
     once, in any order and on any worker, and every artefact reads the
     same result. *)
  let keys = List.concat_map (fun a -> a.keys) arts in
  let distinct = List.sort_uniq compare keys in
  let results = Hashtbl.create (List.length distinct) in
  List.iter2 (Hashtbl.replace results) distinct
    (Fpx_sched.Sched.map ~jobs measure distinct);
  let get k =
    try Hashtbl.find results k
    with Not_found ->
      invalid_arg ("Experiments.report: undeclared run of " ^ k.program)
  in
  String.concat "" (List.map (fun a -> a.render get) arts)
