(* fpxbench: the end-to-end and per-layer benchmark.

   Four workloads, each measured in a process of its own so that heap
   size and peak RSS belong to one workload:

     table4-detect   151-program catalog under the GPU-FPX detector
     figure4-flood   the catalog under BinFPE and GPU-FPX w/o GT
     serve-mixed     a closed loop of clients against a forked daemon
     campaign-sdc    architectural bit-flip campaigns with a JSONL store

   Run from the repository root:

     fpxbench --workload W --seed N --seconds S --trace 0|1
         one workload; the last stdout line is the JSON result
     fpxbench run all|W... [--seed N] [--repeat K] [--smoke] [--out DIR]
     fpxbench trace all|W... [--seed N] [--out DIR]
     fpxbench compare A.json B.json [--spec BENCHMARK.json]

   Untraced runs give the end-to-end metrics; a traced run (--trace 1)
   records the spans the libraries already emit, plus spans this file
   puts around its own calls, and gives the per-layer metrics.
   README.md next to this file maps layers to metrics and workloads. *)

module J = Fpx_serve.Json
module R = Fpx_harness.Runner
module W = Fpx_workloads.Workload
module Catalog = Fpx_workloads.Catalog
module Span = Fpx_obs.Span
module Campaign = Fpx_campaign.Campaign
module Server = Fpx_serve.Server
module Client = Fpx_serve.Client
module Content = Fpx_store.Content

external now : unit -> (float[@unboxed])
  = "fpxbench_now_byte" "fpxbench_now"
[@@noalloc]

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Nearest-rank quantile; failed operations enter as [infinity], so
   they miss every latency limit. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  a.(min (n - 1) (int_of_float (q *. float_of_int n)))

let median xs = quantile 0.5 xs
let sumf = List.fold_left ( +. ) 0.0
let fl = float_of_int
let detail fmt = Printf.ksprintf (fun s -> prerr_endline ("  " ^ s)) fmt

type opts = {
  seed : int;
  seconds : float;
  smoke : bool;  (* 1 pass, 40 requests, 20 injections; 1 set-up *)
  out : string;  (* sockets, campaign stores and trace files go here *)
}

let jobs () = min 2 (Fpx_sched.Sched.recommended_jobs ())
let setup_reps o = if o.smoke then 1 else 3

(* Correctness violations of the current workload (one per process). *)
let problems = ref []

let check ok fmt =
  Printf.ksprintf (fun s -> if not ok then problems := s :: !problems) fmt

let report_problems () =
  List.iter (fun p -> Printf.eprintf "  FAIL: %s\n%!" p) (List.rev !problems)

(* Set-up time as a fresh process pays it: [reps] children forked from
   this process, before it has run any workload code or started a
   domain, each run [setup] once and send back its seconds. setup_s is
   their median, so work moved from the timed passes into first-use
   set-up shows in it. A child that fails a check exits 1. *)
let cold_setups reps setup =
  let one () =
    let rd, wr = Unix.pipe ~cloexec:true () in
    flush_all ();
    match Unix.fork () with
    | 0 ->
      Unix.close rd;
      let code =
        match setup () with
        | dt ->
          let oc = Unix.out_channel_of_descr wr in
          Printf.fprintf oc "%h\n" dt;
          close_out oc;
          report_problems ();
          if !problems = [] then 0 else 1
        | exception e ->
          prerr_endline ("fpxbench: set-up: " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
    | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let line = In_channel.input_all ic in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      check (status = Unix.WEXITED 0) "a set-up child failed";
      Option.value ~default:infinity (float_of_string_opt (String.trim line))
  in
  median (List.init reps (fun _ -> one ()))

(* The number of timed passes. It is fixed by [--seconds] and the time
   [pass_s] a pass takes on an idle 2-vCPU host, not by how many passes
   fit in the run, so a best-of-passes estimate takes its best over the
   same number of samples however fast the host is at the time. *)
let pass_count o ~pass_s =
  if o.smoke then 1 else max 3 (int_of_float (o.seconds /. pass_s))

(* Peak resident set of a process ("self" or a pid) since the last
   [reset_peak_rss], from the kernel's VmHWM. *)
let peak_rss_mb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "fpxbench: no VmHWM in /proc status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> fl kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* Where /proc/self/clear_refs is not writable (Linux < 4.0, a locked
   down /proc) the peak stays the process's lifetime peak. *)
let reset_peak_rss () =
  try
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with Sys_error _ -> ()

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
}

(* One pass over a workload's fixed list of operations. *)
type pass = {
  lat : float array;  (* seconds, indexed by operation; failed: infinity *)
  wall : float;  (* the pass's own work, checks excluded *)
  rss : float;  (* peak RSS of the simulating process during the pass *)
}

(* A pass of an in-process workload, with its peak RSS. Every pass
   starts from a collected heap, as a fresh process would: without
   that, each pass inherits a larger heap and its peak grows with the
   number of passes a run had time for. *)
let self_pass f =
  Gc.full_major ();
  reset_peak_rss ();
  let lat, wall = f () in
  { lat; wall; rss = peak_rss_mb "self" }

(* How a workload's latency quantiles are taken from its passes.

   [Best_per_op]: each operation's best time over the passes, then the
   quantile over operations. For operations that run alone and do the
   same work every time (a catalog program, a campaign plan), the
   extra time of a slow pass is host interference: on a shared 2-vCPU
   host, slow spells of seconds to minutes stretch a catalog pass by up
   to 75%, mostly through the cost of page faults, and minima move less
   than medians.

   [Median_of_passes]: each pass's quantile over its operations, then
   the median over the passes. A request of concurrent clients also
   waits for the other client's work, and that wait is part of what a
   user sees; a best-of would keep only the pass where it waited least.
   Over four 10-seed sets of serve-mixed on a 2-vCPU VM, the p50's
   quartile spread was 8-23% (mean 16%) as a best-of and 11-18% (mean
   14%) this way. *)
type latency_stat = Best_per_op | Median_of_passes

(* The end-to-end metrics of a workload that replays one fixed list of
   operations in [pass_count] passes: latency quantiles by [stat], the
   throughput of the best pass, and the median of the per-pass peak
   RSS. Returns every end-to-end metric but setup_s, and the operations
   attempted. *)
let timed_passes o ~pass_s ~stat pass =
  let count = pass_count o ~pass_s and t0 = now () in
  (* past three times the intended length the host is too loaded for
     the count to matter; stop, so that the run still ends in time *)
  let rec go i acc =
    if i = count || (i > 0 && now () -. t0 > 3.0 *. o.seconds) then List.rev acc
    else go (i + 1) (pass i :: acc)
  in
  let ps = go 0 [] in
  let best xs =
    if List.mem infinity xs then infinity
    else List.fold_left Float.min infinity xs
  in
  let n = Array.length (List.hd ps).lat in
  let latency q =
    match stat with
    | Best_per_op ->
      quantile q (List.init n (fun k -> best (List.map (fun p -> p.lat.(k)) ps)))
    | Median_of_passes ->
      median (List.map (fun p -> quantile q (Array.to_list p.lat)) ps)
  in
  let pass_s = best (List.map (fun p -> p.wall) ps) in
  detail "%d of %d passes of %d operations, best pass %.3fs; s/MB: %s"
    (List.length ps) count n pass_s
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "%.3f/%.1f" p.wall p.rss) ps));
  ( [ ("ops_per_s", fl n /. pass_s, "1/s");
      ("op_ms_p50", 1e3 *. latency 0.5, "ms");
      ("op_ms_p99", 1e3 *. latency 0.99, "ms");
      ("peak_rss_mb", median (List.map (fun p -> p.rss) ps), "MB") ],
    n * List.length ps )

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* ---------------------------------------------------------------- *)
(* Tracing: per-layer self times from a span recording               *)

let traced ?(capacity = 1 lsl 16) f =
  let rec_ = Span.create ~capacity ~clock:now () in
  let v, wall = Span.with_installed rec_ (fun () -> timed f) in
  (rec_, v, wall)

(* The layer (dune library and module) a span's time belongs to. Spans
   this file names after a layer map to themselves. *)
let layer_of name =
  let prefix p = String.starts_with ~prefix:p name in
  match name with
  | "exec.launch" -> "gpu.exec"
  | "jit.decode" -> "gpu.decode"
  | "jit.instrument" -> "nvbit.jit"
  | "launch.drain" -> "tool.drain"
  | "run.setup" -> "gpu.device.setup"
  | "run.body" -> "workloads.host"
  | "run.report" -> "harness.report"
  | "sweep.report_json" -> "harness.report_json"
  | _ when prefix "sched." -> "sched"
  | _ when prefix "campaign." -> "campaign"
  | _ when prefix "bench." -> "bench"
  | _ -> name

type layers = {
  rows : (string * float * int) list;  (* layer, self seconds, spans *)
  track_s : float;  (* root-span time summed over all tracks *)
  main_s : float;  (* root-span time on the recording domain's track *)
}

(* A span's self time is its duration minus its direct children's; the
   parent is the second-to-last frame of the span's path, so one linear
   pass gives every instant of a track to exactly one layer. *)
let layers_of rec_ =
  let tbl = Hashtbl.create 32 in
  let bump name ds dn =
    let l = layer_of name in
    let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl l) in
    Hashtbl.replace tbl l (s +. ds, n + dn)
  in
  let track_s = ref 0.0 and main_s = ref 0.0 in
  List.iter
    (fun (sp : Span.span) ->
      bump sp.Span.name sp.Span.dur 1;
      match String.rindex_opt sp.Span.path ';' with
      | Some i ->
        let parent = String.sub sp.Span.path 0 i in
        let parent =
          match String.rindex_opt parent ';' with
          | Some j -> String.sub parent (j + 1) (String.length parent - j - 1)
          | None -> parent
        in
        bump parent (-.sp.Span.dur) 0
      | None ->
        track_s := !track_s +. sp.Span.dur;
        if sp.Span.track = 0 then main_s := !main_s +. sp.Span.dur)
    (Span.spans rec_);
  let rows = Hashtbl.fold (fun l (s, n) acc -> (l, s, n) :: acc) tbl [] in
  { rows = List.sort (fun (_, a, _) (_, b, _) -> compare b a) rows;
    track_s = !track_s;
    main_s = !main_s }

let self_s ls l =
  List.fold_left (fun acc (l', s, _) -> if l = l' then acc +. s else acc) 0.0
    ls.rows

let spans_of ls l =
  List.fold_left (fun acc (l', _, n) -> if l = l' then acc + n else acc) 0
    ls.rows

let probe_ms reps f = 1e3 *. median (List.init reps (fun _ -> snd (timed f)))

let compile_ms programs =
  probe_ms 3 (fun () ->
      List.iter
        (fun w ->
          List.iter
            (fun k ->
              ignore
                (Fpx_klang.Compile.compile ~mode:Fpx_klang.Mode.precise k
                  : Fpx_sass.Program.t))
            w.W.kernels)
        programs)

(* Minor page faults of this process so far: field 10 of
   /proc/self/stat, the 8th after the parenthesised command name. *)
let minor_faults () =
  let s = In_channel.with_open_text "/proc/self/stat" In_channel.input_all in
  let i = String.rindex s ')' + 2 in
  let fields = String.split_on_char ' ' (String.sub s i (String.length s - i)) in
  fl (int_of_string (List.nth fields 7))

(* Allocation and page faults per operation over [f], which performs
   [ops] operations. Each device's memory is a fresh 64 MiB mapping
   that a run faults in page by page, and on a shared VM the cost of a
   fault is what the host's load stretches most. *)
let gc_per_op ops f =
  let g0 = Gc.quick_stat () and f0 = minor_faults () in
  let v, wall = timed f in
  let g1 = Gc.quick_stat () and f1 = minor_faults () in
  let per x = x /. fl (max 1 ops) in
  ( v,
    wall,
    [ ( "gc.minor_words_per_op",
        per (g1.Gc.minor_words -. g0.Gc.minor_words),
        "words" );
      ( "gc.major_words_per_op",
        per (g1.Gc.major_words -. g0.Gc.major_words),
        "words" );
      ( "gc.major_collections_per_op",
        per (fl (g1.Gc.major_collections - g0.Gc.major_collections)),
        "count" );
      ("host.minor_faults_per_op", per (f1 -. f0), "count") ] )

(* The per-layer metrics every workload reports; layers.json, a Chrome
   trace and collapsed stacks go to [o.out]/[workload]/. [extras] are
   workload-specific numbers that go to layers.json and stderr only.
   Self times partition each track's root spans exactly, so the layers
   of the main track sum to the traced wall when no span was dropped
   and the main track's root covers the wall. *)
let per_layer o ~workload ~rec_ ~wall_u ~wall_t ~gc ~compile_programs ~extras =
  let ls = layers_of rec_ in
  let core = [ "gpu.exec"; "gpu.decode"; "nvbit.jit"; "tool.drain" ] in
  check
    (Float.abs (ls.main_s -. wall_t) <= 0.05 *. wall_t)
    "main-track spans %.4fs do not cover the traced wall %.4fs" ls.main_s
    wall_t;
  check (Span.dropped rec_ = 0) "%d spans dropped" (Span.dropped rec_);
  let device = Fpx_gpu.Device.create () in
  ignore
    (Fpx_gpu.Memory.alloc_zeroed device.Fpx_gpu.Device.memory ~bytes:(1 lsl 20)
      : int);
  let metrics =
    [ ("gpu.exec.self_s", self_s ls "gpu.exec", "s");
      ("gpu.exec.launches", fl (spans_of ls "gpu.exec"), "count");
      ("gpu.decode.s", self_s ls "gpu.decode", "s");
      ("gpu.decode.calls", fl (spans_of ls "gpu.decode"), "count");
      ("nvbit.jit.s", self_s ls "nvbit.jit", "s");
      ("nvbit.jit.kernels", fl (spans_of ls "nvbit.jit"), "count");
      ("tool.drain.s", self_s ls "tool.drain", "s");
      ("host.other_s", ls.track_s -. sumf (List.map (self_s ls) core), "s") ]
    @ gc
    @ [ ( "gpu.device.create_ms",
          probe_ms 5 (fun () ->
              ignore (Sys.opaque_identity (Fpx_gpu.Device.create ()))),
          "ms" );
        ( "gpu.memory.digest_ms",
          probe_ms 9 (fun () ->
              ignore (Fpx_gpu.Memory.digest device.Fpx_gpu.Device.memory)),
          "ms" );
        ("klang.compile_ms", compile_ms compile_programs, "ms");
        ("obs.traced_wall_s", wall_t, "s");
        ("obs.trace_overhead", (wall_t /. wall_u) -. 1.0, "ratio") ]
  in
  let dir = Filename.concat o.out workload in
  let num x = J.Num x in
  let json =
    J.Obj
      [ ("workload", J.Str workload);
        ("seed", num (fl o.seed));
        ("traced_wall_s", num wall_t);
        ("untraced_wall_s", num wall_u);
        ("track_s", num ls.track_s);
        ( "layers",
          J.List
            (List.map
               (fun (l, s, n) ->
                 J.Obj
                   [ ("layer", J.Str l); ("self_s", num s); ("spans", num (fl n));
                     ("share", num (s /. ls.track_s)) ])
               ls.rows) );
        ( "metrics",
          J.Obj (List.map (fun (n, v, _) -> (n, num v)) (metrics @ extras)) );
        ("spans_recorded", num (fl (Span.recorded rec_))) ]
  in
  let write name text = Content.write_file (Filename.concat dir name) text in
  write "layers.json" (J.to_string json ^ "\n");
  write "trace.json" (Span.to_chrome_json rec_);
  write "stacks.folded" (Span.to_collapsed rec_);
  detail "%-22s %10s %7s %8s" "layer" "self_s" "share" "spans";
  List.iter
    (fun (l, s, n) ->
      detail "%-22s %10.4f %6.1f%% %8d" l s (100. *. s /. ls.track_s) n)
    ls.rows;
  List.iter (fun (n, v, u) -> detail "%-32s %14.6g %s" n v u) extras;
  detail "wrote %s/{layers.json,trace.json,stacks.folded}" dir;
  metrics

(* ---------------------------------------------------------------- *)
(* table4-detect and figure4-flood: catalog passes                    *)

let detector ~gt =
  R.Detector
    { Gpu_fpx.Detector.default_config with Gpu_fpx.Detector.use_gt = gt }

(* MD5 of each tool's Sweep.report_json. The catalog has no random
   inputs, and it runs in catalog order for every seed: run order
   changes the heap history the GC works against, and a seed-permuted
   order moved per-run latency by 15-20% between seeds. *)
let table4_tools = [ (detector ~gt:true, "54d793bfc43d41b0a5098c0860e1cfd4") ]

let figure4_tools =
  [ (R.Binfpe, "eba8cf9f743e811aff185e99c6380124");
    (detector ~gt:false, "3e288758e0cd516793ae2ee33d2618ed") ]

let native_tools = [ (R.No_tool, "460098f1d5bb6ee812bccf8532a16ef7") ]
let catalog = Array.of_list Catalog.evaluated

(* Every tool over the whole catalog; operation [t * 151 + i] is tool
   [t] on program [i]. Returns the latencies, the pass time, and the
   simulated warp-instructions and channel records of the pass. *)
let catalog_pass tools =
  let n = Array.length catalog in
  let lat = Array.make (n * List.length tools) 0.0 in
  let report_s = ref 0.0 and instrs = ref 0 and records = ref 0 in
  Span.with_ ~cat:"bench" "bench.pass" (fun () ->
      List.iteri
        (fun t (tool, pinned) ->
          let ms =
            Array.mapi
              (fun i w ->
                let m, dt = timed (fun () -> R.run ~tool w) in
                lat.((t * n) + i) <- dt;
                instrs := !instrs + m.R.dyn_instrs;
                records := !records + m.R.records;
                m)
              catalog
          in
          let report, dt =
            timed (fun () -> Fpx_harness.Sweep.report_json (Array.to_list ms))
          in
          report_s := !report_s +. dt;
          let digest = Content.digest_hex report in
          check (digest = pinned) "%s report digest %s, pinned %s"
            (R.tool_config_to_string tool) digest pinned)
        tools);
  (lat, Array.fold_left ( +. ) !report_s lat, !instrs, !records)

(* Set-up is a fresh process's first pass; [pass_s] is a warm pass on
   an idle 2-vCPU host. *)
let catalog_run o ~pass_s tools =
  let pass _ =
    self_pass (fun () ->
        let lat, wall, _, _ = catalog_pass tools in
        (lat, wall))
  in
  let setup_s = cold_setups (setup_reps o) (fun () -> (pass ()).wall) in
  let metrics, attempted = timed_passes o ~pass_s ~stat:Best_per_op pass in
  { attempted;
    failed = List.length !problems;
    metrics = ("setup_s", setup_s, "s") :: metrics }

let catalog_trace o workload tools =
  ignore (catalog_pass tools : float array * float * int * int);
  let n = List.length tools * Array.length catalog in
  Gc.full_major ();
  let (_, _, instrs, records), wall_u, gc =
    gc_per_op n (fun () -> catalog_pass tools)
  in
  Gc.full_major ();
  let rec_, _, wall_t =
    traced ~capacity:(1 lsl 19) (fun () -> catalog_pass tools)
  in
  Gc.full_major ();
  let native, _, _ =
    traced ~capacity:(1 lsl 19) (fun () -> catalog_pass native_tools)
  in
  let ls = layers_of rec_ in
  let exec_tool = self_s ls "gpu.exec" in
  let metrics =
    per_layer o ~workload ~rec_ ~wall_u ~wall_t ~gc
      ~compile_programs:Catalog.evaluated
      ~extras:
        [ ( "tool.callback_s",
            exec_tool
            -. (fl (List.length tools) *. self_s (layers_of native) "gpu.exec"),
            "s" );
          ("tool.records_pushed", fl records, "count");
          ( "channel.drain_ns_per_record",
            1e9 *. self_s ls "tool.drain" /. fl (max 1 records),
            "ns" );
          ("gpu.exec.dyn_instrs", fl instrs, "count");
          ("gpu.exec.instrs_per_s", fl instrs /. exec_tool, "1/s");
          ("sim_instrs_per_s", fl instrs /. wall_u, "1/s") ]
  in
  { attempted = n; failed = List.length !problems; metrics }

(* ---------------------------------------------------------------- *)
(* serve-mixed: a closed loop against a forked daemon                 *)

(* A fixed hot set keeps hit latency comparable across seeds; the seed
   draws the request sequence. *)
let hot_set =
  [ "GRAMSCHM"; "GEMM"; "Triad"; "hotspot"; "backprop"; "Stencil2D"; "nbody";
    "lud"; "kmeans"; "srad"; "BlackScholes"; "matrixMul"; "vectorAdd";
    "dct8x8"; "SRU-Example"; "2MM" ]

let cold_variants =
  [ [ ("tool", J.Str "analyze") ];
    [ ("tool", J.Str "binfpe") ];
    [ ("tool", J.Str "detect"); ("fast_math", J.Bool true) ];
    [ ("tool", J.Str "detect"); ("ampere", J.Bool true) ] ]

type cls = Hot | Novel | Cold

let cls_name = function Hot -> "hit" | Novel -> "novel" | Cold -> "cold"

let submit fields = J.to_string (J.Obj (("op", J.Str "submit") :: fields))

let hot_request name =
  submit [ ("tool", J.Str "detect"); ("program", J.Str name) ]

(* The request sequence of every pass, 1500 requests: 10% cold, each
   catalog program once under one of the four variants; 20% novel
   generated kernels; 70% hits on the hot set (40 requests in smoke
   mode). Cold requests cover the catalog rather than sample it:
   sampled, whether the few slowest programs were drawn moved p99 by a
   quarter between seeds. 467 distinct keys overflow the 256-entry
   cache, so LRU evictions happen. The seed draws the generated kernels
   and which hot program each hit asks for; the order of the requests
   is one fixed shuffle. Drawn from the seed, the order decided which
   cold programs the two clients ran at once, and the daemon's peak RSS
   moved with it by a third between seeds (65 MB on seed 8, 88 MB on
   seed 1, in every pass). The mix, the hot set and the client count
   are a synthetic assumption, not drawn from a request log: a serve or
   cache gain measured on them supports no claim about real traffic. *)
let serve_requests o =
  let st = Random.State.make [| o.seed |] in
  let cold i w =
    (Cold, submit (("program", J.Str w.W.name) :: List.nth cold_variants (i mod 4)))
  in
  let novel id =
    let sass = Fpx_fuzz.Repro.render (Fpx_fuzz.Sassgen.case ~seed:o.seed ~id) in
    (Novel, submit [ ("tool", J.Str "detect"); ("sass", J.Str sass) ])
  in
  let hot _ =
    (Hot, hot_request (List.nth hot_set (Random.State.int st (List.length hot_set))))
  in
  let reqs =
    Array.concat [ Array.mapi cold catalog; Array.init 300 novel; Array.init 1049 hot ]
  in
  let st = Random.State.make [| 0 |] in
  for i = Array.length reqs - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = reqs.(i) in
    reqs.(i) <- reqs.(j);
    reqs.(j) <- t
  done;
  if o.smoke then Array.sub reqs 0 40 else reqs

let is_ok resp = String.starts_with ~prefix:{|{"status":"ok"|} resp

(* Every reply must be ok, and every reply to one request text must be
   byte-identical to the first (for hot requests: to the pre-warm). *)
let check_reply seen req resp =
  let rd = Digest.string resp in
  check (is_ok resp) "reply not ok: %s"
    (String.sub resp 0 (min 120 (String.length resp)));
  let key = Digest.string req in
  match Hashtbl.find_opt seen key with
  | Some d -> check (d = rd) "reply bytes differ from the first reply"
  | None -> Hashtbl.add seen key rd

let request_or_fail c req =
  try Some (Client.request c req) with End_of_file | Unix.Unix_error _ -> None

let start_daemon sock =
  if Sys.file_exists sock then Sys.remove sock;
  (* fork before any domain exists; the child must not flush the
     parent's buffers a second time *)
  flush_all ();
  match Unix.fork () with
  | 0 ->
    let code =
      try
        let t =
          Server.create
            ~config:{ Server.default_config with Server.jobs = jobs () }
            ()
        in
        Server.serve ~unix_socket:sock t;
        Server.shutdown t;
        0
      with e ->
        prerr_endline ("fpxbench: daemon: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid -> pid

let connect sock =
  let deadline = now () +. 30.0 in
  let rec go () =
    match Client.connect_unix sock with
    | c -> c
    | exception Unix.Unix_error _ when now () < deadline ->
      Unix.sleepf 0.005;
      go ()
  in
  go ()

let stop_daemon (pid, sock) =
  (try
     let c = Client.connect_unix sock in
     ignore (Client.request c {|{"op":"shutdown"}|} : string);
     Client.close c
   with _ -> Unix.kill pid Sys.sigkill);
  ignore (Unix.waitpid [] pid : int * Unix.process_status)

(* Daemon up, then the hot set computed once over one connection. *)
let serve_setup seen sock () =
  let pid = start_daemon sock in
  let c =
    try connect sock
    with e ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid : int * Unix.process_status);
      raise e
  in
  List.iter
    (fun name ->
      let req = hot_request name in
      match request_or_fail c req with
      | Some resp -> check_reply seen req resp
      | None -> check false "pre-warm of %s failed" name)
    hot_set;
  Client.close c;
  (pid, sock)

(* Median and p99 latency of each request class, in ms. *)
let class_latencies ~prefix reqs lat =
  List.concat_map
    (fun cls ->
      match List.filteri (fun i _ -> fst reqs.(i) = cls) (Array.to_list lat) with
      | [] -> []
      | l ->
        let name q = Printf.sprintf "%s.%s_ms_%s" prefix (cls_name cls) q in
        [ (name "p50", 1e3 *. quantile 0.5 l, "ms");
          (name "p99", 1e3 *. quantile 0.99 l, "ms") ])
    [ Hot; Novel; Cold ]

(* [jobs ()] client threads send [reqs] in index order, each sending its
   next request only after its previous reply. Returns each request's
   latency and reply, and the wall time of the whole loop. *)
let closed_loop sock reqs =
  let n = Array.length reqs in
  let lat = Array.make n infinity and replies = Array.make n None in
  let next = Atomic.make 0 in
  let client () =
    let c = connect sock in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let resp, dt = timed (fun () -> request_or_fail c (snd reqs.(i))) in
        lat.(i) <- dt;
        replies.(i) <- resp;
        loop ()
      end
    in
    loop ()
  in
  let (), wall =
    timed (fun () ->
        List.iter Thread.join
          (List.init (jobs ()) (fun _ -> Thread.create client ())))
  in
  (lat, replies, wall)

(* A pass: a fresh daemon, pre-warmed, then the whole request sequence.
   The daemon's set-up time goes to [setups]; a failed request's
   latency is infinity. *)
let serve_pass ~seen ~sock ~reqs ~setups ~failed i =
  let daemon, setup = timed (serve_setup seen sock) in
  setups := setup :: !setups;
  Fun.protect ~finally:(fun () -> stop_daemon daemon) @@ fun () ->
  let lat, replies, wall = closed_loop sock reqs in
  let rss = peak_rss_mb (string_of_int (fst daemon)) in
  Array.iteri
    (fun i reply ->
      match reply with
      | Some r when is_ok r -> check_reply seen (snd reqs.(i)) r
      | Some r ->
        check_reply seen (snd reqs.(i)) r;
        incr failed;
        lat.(i) <- infinity
      | None ->
        check false "request %d failed: connection lost" i;
        incr failed;
        lat.(i) <- infinity)
    replies;
  if i = 0 then
    List.iter
      (fun (n, v, u) -> detail "%-24s %10.3f %s" n v u)
      (class_latencies ~prefix:"serve.client" reqs lat);
  { lat; wall; rss }

(* Every pass replays one request sequence against a fresh daemon, so
   each request is the same operation in every pass and its replies
   must be byte-identical across daemons. A pass takes [serve_pass_s]
   on an idle 2-vCPU host, daemon start included. *)
let serve_pass_s = 3.0

let serve_run o =
  let seen = Hashtbl.create 4096 in
  let sock =
    Filename.concat o.out (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))
  in
  let reqs = serve_requests o in
  let setups = ref [] and failed = ref 0 in
  let metrics, attempted =
    timed_passes o ~pass_s:serve_pass_s ~stat:Median_of_passes
      (serve_pass ~seen ~sock ~reqs ~setups ~failed)
  in
  { attempted;
    failed = !failed;
    metrics = ("setup_s", median !setups, "s") :: metrics }

(* In-process replay of the request sequence against a fresh,
   pre-warmed server, measured by [measure]: spans inside a forked
   daemon would not reach this process. Also returns each request's
   Server.handle time. *)
let serve_replay reqs ~measure =
  let t =
    Server.create ~config:{ Server.default_config with Server.jobs = jobs () } ()
  in
  Fun.protect ~finally:(fun () -> Server.shutdown t) @@ fun () ->
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun name ->
      let req = hot_request name in
      check_reply seen req (Server.handle t req))
    hot_set;
  let handle = Array.make (Array.length reqs) 0.0 in
  let m =
    measure (fun () ->
        Span.with_ ~cat:"bench" "bench.pass" @@ fun () ->
        Array.iteri
          (fun i (_, req) ->
          ignore
            (Span.with_ ~cat:"bench" "store.key" (fun () ->
                 Fpx_serve.Cache.key ~kind:"submit" ~program:req ~config:"")
              : string);
          let resp, dt =
            timed (fun () ->
                Span.with_ ~cat:"bench" "serve.handle" (fun () ->
                    Server.handle t req))
          in
          handle.(i) <- dt;
          check_reply seen req resp;
          ignore
            (Span.with_ ~cat:"bench" "serve.json.parse" (fun () -> J.parse resp)
              : J.t))
          reqs)
  in
  (m, handle, Fpx_serve.Cache.stats (Server.cache t))

let serve_trace o workload =
  let reqs = serve_requests o in
  let n = Array.length reqs in
  let ((), wall_u, gc), handle, _ = serve_replay reqs ~measure:(gc_per_op n) in
  let (rec_, (), wall_t), _, stats =
    serve_replay reqs ~measure:(fun f -> traced f)
  in
  let module C = Fpx_serve.Cache in
  let metrics =
    per_layer o ~workload ~rec_ ~wall_u ~wall_t ~gc
      ~compile_programs:(List.map Catalog.find hot_set)
      ~extras:
        (class_latencies ~prefix:"serve.handle" reqs handle
        @ [ ( "serve.cache.hit_ratio",
            fl stats.C.hits /. fl (stats.C.hits + stats.C.misses),
            "ratio" );
            ("serve.cache.evictions", fl stats.C.evictions, "count") ])
  in
  { attempted = n; failed = List.length !problems; metrics }

(* ---------------------------------------------------------------- *)
(* campaign-sdc: architectural bit-flip campaigns                     *)

(* Plans as (campaign seed, injections), run in this order. Plan content
   is fixed, as the catalog is: with plans drawn from the workload seed,
   hang-heavy plans (a hang burns 16x a golden run) made throughput
   vary by a third between seeds. Plan 0 is the set-up. *)
let setup_plan = (0, 20)

let plans o =
  if o.smoke then [| setup_plan |] else Array.init 8 (fun k -> (k + 1, 50))

(* MD5 of Campaign.summary_json, per plan. *)
let campaign_pinned =
  [ ((0, 20), "0e8052061c4f6089b5f29ce209ff24c2");
    ((1, 50), "24efdc5e49e57e37ea63793c7b823a84");
    ((2, 50), "463e43c4ccc262071cc3e310c2ac4dd5");
    ((3, 50), "2dd53674a5822df3fee4a2c8d25aa4b1");
    ((4, 50), "dbbcb0c7f37453be2115fbfbee5536f2");
    ((5, 50), "bfe93d56ba89e5cf579587bc5da6f596");
    ((6, 50), "64d775856239bc8ee0eb93b416439b15");
    ((7, 50), "aac939a8ed7d8faedff1fb90a6a6a5b8");
    ((8, 50), "99ff5929ec9579b07d0b72d06efd10f1") ]

let plan_config root (seed, total) =
  Campaign.config ~jobs:(jobs ()) ~minimize:false ~store:root ~seed ~total ()

(* One complete campaign per plan: golden profiles, the plan's
   injections over [jobs ()] domains, a store append per batch of 25.
   Returns each plan's config, summary and seconds. *)
let campaign_pass root plans =
  Span.with_ ~cat:"bench" "bench.pass" (fun () ->
      Array.map
        (fun plan ->
          let cfg = plan_config root plan in
          let s, dt = timed (fun () -> Campaign.run cfg) in
          (cfg, s, dt))
        plans)

(* The checks on a pass's campaigns; returns its latencies and time. *)
let check_campaigns runs =
  Array.iter
    (fun (cfg, s, _) ->
      let seed = cfg.Campaign.seed and total = cfg.Campaign.total in
      let json = Campaign.summary_json s in
      check
        (s.Campaign.completed = total && not s.Campaign.halted)
        "campaign %d completed %d of %d" seed s.Campaign.completed total;
      check
        (List.map (fun (r : Campaign.result) -> r.Campaign.id) s.Campaign.results
         = List.init total Fun.id
        && List.fold_left (fun a (_, n) -> a + n) 0 (Campaign.by_outcome s)
           = total)
        "campaign %d outcomes do not partition the plan" seed;
      check
        (Campaign.summary_json (Campaign.load cfg) = json)
        "campaign %d: the store differs from the in-memory summary" seed;
      let digest = Content.digest_hex json in
      check
        (List.assoc_opt (seed, total) campaign_pinned = Some digest)
        "campaign %d summary digest %s is not the pinned one" seed digest)
    runs;
  let lat = Array.map (fun (_, _, dt) -> dt) runs in
  (lat, Array.fold_left ( +. ) 0.0 lat)

let campaign_store o =
  Filename.concat o.out (Printf.sprintf "campaign-%d" (Unix.getpid ()))

(* Set-up is a fresh process's first 20-injection campaign; a pass of
   the eight plans takes [campaign_pass_s] on an idle 2-vCPU host. *)
let campaign_pass_s = 3.0

let campaign_run o =
  let root = campaign_store o in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let setup_s =
    cold_setups (setup_reps o) (fun () ->
        snd (check_campaigns (campaign_pass root [| setup_plan |])))
  in
  let metrics, attempted =
    timed_passes o ~pass_s:campaign_pass_s ~stat:Best_per_op (fun _ ->
        self_pass (fun () -> check_campaigns (campaign_pass root (plans o))))
  in
  { attempted;
    failed = List.length !problems;
    metrics = ("setup_s", setup_s, "s") :: metrics }

let campaign_trace o workload =
  let root = campaign_store o in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let ps = plans o in
  Gc.full_major ();
  let runs, wall_u, gc =
    gc_per_op (Array.length ps) (fun () -> campaign_pass root ps)
  in
  let _, pass_s = check_campaigns runs in
  Gc.full_major ();
  let rec_, runs, wall_t = traced (fun () -> campaign_pass root ps) in
  ignore (check_campaigns runs : float array * float);
  (* the last plan's store lines appended again from here, in the
     campaign's batches of 25 *)
  let module Store = Fpx_campaign.Store in
  let cfg = plan_config root ps.(Array.length ps - 1) in
  let lines = Store.load ~root ~key:(Campaign.key cfg) in
  Store.reset ~root ~key:"replay";
  let rec append = function
    | [] -> ()
    | l ->
      Store.append ~root ~key:"replay" (List.filteri (fun i _ -> i < 25) l);
      append (List.filteri (fun i _ -> i >= 25) l)
  in
  let (), append_s = timed (fun () -> append lines) in
  let injections = Array.fold_left (fun a (_, n) -> a + n) 0 ps in
  let metrics =
    per_layer o ~workload ~rec_ ~wall_u ~wall_t ~gc
      ~compile_programs:(List.map Catalog.find cfg.Campaign.programs)
      ~extras:
        [ ("campaign.inj_per_s", fl injections /. pass_s, "1/s");
          ("campaign.store.append_s", append_s, "s") ]
  in
  { attempted = Array.length ps; failed = List.length !problems; metrics }

(* ---------------------------------------------------------------- *)
(* Driver                                                             *)

let workloads =
  [ ( "table4-detect",
      ( (fun o -> catalog_run o ~pass_s:0.85 table4_tools),
        fun o -> catalog_trace o "table4-detect" table4_tools ) );
    ( "figure4-flood",
      ( (fun o -> catalog_run o ~pass_s:2.8 figure4_tools),
        fun o -> catalog_trace o "figure4-flood" figure4_tools ) );
    ("serve-mixed", (serve_run, fun o -> serve_trace o "serve-mixed"));
    ("campaign-sdc", (campaign_run, fun o -> campaign_trace o "campaign-sdc"))
  ]

let result_json r =
  J.Obj
    [ ("correct", J.Bool (!problems = []));
      ("attempted", J.Num (fl r.attempted));
      ("failed", J.Num (fl r.failed));
      ( "metrics",
        J.Obj
          (List.map
             (fun (n, v, u) ->
               (n, J.Obj [ ("value", J.Num v); ("unit", J.Str u) ]))
             r.metrics) ) ]

(* One workload in this process: the contract entry point. *)
let run_one o ~trace name =
  let run, trace_run =
    match List.assoc_opt name workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "fpxbench: unknown workload %S\n" name;
      exit 2
  in
  Fpx_harness.Toolreg.ensure ();
  Content.mkdir_p o.out;
  Printf.eprintf "fpxbench: %s seed %d%s\n%!" name o.seed
    (if trace then " (traced)" else "");
  let r = if trace then trace_run o else run o in
  report_problems ();
  print_endline (J.to_string (result_json r));
  if !problems <> [] || r.failed > 0 then exit 1

(* --- run / trace: every workload in a child process --------------- *)

let load_json path = J.parse (Content.read_file path)

let spec_names spec key =
  match J.member key spec with
  | Some (J.List ms) -> List.filter_map (J.str_field "name") ms
  | _ -> []

(* Run one workload in a child process; its last stdout line. *)
let child o ~trace name =
  let args =
    [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int o.seed;
      "--seconds"; Printf.sprintf "%g" o.seconds; "--trace";
      (if trace then "1" else "0"); "--out"; o.out ]
    @ if o.smoke then [ "--smoke" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else Some l)
      None
      (String.split_on_char '\n' out)
  in
  match Option.map J.parse last with
  | Some r -> (status = Unix.WEXITED 0, r)
  | None -> (false, J.Obj [])
  | exception J.Parse_error _ -> (false, J.Obj [])

let orchestrate o ~trace ~repeat ~spec names =
  let names = if names = [ "all" ] then List.map fst workloads else names in
  let ok = ref true in
  let runs =
    List.concat_map
      (fun name ->
        List.init repeat (fun k ->
            let o = { o with seed = o.seed + k } in
            let good, r = child o ~trace name in
            let metrics =
              match J.member "metrics" r with Some (J.Obj ms) -> ms | _ -> []
            in
            List.iter
              (fun (m, v) ->
                match (J.member "value" v, J.str_field "unit" v) with
                | Some (J.Num x), Some u ->
                  Printf.printf "%-14s %-28s %16.6f %s\n%!" name m x u
                | _ -> ())
              metrics;
            (match spec with
            | Some s
              when spec_names s (if trace then "per_layer" else "end_to_end")
                   <> List.map fst metrics ->
              Printf.eprintf "fpxbench: %s metrics differ from the spec\n%!"
                name;
              ok := false
            | _ -> ());
            if not good then begin
              Printf.eprintf "fpxbench: %s (seed %d) failed\n%!" name o.seed;
              ok := false
            end;
            match r with
            | J.Obj fs ->
              J.Obj
                (("workload", J.Str name) :: ("seed", J.Num (fl o.seed)) :: fs)
            | v -> v))
      names
  in
  if not trace then begin
    let path = Filename.concat o.out "run.json" in
    Content.write_file path
      (J.to_string (J.Obj [ ("runs", J.List runs) ]) ^ "\n");
    Printf.printf "wrote %s\n" path
  end;
  if not !ok then exit 1

(* --- compare ------------------------------------------------------ *)

(* Python's statistics.quantiles(data, n=4) (the exclusive method), so
   spreads match the ones the acceptance check computes. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 and n = 4 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = fl ((i * m) - (j * n)) in
      ((a.(j - 1) *. (fl n -. delta)) +. (a.(j) *. delta)) /. fl n
    in
    (q 1, q 2, q 3)

(* (workload, metric) -> one sample per run in a run.json, for each
   metric in [bounds]. A sample is [Error "failed"] when its run is not
   correct or counts failures, and [Error "missing"] when the run has
   no finite value for the metric. *)
let run_values ~bounds file =
  let tbl = Hashtbl.create 64 in
  let runs =
    match J.member "runs" (load_json file) with
    | Some (J.List runs) -> runs
    | _ -> failwith (file ^ ": no \"runs\" list")
  in
  List.iter
    (fun r ->
      let w = Option.value ~default:"?" (J.str_field "workload" r) in
      let ok =
        J.member "correct" r = Some (J.Bool true)
        && J.member "failed" r = Some (J.Num 0.0)
      in
      List.iter
        (fun (m, _) ->
          let value =
            Option.bind (J.member "metrics" r) (fun ms ->
                Option.bind (J.member m ms) (J.member "value"))
          in
          let sample =
            match value with
            | _ when not ok -> Error "failed"
            | Some (J.Num x) when Float.is_finite x -> Ok x
            | _ -> Error "missing"
          in
          let old = Option.value ~default:[] (Hashtbl.find_opt tbl (w, m)) in
          Hashtbl.replace tbl (w, m) (sample :: old))
        bounds)
    runs;
  tbl

(* One row per (workload, metric) present in either file: both medians,
   and "agree" when they differ by at most the metric's bound, "differ"
   when by more, "unresolved" when either side's quartile spread exceeds
   the bound, and "failed" or "missing" when a run on either side failed
   or lacks the metric, or one side has no run of the workload. Exits 1
   unless every row agrees. *)
let compare_files ~spec a b =
  let bounds =
    match J.member "end_to_end" spec with
    | Some (J.List ms) ->
      List.filter_map
        (fun m ->
          match (J.str_field "name" m, J.member "bound" m) with
          | Some n, Some (J.Num b) -> Some (n, b)
          | _ -> None)
        ms
    | _ -> []
  in
  let va = run_values ~bounds a and vb = run_values ~bounds b in
  Printf.printf "%-14s %-12s %12s %12s %8s %7s %7s %6s  %s\n" "workload"
    "metric" "median A" "median B" "delta" "sprA" "sprB" "bound" "verdict";
  let bad = ref 0 in
  let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  List.iter
    (fun ((w, m) as k) ->
      let bound = List.assoc m bounds in
      let values tbl =
        match Hashtbl.find_opt tbl k with
        | None -> Error "missing"
        | Some xs ->
          List.fold_left
            (fun acc x ->
              match (acc, x) with
              | Error e, _ | Ok _, Error e -> Error e
              | Ok l, Ok x -> Ok (x :: l))
            (Ok []) xs
      in
      let row =
        match (values va, values vb) with
        | Error e, _ | _, Error e -> Error e
        | Ok xa, Ok xb ->
          let stats xs =
            let q1, q2, q3 = quartiles xs in
            (q2, if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2)
          in
          let ma, sa = stats xa and mb, sb = stats xb in
          let delta = if ma = 0.0 then 0.0 else (mb -. ma) /. Float.abs ma in
          Ok
            ( Printf.sprintf "%12.5g %12.5g %+7.1f%% %6.1f%% %6.1f%%" ma mb
                (100. *. delta) (100. *. sa) (100. *. sb),
              if sa > bound || sb > bound then "unresolved"
              else if Float.abs delta <= bound then "agree"
              else "differ" )
      in
      let cells, verdict =
        match row with
        | Ok r -> r
        | Error e -> (Printf.sprintf "%12s %12s %8s %7s %7s" "-" "-" "-" "-" "-", e)
      in
      if verdict <> "agree" then incr bad;
      Printf.printf "%-14s %-12s %s %5.0f%%  %s\n" w m cells (100. *. bound)
        verdict)
    (List.sort_uniq compare (keys va @ keys vb));
  if !bad > 0 then exit 1

(* --- command line ------------------------------------------------- *)

let usage =
  "fpxbench --workload W --seed N --seconds S --trace 0|1\n\
   fpxbench run all|W... [--seed N] [--repeat K] [--seconds S] [--smoke] \
   [--out DIR] [--spec FILE]\n\
   fpxbench trace all|W... [--seed N] [--smoke] [--out DIR] [--spec FILE]\n\
   fpxbench compare A.json B.json [--spec FILE]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 in
  let trace = ref 0 and smoke = ref false and repeat = ref 1 in
  let out = ref (Filename.concat "bench" (Filename.concat "e2e" "results")) in
  let spec = ref "BENCHMARK.json" and positional = ref [] in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W  run one workload");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  timed phase (default 15)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1)");
      ("--smoke", Arg.Set smoke, " 1 pass, 40 requests, 20 injections");
      ("--repeat", Arg.Set_int repeat, "K  runs per workload, seeds N..N+K-1");
      ("--out", Arg.Set_string out, "DIR  results directory");
      ("--spec", Arg.Set_string spec, "FILE  BENCHMARK.json to check against")
    ]
    (fun a -> positional := a :: !positional)
    usage;
  let o = { seed = !seed; seconds = !seconds; smoke = !smoke; out = !out } in
  let spec_opt () =
    if Sys.file_exists !spec then Some (load_json !spec)
    else begin
      Printf.eprintf "fpxbench: no %s; metric names not checked\n%!" !spec;
      None
    end
  in
  match (List.rev !positional, !workload) with
  | [], w when w <> "" && (!trace = 0 || !trace = 1) ->
    run_one o ~trace:(!trace = 1) w
  | "run" :: (_ :: _ as names), "" ->
    orchestrate o ~trace:false ~repeat:(max 1 !repeat) ~spec:(spec_opt ())
      names
  | "trace" :: (_ :: _ as names), "" ->
    orchestrate o ~trace:true ~repeat:1 ~spec:(spec_opt ()) names
  | [ "compare"; a; b ], "" -> compare_files ~spec:(load_json !spec) a b
  | _ ->
    prerr_endline usage;
    exit 2
