module W = Fpx_workloads.Workload
module Isa = Fpx_sass.Isa
module Exce = Fpx_tool.Exce
module Fault = Fpx_fault.Fault

type tool_config =
  | No_tool
  | Detector of Gpu_fpx.Detector.config
  | Binfpe
  | Analyzer
  | Stack of tool_config list

let rec tool_config_to_string = function
  | No_tool -> "native"
  | Detector c ->
    let base = if c.Gpu_fpx.Detector.use_gt then "GPU-FPX" else "GPU-FPX w/o GT" in
    let k = c.Gpu_fpx.Detector.sampling.Gpu_fpx.Sampling.freq_redn_factor in
    if k > 0 then Printf.sprintf "%s (k=%d)" base k else base
  | Binfpe -> "BinFPE"
  | Analyzer -> "GPU-FPX analyzer"
  | Stack cfgs ->
    Printf.sprintf "stack(%s)"
      (String.concat "+" (List.map tool_config_to_string cfgs))

type status =
  | Completed
  | Degraded of string list
  | Hung of string
  | Faulted of string

let status_to_string = function
  | Completed -> "completed"
  | Degraded _ -> "degraded"
  | Hung _ -> "hung"
  | Faulted _ -> "faulted"

let status_detail = function
  | Completed -> ""
  | Degraded reasons -> String.concat "; " reasons
  | Hung msg | Faulted msg -> msg

type finding = {
  kernel : string;
  pc : int;
  loc : string;
  fmt : Isa.fp_format;
  exce : Exce.t;
}

type channel = {
  records_seen : int;
  drains_delayed : int;
  records_stranded : int;
  backoff_k : int;
}

type measurement = {
  program : string;
  tool : tool_config;
  slowdown : float;
  hang : bool;
  status : status;
  records : int;
  dyn_instrs : int;
  counts : (Isa.fp_format * Exce.t * int) list;
  total_exceptions : int;
  log : string list;
  detector_findings : finding list;
  binfpe_findings : finding list;
  locations : Gpu_fpx.Loc_table.entry list;
  channel : channel;
  analyzer_reports : Gpu_fpx.Analyzer.report list;
  escapes : Gpu_fpx.Analyzer.escape list;
  obs : Fpx_obs.Sink.t;
}

let count m ~fmt ~exce =
  match
    List.find_opt (fun (f, e, _) -> f = fmt && Exce.equal e exce) m.counts
  with
  | Some (_, _, n) -> n
  | None -> 0

(* What the built tools leave behind, read once after the run. Plain
   data: no field holds a tool, a channel or a table, so a measurement
   keeps no tool alive. *)
type part = {
  det : finding list;
  bin : finding list;
  locs : Gpu_fpx.Loc_table.entry list;
  lines : string list;
  degradations : string list;
  reports : Gpu_fpx.Analyzer.report list;
  escs : Gpu_fpx.Analyzer.escape list;
  det_channel : channel option;
  bin_received : int option;
}

let no_part =
  {
    det = [];
    bin = [];
    locs = [];
    lines = [];
    degradations = [];
    reports = [];
    escs = [];
    det_channel = None;
    bin_received = None;
  }

(* A stack's members, in member order. The channel counters come from
   the first detector member, or else from the first BinFPE member. *)
let concat_parts ps =
  let cat f = List.concat_map f ps in
  {
    det = cat (fun p -> p.det);
    bin = cat (fun p -> p.bin);
    locs = cat (fun p -> p.locs);
    lines = cat (fun p -> p.lines);
    degradations = cat (fun p -> p.degradations);
    reports = cat (fun p -> p.reports);
    escs = cat (fun p -> p.escs);
    det_channel = List.find_map (fun p -> p.det_channel) ps;
    bin_received = List.find_map (fun p -> p.bin_received) ps;
  }

let read_detector d =
  let module D = Gpu_fpx.Detector in
  let finding (f : D.finding) =
    let e = f.D.entry in
    {
      kernel = e.Gpu_fpx.Loc_table.kernel;
      pc = e.Gpu_fpx.Loc_table.pc;
      loc = e.Gpu_fpx.Loc_table.loc;
      fmt = f.D.fmt;
      exce = f.D.exce;
    }
  in
  {
    no_part with
    det = List.map finding (D.findings d);
    locs = Gpu_fpx.Loc_table.entries (D.loc_table d);
    lines = D.log_lines d;
    degradations = D.degradations d;
    det_channel =
      Some
        {
          records_seen = D.records_seen d;
          drains_delayed = D.channel_drains_delayed d;
          records_stranded = D.channel_stranded d;
          backoff_k = D.adaptive_k d;
        };
  }

let read_binfpe b =
  let module B = Fpx_binfpe.Binfpe in
  let finding (f : B.finding) =
    { kernel = f.B.kernel; pc = f.B.pc; loc = f.B.loc; fmt = f.B.fmt;
      exce = f.B.exce }
  in
  {
    no_part with
    bin = List.map finding (B.findings b);
    bin_received = Some (B.records_received b);
  }

let read_analyzer a =
  let module A = Gpu_fpx.Analyzer in
  {
    no_part with
    lines = A.log_lines a;
    reports = A.reports a;
    escs = A.escapes a;
  }

(* Build the tool a config describes on a device, with how to read it
   after the run. Every configuration — including composed stacks —
   runs through the same [Fpx_tool.instance] path; only this match knows
   the concrete tools. *)
let rec instance_of_config dev = function
  | No_tool -> None
  | Detector config ->
    let d = Gpu_fpx.Detector.create ~config dev in
    Some (Gpu_fpx.Detector.tool d, fun () -> read_detector d)
  | Binfpe ->
    let b = Fpx_binfpe.Binfpe.create dev in
    Some (Fpx_binfpe.Binfpe.tool b, fun () -> read_binfpe b)
  | Analyzer ->
    let a = Gpu_fpx.Analyzer.create dev in
    Some (Gpu_fpx.Analyzer.tool a, fun () -> read_analyzer a)
  | Stack cfgs ->
    let members = List.filter_map (instance_of_config dev) cfgs in
    Some
      ( Fpx_tool.stack (List.map fst members),
        fun () -> concat_parts (List.map (fun (_, read) -> read ()) members) )

(* Unique exception sites per (format, kind): FP64 then FP32 ×
   [Exce.all], non-zero cells only. Each member found each of its sites
   once, so a stack's cell is the sum over its members. *)
let counts_of findings =
  List.concat_map
    (fun fmt ->
      List.filter_map
        (fun exce ->
          let n =
            List.length
              (List.filter
                 (fun f -> f.fmt = fmt && Exce.equal f.exce exce)
                 findings)
          in
          if n > 0 then Some (fmt, exce, n) else None)
        Exce.all)
    [ Isa.FP64; Isa.FP32 ]

let run_body ?cost ?(obs = Fpx_obs.Sink.null) ?fault ?bw ?on_launch ~mode
    ~tool (w : W.t) body =
  (* A fresh plan per run: the spec is immutable, so two runs with the
     same spec see identical fault decision sequences. *)
  let plan, dev, rt, built =
    Fpx_obs.Span.with_ ~cat:"run" "run.setup" (fun () ->
        let plan =
          match fault with None -> Fault.none | Some spec -> Fault.of_spec spec
        in
        let dev = Fpx_gpu.Device.create ?cost ~obs ~fault:plan ?bw () in
        let rt = Fpx_nvbit.Runtime.create dev in
        Fpx_nvbit.Runtime.set_on_launch rt on_launch;
        let built = instance_of_config dev tool in
        Option.iter (fun (i, _) -> Fpx_nvbit.Runtime.attach rt i) built;
        (plan, dev, rt, built))
  in
  (* An aborted launch still yields a partial report: whatever the tool
     drained before the abort survives in its host-side tables. This is
     the one place a run's ending becomes a status: either watchdog (the
     executor's instruction budget, the runtime's slowdown budget) is a
     hang; anything else the body raises is a fault. *)
  let abort =
    Fpx_obs.Span.with_ ~cat:"run"
      ~args:
        (if Fpx_obs.Span.enabled () then [ ("program", Fpx_obs.Span.S w.W.name) ]
         else [])
      "run.body"
      (fun () ->
        try
          body { W.rt; mode };
          None
        with
        | Fpx_nvbit.Runtime.Hang_abort msg -> Some (Hung msg)
        | Fpx_gpu.Exec.Trap msg when String.starts_with ~prefix:"watchdog" msg
          ->
          Some (Hung msg)
        | Fpx_gpu.Exec.Trap msg -> Some (Faulted msg)
        | e -> Some (Faulted (Printexc.to_string e)))
  in
  Fpx_obs.Span.with_ ~cat:"run" "run.report" @@ fun () ->
  let stats = Fpx_nvbit.Runtime.totals rt in
  let slowdown = Fpx_gpu.Stats.slowdown stats in
  let hang =
    (slowdown > dev.Fpx_gpu.Device.cost.Fpx_gpu.Cost.hang_slowdown
    || match abort with Some (Hung _) -> true | _ -> false)
  in
  let part = match built with None -> no_part | Some (_, read) -> read () in
  let counts = counts_of (part.det @ part.bin) in
  let degradations =
    (match Fault.active plan with Some a -> Fault.reasons a | None -> [])
    @ part.degradations
  in
  let status =
    match abort with
    | Some s -> s
    | None ->
      if hang then Hung ""
      else if degradations <> [] then Degraded degradations
      else Completed
  in
  (* Export fault-injection counters into the run's metrics registry so
     a --metrics-out dump shows what the plan actually did. *)
  (match Fpx_obs.Sink.active obs, Fault.active plan with
  | Some a, Some fa ->
    let m = a.Fpx_obs.Sink.metrics in
    List.iter
      (fun (site, n) ->
        if n > 0 then
          Fpx_obs.Metrics.add_named m
            ~help:"Faults injected by site"
            (Printf.sprintf "fpx_fault_injected_total{site=%S}"
               (Fault.site_to_string site))
            n)
      (Fault.injected_counts fa);
    Fpx_obs.Metrics.add_named m ~help:"Total faults injected"
      "fpx_fault_injected_total" (Fault.total_injected fa);
    Fpx_obs.Metrics.add_named m
      ~help:"Cycles attributable to injected faults"
      "fpx_fault_cycles_total" stats.Fpx_gpu.Stats.fault_cycles
  | _ -> ());
  (* Surface the trace ring's drop count: an exported trace that wrapped
     looks complete unless a counter says otherwise. *)
  (match Fpx_obs.Sink.active obs with
  | Some a ->
    let d = Fpx_obs.Span.dropped a.Fpx_obs.Sink.trace in
    if d > 0 then
      Fpx_obs.Metrics.add_named a.Fpx_obs.Sink.metrics
        ~help:"Trace events overwritten by ring wrap-around"
        "fpx_trace_events_dropped_total" d
  | None -> ());
  {
    program = w.W.name;
    tool;
    slowdown;
    hang;
    status;
    records = stats.Fpx_gpu.Stats.records_pushed;
    dyn_instrs = stats.Fpx_gpu.Stats.dyn_instrs;
    counts;
    total_exceptions = List.fold_left (fun a (_, _, n) -> a + n) 0 counts;
    log = part.lines;
    detector_findings = part.det;
    binfpe_findings = part.bin;
    locations = part.locs;
    channel =
      (match part.det_channel with
      | Some c -> c
      | None ->
        {
          records_seen = Option.value part.bin_received ~default:0;
          drains_delayed = 0;
          records_stranded = 0;
          backoff_k = 0;
        });
    analyzer_reports = part.reports;
    escapes = part.escs;
    obs;
  }

let run ?cost ?obs ?fault ?bw ?on_launch ?(mode = Fpx_klang.Mode.precise)
    ~tool (w : W.t) =
  run_body ?cost ?obs ?fault ?bw ?on_launch ~mode ~tool w w.W.run

let run_repair ?obs ?fault ?(mode = Fpx_klang.Mode.precise) ~tool (w : W.t) =
  Option.map (fun body -> run_body ?obs ?fault ~mode ~tool w body) w.W.repair

let geomean = function
  | [] -> 1.0
  | xs ->
    exp (List.fold_left (fun a x -> a +. log (max x 1e-9)) 0.0 xs
         /. float_of_int (List.length xs))

(* --- JSON rendering (a template: [slowdown] is fixed at %.4f) -------- *)

let to_json m =
  let quote = Fpx_obs.Json.quote in
  let counts =
    String.concat ","
      (List.map
         (fun (fmt, e, n) ->
           Printf.sprintf "{\"format\":\"%s\",\"kind\":\"%s\",\"locations\":%d}"
             (Isa.fp_format_to_string fmt) (Exce.to_string e) n)
         m.counts)
  in
  let escapes =
    String.concat ","
      (List.map
         (fun (e : Gpu_fpx.Analyzer.escape) ->
           Printf.sprintf "{\"kernel\":%s,\"loc\":%s,\"kind\":\"%s\"}"
             (quote e.Gpu_fpx.Analyzer.store_kernel)
             (quote e.Gpu_fpx.Analyzer.store_loc)
             (Fpx_num.Kind.to_string e.Gpu_fpx.Analyzer.kind))
         m.escapes)
  in
  let log = String.concat "," (List.map quote m.log) in
  Printf.sprintf
    "{\"program\":%s,\"tool\":%s,\"slowdown\":%.4f,\"hang\":%b,\"status\":\"%s\",\"status_detail\":%s,\"records\":%d,\"dyn_instrs\":%d,\"total_exceptions\":%d,\"counts\":[%s],\"escapes\":[%s],\"log\":[%s]}"
    (quote m.program)
    (quote (tool_config_to_string m.tool))
    m.slowdown m.hang
    (status_to_string m.status)
    (quote (status_detail m.status))
    m.records m.dyn_instrs m.total_exceptions counts escapes log
