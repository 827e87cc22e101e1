open Fpx_sass
open Fpx_gpu
module Exce = Fpx_tool.Exce
module Fault = Fpx_fault.Fault

type config = {
  use_gt : bool;
  warp_leader : bool;
  sampling : Sampling.t;
  adaptive_backoff : bool;
  static_prune : bool;
}

let default_config =
  {
    use_gt = true;
    warp_leader = true;
    sampling = Sampling.always;
    adaptive_backoff = false;
    static_prune = false;
  }

type finding = { entry : Loc_table.entry; fmt : Isa.fp_format; exce : Exce.t }

type t = {
  fault : Fault.plan;
  cost : Cost.t;
  config : config;
  mutable gt : Global_table.t option;
      (** [None] without dedup: the phase-1 configuration, or after an
          injected GT-allocation failure forced the fallback. *)
  locs : Loc_table.t;
  channel : int Channel.t;
  seen_host : (int, unit) Hashtbl.t;
  mutable findings_rev : finding list;
  mutable log_rev : string list;
  mutable gt_alloc_charged : bool;
  mutable adaptive_k : int;
      (** Escalated FREQ-REDN-FACTOR under channel congestion
          (0 = not escalated). *)
  obs : Fpx_obs.Sink.active option;
  exce_counters : Fpx_obs.Metrics.counter array array;
      (** Pre-resolved per (format, kind) so the hot path never builds a
          metric name; empty when [obs = None]. *)
  line_buf : Buffer.t;
      (** Reused for log-line assembly on the drain path. Per-instance —
          parallel sweeps run one detector per domain. *)
}

(* Cycles per GT probe (a global-memory test-and-set in the real tool). *)
let gt_probe_cost = 12

let fmt_idx = function Isa.FP16 -> 0 | Isa.FP32 -> 1 | Isa.FP64 -> 2
let all_fmts = [ Isa.FP16; Isa.FP32; Isa.FP64 ]

let exce_idx = function
  | Exce.Nan -> 0
  | Exce.Inf -> 1
  | Exce.Sub -> 2
  | Exce.Div0 -> 3

let create ?(config = default_config) device =
  let obs = Fpx_obs.Sink.active device.Device.obs in
  let exce_counters =
    match obs with
    | None -> [||]
    | Some a ->
      Array.of_list
        (List.map
           (fun fmt ->
             Array.of_list
               (List.map
                  (fun e ->
                    Fpx_obs.Metrics.counter a.Fpx_obs.Sink.metrics
                      (Printf.sprintf
                         "fpx_exceptions_total{format=%S,kind=%S}"
                         (Isa.fp_format_to_string fmt) (Exce.to_string e)))
                  Exce.all))
           all_fmts)
  in
  {
    fault = device.Device.fault;
    cost = device.Device.cost;
    config;
    gt = (if config.use_gt then Some (Global_table.create ()) else None);
    locs = Loc_table.create ();
    channel =
      Channel.create ~fault:device.Device.fault ?bw:device.Device.bw
        ~cost:device.Device.cost ();
    seen_host = Hashtbl.create 64;
    findings_rev = [];
    log_rev = [];
    gt_alloc_charged = false;
    adaptive_k = 0;
    obs;
    exce_counters;
    line_buf = Buffer.create 160;
  }

let gt_cardinal t = Option.fold ~none:0 ~some:Global_table.cardinal t.gt

(* CheckExce from Algorithm 2, on the lane's checked register(s). *)
let exce_of_lane (api : Exec.warp_api) check ~lane =
  let fmt = Site.fmt check and div0 = Site.is_div0 check in
  match check with
  | Site.Check_32 d | Site.Check_16 d | Site.Div0_32 d ->
    Exce.classify ~fmt ~div0 (api.Exec.read_reg ~lane d) 0l
  | Site.Check_64 (lo, hi) | Site.Div0_64 (lo, hi) ->
    Exce.classify ~fmt ~div0 (api.Exec.read_reg ~lane lo)
      (api.Exec.read_reg ~lane hi)

let exce_of_idx = [| Exce.Nan; Exce.Inf; Exce.Sub; Exce.Div0 |]

(* The per-record delivery paths are top-level functions, not closures
   built inside [callback]: the callback fires on every instrumented
   dynamic instruction, and on exception-free warps (the common case)
   it must allocate nothing. *)
let push_record t (ctx : Exec.ctx) (api : Exec.warp_api) ~kernel ~loc ~fmt e
    idx =
  let delivered = Channel.try_push t.channel ~stats:ctx.Exec.stats idx in
  (if delivered then
     match t.obs with
     | None -> ()
     | Some a ->
       Fpx_obs.Span.instant a.Fpx_obs.Sink.trace ~tid:api.Exec.warp_index
         ~name:"exception" ~cat:"exception"
         ~ts:
           (Fpx_obs.Sink.now a
              ~launch_cycles:(Stats.total_cycles ctx.Exec.stats))
         ~args:
           [ ("kernel", Fpx_obs.Span.S kernel);
             ("loc", Fpx_obs.Span.S loc);
             ("format", Fpx_obs.Span.S (Isa.fp_format_to_string fmt));
             ("kind", Fpx_obs.Span.S (Exce.to_string e)) ]
         ());
  delivered

let probe_and_push t gt ctx api ~kernel ~loc ~fmt e idx =
  ctx.Exec.stats.Stats.tool_cycles <-
    ctx.Exec.stats.Stats.tool_cycles + gt_probe_cost;
  if Global_table.test_and_set gt idx then
    if not (push_record t ctx api ~kernel ~loc ~fmt e idx) then
      (* the record this slot claimed never reached the host: undo the
         dedup mark so a recurrence gets another chance *)
      Global_table.reset gt idx

let callback t check ~loc_idx ~kernel ~pc ~loc (ctx : Exec.ctx)
    (api : Exec.warp_api) =
  let fmt = Site.fmt check in
  let leader = Option.is_some t.gt && t.config.warp_leader in
  let row =
    match t.obs with None -> [||] | Some _ -> t.exce_counters.(fmt_idx fmt)
  in
  (* One pass over the executing lanes. Warp-leader dedup runs on an int
     bitmask, remembering first-occurrence order in 2-bit packed form so
     the push sequence matches what the old list-based dedup produced
     (reports are compared byte for byte across versions). *)
  let n_exce = ref 0 in
  let mask = ref 0 in
  let order = ref 0 in
  let uniques = ref 0 in
  List.iter
    (fun lane ->
      match exce_of_lane api check ~lane with
      | None -> ()
      | Some e ->
        incr n_exce;
        if Array.length row > 0 then Fpx_obs.Metrics.incr row.(exce_idx e);
        if leader then begin
          let i = exce_idx e in
          if !mask land (1 lsl i) = 0 then begin
            mask := !mask lor (1 lsl i);
            order := !order lor (i lsl (2 * !uniques));
            incr uniques
          end
        end
        else begin
          (* Phase 1 (w/o GT) — also the fallback after an injected
             GT-allocation failure: every occurrence crosses the
             channel. *)
          let idx = Exce.encode ~loc:loc_idx ~fmt e in
          match t.gt with
          | Some gt -> probe_and_push t gt ctx api ~kernel ~loc ~fmt e idx
          | None ->
            ignore (push_record t ctx api ~kernel ~loc ~fmt e idx : bool)
        end)
    api.Exec.executing_lanes;
  (match t.gt with
  | Some gt when leader ->
    (* reversed first-occurrence order, as the old fold produced *)
    for i = !uniques - 1 downto 0 do
      let e = exce_of_idx.((!order lsr (2 * i)) land 3) in
      probe_and_push t gt ctx api ~kernel ~loc ~fmt e
        (Exce.encode ~loc:loc_idx ~fmt e)
    done
  | _ -> ());
  match t.obs with
  | Some a when !n_exce > 0 ->
    Fpx_obs.Profile.add_exce a.Fpx_obs.Sink.profile ~kernel ~pc ~n:!n_exce ()
  | _ -> ()

let instrument t prog b =
  (* Static pruning: the abstract interpreter proves some planned sites
     can never produce the classes their check fires on; dropping those
     injections shrinks the instrumentation cost without changing a
     single report (the checks were no-ops). *)
  if t.config.static_prune then begin
    let p = Fpx_static.Prune.analyze prog in
    Fpx_tool.Inject.set_prune b (Fpx_static.Prune.is_clean p)
  end;
  Array.iter
    (fun (i : Instr.t) ->
      match Site.plan i with
      | None -> ()
      | Some check ->
        let loc_idx =
          Loc_table.intern t.locs
            {
              Loc_table.kernel = prog.Program.mangled;
              pc = i.Instr.pc;
              loc = Instr.loc_string i;
              sass = Instr.sass_string i;
            }
        in
        Fpx_tool.Inject.insert_after b ~pc:i.Instr.pc
          ~n_values:(Site.n_values check)
          (callback t check ~loc_idx ~kernel:prog.Program.name
             ~pc:i.Instr.pc ~loc:(Instr.loc_string i)))
    prog.Program.instrs;
  (* The prune predicate must not outlive this tool's inserts: in a
     stacked attachment the next member shares the builder. *)
  if t.config.static_prune then Fpx_tool.Inject.set_prune b (fun _ -> false)

(* Static fragments of the finding line, preformatted once — the drain
   path assembles findings in a reused buffer instead of going through
   Printf's interpreter per record. *)
let line_prefix = "#GPU-FPX LOC-EXCEP INFO: in kernel ["

let line_of_finding t f =
  let e = f.entry in
  let b = t.line_buf in
  Buffer.clear b;
  Buffer.add_string b line_prefix;
  Buffer.add_string b e.Loc_table.kernel;
  Buffer.add_string b "], ";
  Buffer.add_string b (Exce.to_string f.exce);
  Buffer.add_string b " found @ ";
  Buffer.add_string b e.Loc_table.loc;
  Buffer.add_string b " in [";
  Buffer.add_string b e.Loc_table.kernel;
  Buffer.add_string b "] [";
  Buffer.add_string b (Isa.fp_format_to_string f.fmt);
  Buffer.add_char b ']';
  Buffer.contents b

(* Absorb drained records without a per-drain closure; only indices not
   yet seen host-side allocate anything (their finding + log line). *)
let rec absorb t = function
  | [] -> ()
  | idx :: rest ->
    if not (Hashtbl.mem t.seen_host idx) then begin
      Hashtbl.add t.seen_host idx ();
      let loc, fmt, exce = Exce.decode idx in
      (match Loc_table.entry t.locs loc with
      | entry ->
        let f = { entry; fmt; exce } in
        t.findings_rev <- f :: t.findings_rev;
        t.log_rev <- line_of_finding t f :: t.log_rev
      | exception Not_found -> ())
    end;
    absorb t rest

let on_launch_end t stats ~kernel:_ =
  let idxs = Channel.drain t.channel ~stats in
  (match t.obs with
  | None -> ()
  | Some a ->
    Fpx_obs.Span.instant a.Fpx_obs.Sink.trace ~name:"channel_flush"
      ~cat:"channel"
      ~ts:(Fpx_obs.Sink.now a ~launch_cycles:(Stats.total_cycles stats))
      ~args:
        [ ("tool", Fpx_obs.Span.S "detector");
          ("records", Fpx_obs.Span.I (List.length idxs)) ]
      ();
    Fpx_obs.Metrics.set
      (Fpx_obs.Metrics.gauge a.Fpx_obs.Sink.metrics
         ~help:"Global-table slots in use (unique exception records)"
         "fpx_gt_occupancy")
      (float_of_int (gt_cardinal t)));
  absorb t idxs;
  (* Adaptive backoff: a launch that floods the channel is a sign the
     congestion stalls are about to snowball into a hang; trade coverage
     for survival by undersampling subsequent invocations harder. On a
     shared device the threshold follows the capacity the neighbours
     leave us — interference makes the detector back off earlier. *)
  if
    t.config.adaptive_backoff
    && Channel.pushed_this_launch t.channel
       > 4 * Channel.effective_capacity t.channel
  then begin
    let k = min 256 (if t.adaptive_k = 0 then 4 else t.adaptive_k * 4) in
    if k <> t.adaptive_k then begin
      t.adaptive_k <- k;
      t.log_rev <-
        Printf.sprintf
          "#GPU-FPX WARNING: channel congestion (%d records in one \
           launch); raising FREQ-REDN-FACTOR to %d"
          (Channel.pushed_this_launch t.channel)
          k
        :: t.log_rev
    end
  end

let should_instrument t ~kernel ~invocation =
  let s = t.config.sampling in
  let s = if t.adaptive_k > 0 then Sampling.with_freq s t.adaptive_k else s in
  Sampling.should_instrument s ~kernel ~invocation

let on_launch_begin t pre =
  Channel.new_launch t.channel;
  if Option.is_some t.gt && not t.gt_alloc_charged then begin
    t.gt_alloc_charged <- true;
    match Fault.active t.fault with
    | Some a when Fault.fire a Fault.Gt_alloc_fail ->
      (* cudaMalloc for GT failed: degrade to no-dedup mode — the tool
         keeps detecting, every occurrence now crosses the channel (the
         phase-1 configuration) *)
      t.gt <- None;
      t.log_rev <-
        "#GPU-FPX WARNING: global-table allocation failed; continuing \
         without dedup (every occurrence crosses the channel)"
        :: t.log_rev
    | _ ->
      pre.Stats.tool_cycles <-
        pre.Stats.tool_cycles
        + t.cost.Cost.gt_alloc_per_launch
  end

let findings t = List.rev t.findings_rev

let count t ~fmt ~exce =
  List.length
    (List.filter
       (fun f -> f.fmt = fmt && Exce.equal f.exce exce)
       t.findings_rev)

let total t = List.length t.findings_rev

let log_lines t = List.rev t.log_rev

let adaptive_k t = t.adaptive_k

let channel_drains_delayed t = Channel.drains_delayed t.channel
let channel_stranded t = Channel.queued t.channel
let records_seen t = Hashtbl.length t.seen_host

let degradations t =
  let r = [] in
  let r =
    if t.config.use_gt && Option.is_none t.gt then "gt-alloc-fallback" :: r
    else r
  in
  let r =
    if t.adaptive_k = 0 then r
    else Printf.sprintf "adaptive-backoff(%d)" t.adaptive_k :: r
  in
  List.rev r

let loc_table t = t.locs

module Tool = struct
  type nonrec t = t

  let name _ = "GPU-FPX detector"
  let should_instrument = should_instrument
  let instrument = instrument
  let on_launch_begin = on_launch_begin
  let on_drain t stats ~kernel = on_launch_end t stats ~kernel
end

let tool t = Fpx_tool.Instance ((module Tool), t)
