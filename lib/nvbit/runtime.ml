open Fpx_gpu
module Fault = Fpx_fault.Fault

type request = {
  kernel : string;
  grid : int;
  block : int;
  params : Param.t list;
}

type t = {
  dev : Device.t;
  mutable tool : Fpx_tool.instance option;
  counts : (string, int) Hashtbl.t;
  jit_cache : (string, Exec.hooks option) Hashtbl.t;
  decode_cache : (string, Fpx_sass.Decode.t) Hashtbl.t;
  total : Stats.t;
  mutable on_launch : (request -> Stats.t -> unit) option;
  mutable replay : (request -> (Stats.t * Memory.image) option) option;
}

let create dev =
  {
    dev;
    tool = None;
    counts = Hashtbl.create 16;
    jit_cache = Hashtbl.create 16;
    decode_cache = Hashtbl.create 16;
    total = Stats.create ();
    on_launch = None;
    replay = None;
  }

let device t = t.dev
let set_on_launch t f = t.on_launch <- f
let set_replay t f = t.replay <- f

let attach t tool =
  t.tool <- Some tool;
  Hashtbl.reset t.jit_cache

let invocations t ~kernel =
  Option.value (Hashtbl.find_opt t.counts kernel) ~default:0

let totals t = t.total

(* Per-kernel decode cache. Keyed by kernel name
   but validated by physical equality on the program: an instr-flip
   mutant shares its victim's name, and a stale decode would execute the
   unmutated code. *)
let decoded t prog =
  let key = prog.Fpx_sass.Program.name in
  match Hashtbl.find_opt t.decode_cache key with
  | Some d when d.Fpx_sass.Decode.prog == prog -> d
  | _ ->
    let d =
      Fpx_obs.Span.with_ ~cat:"jit" "jit.decode" (fun () ->
          Fpx_sass.Decode.program prog)
    in
    Hashtbl.replace t.decode_cache key d;
    d

let exec t ?hooks ~grid ~block ~params prog =
  Exec.run_decoded ?hooks ~device:t.dev ~grid ~block ~params (decoded t prog)

let instrumented_hooks t tool prog =
  let key = prog.Fpx_sass.Program.name in
  match Hashtbl.find_opt t.jit_cache key with
  | Some h -> h
  | None ->
    let h =
      Fpx_obs.Span.with_ ~cat:"jit"
        ~args:
          (if Fpx_obs.Span.enabled () then [ ("kernel", Fpx_obs.Span.S key) ]
           else [])
        "jit.instrument"
        (fun () ->
          let b = Fpx_tool.Inject.create t.dev prog in
          Fpx_tool.instrument tool prog b;
          Some (Fpx_tool.Inject.build b))
    in
    (* JIT instrumentation failure: the kernel the tool meant to
       instrument runs uninstrumented instead — exceptions in it go
       unobserved, but the application is not taken down. Cached like a
       successful JIT, so the decision is per-kernel, not per-launch. *)
    let h =
      match h, Fault.active t.dev.Device.fault with
      | Some _, Some a when Fault.fire a Fault.Jit_fail ->
        (match Fpx_obs.Sink.active t.dev.Device.obs with
        | Some ob ->
          Fpx_obs.Span.instant ob.Fpx_obs.Sink.trace ~name:"jit_fail"
            ~cat:"fault" ~ts:ob.Fpx_obs.Sink.cycle_base
            ~args:
              [ ("kernel", Fpx_obs.Span.S key);
                ("tool", Fpx_obs.Span.S (Fpx_tool.name tool)) ]
            ()
        | None -> ());
        None
      | _ -> h
    in
    Hashtbl.add t.jit_cache key h;
    (match Fpx_obs.Sink.active t.dev.Device.obs, h with
    | Some a, Some _ ->
      Fpx_obs.Span.instant a.Fpx_obs.Sink.trace ~name:"jit_instrument"
        ~cat:"jit"
        ~ts:a.Fpx_obs.Sink.cycle_base
        ~args:
          [ ("kernel", Fpx_obs.Span.S key);
            ("tool", Fpx_obs.Span.S (Fpx_tool.name tool));
            ( "static_instrs",
              Fpx_obs.Span.I (Fpx_sass.Program.length prog) ) ]
        ()
    | _, _ -> ());
    h

(* The launch as the tool sees it: JIT, on-launch-begin, run, drain.
   Returns the launch's stats. *)
let execute t ~grid ~block ~params ~kernel ~invocation prog =
  (* Targeted instruction-encoding flip (campaign Instr_bit_flip site):
     mutate the kernel at JIT time, before any instrumentation, so the
     tool hooks are built against the mutated program. The mutation is
     deterministic per (kernel, pc, sel) and preserves the instruction
     count; a mutant that fails the renderer/parser round-trip is an
     undecodable encoding and traps as a decode failure. *)
  let prog =
    match Fault.active t.dev.Device.fault with
    | Some a -> (
      match Fault.arch_instr_flip a ~kernel with
      | Some (pc, sel) -> (
        match Fpx_sass.Mutate.instr_flip prog ~pc ~sel with
        | Ok p -> p
        | Error msg ->
          raise
            (Exec.Trap
               (Printf.sprintf "decode-fail: kernel %s pc %d sel %d: %s"
                  kernel pc sel msg)))
      | None -> prog)
    | None -> prog
  in
  Hashtbl.replace t.counts kernel (invocation + 1);
  let cost = t.dev.Device.cost in
  match t.tool with
  | None ->
    Fpx_obs.Span.with_ ~cat:"exec" "exec.launch" (fun () ->
        exec t ~grid ~block ~params prog)
  | Some tool ->
    let hooks =
      if Fpx_tool.should_instrument tool ~kernel ~invocation then
        instrumented_hooks t tool prog
      else None
    in
    let pre = Stats.create () in
    (match hooks with
    | Some _ ->
      let n = Fpx_sass.Program.length prog in
      pre.jit_instrs <- n;
      pre.tool_cycles <-
        cost.Cost.jit_launch_fixed + (cost.Cost.jit_per_instr * n)
    | None ->
      (* interception without re-instrumentation is cheap — the whole
         point of Algorithm 3's undersampling *)
      pre.tool_cycles <- cost.Cost.jit_launch_fixed / 10);
    Fpx_tool.on_launch_begin tool pre;
    let stats =
      Fpx_obs.Span.with_ ~cat:"exec" "exec.launch" (fun () ->
          exec t ?hooks ~grid ~block ~params prog)
    in
    Stats.add stats pre;
    Fpx_obs.Span.with_ ~cat:"drain" "launch.drain" (fun () ->
        Fpx_tool.on_drain tool stats ~kernel);
    stats

(* A recorded launch in place of an executed one: its memory image and
   its stats, with its warp-steps counted off the fault plan's
   countdown. Neither the tool nor the executor runs. *)
let replay t ~kernel ~invocation (stats, image) =
  Fpx_obs.Span.with_ ~cat:"exec" "launch.replay" @@ fun () ->
  Memory.install t.dev.Device.memory image;
  Option.iter
    (fun a -> Fault.arch_skip a stats.Stats.dyn_instrs)
    (Fault.active t.dev.Device.fault);
  Hashtbl.replace t.counts kernel (invocation + 1);
  stats

let launch t ?(grid = 1) ?(block = 32) ~params prog =
  let kernel = prog.Fpx_sass.Program.name in
  let req = { kernel; grid; block; params } in
  let invocation = invocations t ~kernel in
  let cost = t.dev.Device.cost in
  let stats =
    match Option.bind t.replay (fun f -> f req) with
    | Some recorded -> replay t ~kernel ~invocation recorded
    | None -> execute t ~grid ~block ~params ~kernel ~invocation prog
  in
  Stats.add t.total stats;
  (* Launch watchdog: only armed under fault injection, where modelled
     congestion (stall bursts, retry backoff) can push a tool past the
     hang threshold mid-run. Without a fault plan, hangs are judged
     post-hoc by the harness, exactly as before. *)
  (match Fault.active t.dev.Device.fault with
  | Some _ when Stats.slowdown t.total > cost.Cost.hang_slowdown ->
    raise
      (Exec.Watchdog
         (Printf.sprintf
            "watchdog: launch %d of kernel %s pushed slowdown to %.0fx \
             (budget %.0fx)"
            invocation kernel
            (Stats.slowdown t.total)
            cost.Cost.hang_slowdown))
  | _ -> ());
  (match Fpx_obs.Sink.active t.dev.Device.obs with
  | None -> ()
  | Some a ->
    let dur = Stats.total_cycles stats in
    let ts0 = a.Fpx_obs.Sink.cycle_base in
    Fpx_obs.Span.complete a.Fpx_obs.Sink.trace ~name:kernel ~cat:"kernel"
      ~ts:ts0 ~dur
      ~args:
        [ ("grid", Fpx_obs.Span.I grid);
          ("block", Fpx_obs.Span.I block);
          ("invocation", Fpx_obs.Span.I invocation);
          ("dyn_instrs", Fpx_obs.Span.I stats.Stats.dyn_instrs);
          ("records", Fpx_obs.Span.I stats.Stats.records_pushed) ]
      ();
    a.Fpx_obs.Sink.cycle_base <- ts0 + dur;
    let m = a.Fpx_obs.Sink.metrics in
    let c ?help name = Fpx_obs.Metrics.counter m ?help name in
    Fpx_obs.Metrics.incr
      (c ~help:"Kernel launches intercepted" "fpx_launches_total");
    Fpx_obs.Metrics.add
      (c ~help:"Dynamic warp-instructions executed" "fpx_dyn_instrs_total")
      stats.Stats.dyn_instrs;
    Fpx_obs.Metrics.add
      (c ~help:"Device-to-host channel records" "fpx_records_pushed_total")
      stats.Stats.records_pushed;
    Fpx_obs.Metrics.add
      (c ~help:"Static instructions JIT-instrumented" "fpx_jit_instrs_total")
      stats.Stats.jit_instrs;
    Fpx_obs.Metrics.add
      (c ~help:"Application cycles" "fpx_base_cycles_total")
      stats.Stats.base_cycles;
    Fpx_obs.Metrics.add
      (c ~help:"Device-side instrumentation cycles" "fpx_tool_cycles_total")
      stats.Stats.tool_cycles;
    Fpx_obs.Metrics.add
      (c ~help:"Host-side tool cycles (device units)" "fpx_host_cycles_total")
      stats.Stats.host_cycles;
    Fpx_obs.Metrics.observe
      (Fpx_obs.Metrics.histogram m
         ~help:"Channel records pushed per kernel launch"
         ~buckets:[ 1.; 10.; 100.; 1_000.; 10_000.; 100_000. ]
         "fpx_records_per_launch")
      (float_of_int stats.Stats.records_pushed));
  (* Tenant-aware slot accounting: on a shared device, publish this
     launch's pressure (channel records, resident warps) to the shared
     meter so neighbours' subsequent launches feel it. *)
  (match t.dev.Device.bw with
  | None -> ()
  | Some b ->
    Bandwidth.note_launch b.Bandwidth.meter ~tenant:b.Bandwidth.tenant
      ~records:stats.Stats.records_pushed
      ~warps:(grid * ((block + 31) / 32)));
  (* Per-launch hook: the tenancy executor yields its stream here so a
     deterministic arbiter can interleave launches across tenants. *)
  match t.on_launch with None -> () | Some f -> f req stats
