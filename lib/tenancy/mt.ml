(* The partitioned concurrent executor: several tenants' kernel streams
   interleaved on one simulated device.

   Each tenant's workload body runs as a fiber (an OCaml 5 effect
   handler); the runtime's per-launch hook performs a [Yield] effect
   after every completed launch, handing control back to the arbiter
   here. Arbitration is deterministic weighted round-robin — tenant
   order and priorities fully decide the interleaving, so a fixed
   (tenant set, partition, arbitration policy) replays byte-identically
   at any [--jobs]. Cross-tenant pressure flows exclusively through the
   shared {!Fpx_gpu.Bandwidth} meter each tenant's device is bound
   to. *)

open Fpx_gpu
module Runner = Fpx_harness.Runner
module W = Fpx_workloads.Workload
module Isa = Fpx_sass.Isa
module Exce = Fpx_tool.Exce

type outcome = {
  tenant : Tenant.t;
  m : Runner.measurement;
  launches : int;
  total_cycles : int;
  contention_cycles : int;
}

type result = {
  partition : Bandwidth.partition;
  outcomes : outcome list;
  timeline : (string * string) list;
      (** One [(tenant id, kernel)] per arbitrated launch, in execution
          order — the deterministic interleaving witness. *)
}

type _ Effect.t += Yield : unit Effect.t

let outcome_of tenant (m : Runner.measurement) ~launches ~stats =
  {
    tenant;
    m;
    launches;
    total_cycles = Stats.total_cycles stats;
    contention_cycles = stats.Stats.contention_cycles;
  }

let run ?(partition = Bandwidth.No_partition) tenants =
  let ts = Array.of_list tenants in
  let n = Array.length ts in
  if n = 0 then invalid_arg "Mt.run: no tenants";
  (* ids label metric series and reports: two tenants sharing one would
     be summed together *)
  Array.iteri
    (fun i (t : Tenant.t) ->
      for j = 0 to i - 1 do
        if ts.(j).Tenant.id = t.Tenant.id then
          invalid_arg ("Mt.run: duplicate tenant id " ^ t.Tenant.id)
      done)
    ts;
  (* resolve every workload before anything runs, so an unknown program
     fails fast instead of mid-co-run *)
  let ws =
    Array.map
      (fun (t : Tenant.t) ->
        try Fpx_workloads.Catalog.find t.Tenant.program
        with Not_found ->
          invalid_arg
            (Printf.sprintf "Mt.run: tenant %s: unknown program %s"
               t.Tenant.id t.Tenant.program))
      ts
  in
  let shares =
    Array.map (fun (t : Tenant.t) -> (t.Tenant.slot_share, t.Tenant.mem_share)) ts
  in
  let meter = Bandwidth.create ~partition ~cost:Cost.default ~shares () in
  let results = Array.make n None in
  let errors = Array.make n None in
  let per_stats = Array.init n (fun _ -> Stats.create ()) in
  let launches = Array.make n 0 in
  let timeline_rev = ref [] in
  let pending :
      (unit, unit) Effect.Deep.continuation option array =
    Array.make n None
  in
  let live = ref 0 in
  let fiber i () =
    let t = ts.(i) in
    let m =
      Runner.run ~tool:t.Tenant.tool
        ~bw:{ Bandwidth.meter; tenant = i }
        ~on_launch:(fun ~kernel stats ->
          launches.(i) <- launches.(i) + 1;
          Stats.add per_stats.(i) stats;
          timeline_rev := (t.Tenant.id, kernel) :: !timeline_rev;
          Effect.perform Yield)
        ws.(i)
    in
    results.(i) <- Some m
  in
  let start i =
    incr live;
    Effect.Deep.match_with (fiber i) ()
      {
        Effect.Deep.retc =
          (fun () ->
            decr live;
            Bandwidth.retire meter ~tenant:i);
        exnc =
          (fun e ->
            decr live;
            Bandwidth.retire meter ~tenant:i;
            errors.(i) <- Some e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  pending.(i) <- Some k)
            | _ -> None);
      }
  in
  (* Streams start in declared tenant order, each running to its first
     launch boundary; then weighted round-robin, [priority] consecutive
     launch turns per round. The turn spans make the arbitration visible
     to the span recorder without crossing a yield (fiber-internal spans
     would; the recorder stays off during co-runs). *)
  for i = 0 to n - 1 do
    start i
  done;
  while !live > 0 do
    for i = 0 to n - 1 do
      let rec spin q =
        if q > 0 then
          match pending.(i) with
          | None -> ()
          | Some k ->
            pending.(i) <- None;
            Fpx_obs.Span.with_ ~cat:"mt"
              ~args:
                (if Fpx_obs.Span.enabled () then
                   [ ("tenant", Fpx_obs.Span.S ts.(i).Tenant.id) ]
                 else [])
              "mt.turn"
              (fun () -> Effect.Deep.continue k ());
            spin (q - 1)
      in
      spin (max 1 ts.(i).Tenant.priority)
    done
  done;
  Array.iteri
    (fun i e -> match e with Some e -> raise e | None -> ignore i)
    errors;
  let outcomes =
    List.init n (fun i ->
        match results.(i) with
        | Some m ->
          (* per-tenant cycle totals come from the launch stats the
             runtime accumulated on this tenant's dedicated counters *)
          outcome_of ts.(i) m ~launches:launches.(i) ~stats:per_stats.(i)
        | None -> assert false)
  in
  { partition; outcomes; timeline = List.rev !timeline_rev }

let solo tenant =
  (* A one-tenant co-run exerts no neighbour pressure: every meter
     answer collapses to the unmetered one, so this IS the solo
     baseline — same code path, byte-identical report. *)
  match (run ~partition:Bandwidth.No_partition [ tenant ]).outcomes with
  | [ o ] -> o
  | _ -> assert false

(* --- the per-tenant exception report -------------------------------- *)

(* What isolation must preserve byte for byte: the tool's counts table
   plus its log lines. Runtime numbers (cycles, slowdown) are excluded —
   partitioning bounds them but cannot make them identical. *)
let report_text (o : outcome) =
  let b = Buffer.create 256 in
  List.iter
    (fun (fmt, e, n) ->
      Buffer.add_string b (Isa.fp_format_to_string fmt);
      Buffer.add_char b ' ';
      Buffer.add_string b (Exce.to_string e);
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int n);
      Buffer.add_char b '\n')
    o.m.Runner.counts;
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    o.m.Runner.log;
  Buffer.contents b

(* --- JSON / metrics export ------------------------------------------ *)

let quote = Fpx_obs.Json.quote

let outcome_json o =
  let c = o.m.Runner.channel in
  Printf.sprintf
    "{\"tenant\":%s,\"program\":%s,\"tool\":%s,\"status\":\"%s\",\"launches\":%d,\"total_cycles\":%d,\"contention_cycles\":%d,\"records\":%d,\"records_seen\":%d,\"drains_delayed\":%d,\"records_stranded\":%d,\"backoff_k\":%d,\"total_exceptions\":%d,\"report_sha\":\"%s\"}"
    (quote o.tenant.Tenant.id)
    (quote o.tenant.Tenant.program)
    (quote (Runner.tool_config_to_string o.tenant.Tenant.tool))
    (Runner.status_to_string o.m.Runner.status)
    o.launches o.total_cycles o.contention_cycles o.m.Runner.records
    c.Runner.records_seen c.Runner.drains_delayed c.Runner.records_stranded
    c.Runner.backoff_k o.m.Runner.total_exceptions
    (Digest.to_hex (Digest.string (report_text o)))

let result_json r =
  let timeline =
    String.concat ","
      (List.map
         (fun (id, kernel) ->
           Printf.sprintf "[%s,%s]" (quote id) (quote kernel))
         r.timeline)
  in
  Printf.sprintf
    "{\"partition\":\"%s\",\"tenants\":[%s],\"timeline\":[%s]}"
    (Bandwidth.partition_to_string r.partition)
    (String.concat "," (List.map outcome_json r.outcomes))
    timeline

(* Tenant-labelled counters into a metrics registry, Prometheus-style. *)
let export_metrics r (m : Fpx_obs.Metrics.t) =
  List.iter
    (fun o ->
      let label name =
        Printf.sprintf "%s{tenant=%S}" name o.tenant.Tenant.id
      in
      let add name ?help v =
        Fpx_obs.Metrics.add_named m ?help (label name) v
      in
      let c = o.m.Runner.channel in
      add "fpx_mt_launches_total" ~help:"Launches arbitrated per tenant"
        o.launches;
      add "fpx_mt_cycles_total" ~help:"Modelled cycles per tenant"
        o.total_cycles;
      add "fpx_mt_contention_cycles_total"
        ~help:"Cycles lost to cross-tenant interference" o.contention_cycles;
      add "fpx_mt_records_seen_total"
        ~help:"Unique exception records received host-side"
        c.Runner.records_seen;
      add "fpx_mt_drains_delayed_total"
        ~help:"Channel drains throttled by neighbour traffic"
        c.Runner.drains_delayed;
      add "fpx_mt_records_stranded_total"
        ~help:"Records still queued when the stream ended"
        c.Runner.records_stranded)
    r.outcomes
