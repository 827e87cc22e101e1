module W = Fpx_workloads.Workload
module Sched = Fpx_sched.Sched

let run ?(jobs = 1) ?cost ?(observe = false) ?fault ?mode ~tool programs =
  (* One job = one whole program run on a fresh device, channel, fault
     plan and sink — jobs share nothing, so the per-program measurements
     are identical to the sequential ones and [Sched.map] returns them
     in catalog order. Everything downstream (report bytes, census,
     merged metrics) is therefore independent of [jobs]. *)
  Fpx_obs.Span.with_ ~cat:"sweep"
    ~args:
      (if Fpx_obs.Span.enabled () then
         [ ("jobs", Fpx_obs.Trace.I jobs);
           ("programs", Fpx_obs.Trace.I (List.length programs)) ]
       else [])
    "sweep.run"
    (fun () ->
      Sched.map ~jobs
        (fun w ->
          let obs =
            if observe then Fpx_obs.Sink.create () else Fpx_obs.Sink.null
          in
          Runner.run ?cost ~obs ?fault ?mode ~tool w)
        programs)

let report_json ms =
  Fpx_obs.Span.with_ ~cat:"sweep" "sweep.report_json" (fun () ->
      Printf.sprintf "[%s]\n" (String.concat "," (List.map Runner.to_json ms)))

(* --- Cross-run aggregation ------------------------------------------- *)

let detectors ms =
  List.concat_map
    (fun (m : Runner.measurement) ->
      List.filter_map
        (function Gpu_fpx.Detector.Detector d -> Some d | _ -> None)
        m.Runner.extras)
    ms

type census = {
  locs : Gpu_fpx.Loc_table.t;
  gt : Gpu_fpx.Global_table.t;
}

let census ms =
  Fpx_obs.Span.with_ ~cat:"sweep" "sweep.census" @@ fun () ->
  let ds = detectors ms in
  (* Each run interned locations into its own table, so equal sites got
     different indices in different runs. Re-intern every run's entries
     into one aggregate table (stable: runs are folded in catalog
     order), then re-encode each run's findings under the merged indices
     into a per-run shard GT and union the shards. *)
  let locs =
    List.fold_left
      (fun acc d -> Gpu_fpx.Loc_table.merge acc (Gpu_fpx.Detector.loc_table d))
      (Gpu_fpx.Loc_table.create ()) ds
  in
  let gt =
    List.fold_left
      (fun acc d ->
        let shard = Gpu_fpx.Global_table.create () in
        List.iter
          (fun (f : Gpu_fpx.Detector.finding) ->
            let loc = Gpu_fpx.Loc_table.intern locs f.Gpu_fpx.Detector.entry in
            ignore
              (Gpu_fpx.Global_table.test_and_set shard
                 (Gpu_fpx.Exce.encode ~loc ~fmt:f.Gpu_fpx.Detector.fmt
                    f.Gpu_fpx.Detector.exce)
                : bool))
          (Gpu_fpx.Detector.findings d);
        Gpu_fpx.Global_table.merge acc shard)
      (Gpu_fpx.Global_table.create ()) ds
  in
  { locs; gt }

let merged_metrics ms =
  Fpx_obs.Span.with_ ~cat:"sweep" "sweep.merge_metrics" @@ fun () ->
  List.fold_left
    (fun acc (m : Runner.measurement) ->
      match Fpx_obs.Sink.active m.Runner.obs with
      | None -> acc
      | Some a ->
        let mx = a.Fpx_obs.Sink.metrics in
        Some
          (match acc with
          | None -> Fpx_obs.Metrics.merge (Fpx_obs.Metrics.create ()) mx
          | Some acc -> Fpx_obs.Metrics.merge acc mx))
    None ms
