module W = Fpx_workloads.Workload
module Sched = Fpx_sched.Sched

let run ?(jobs = 1) ?(observe = false) ?fault ?mode ~tool programs =
  (* One job = one whole program run on a fresh device, channel, fault
     plan and sink — jobs share nothing, so the per-program measurements
     are identical to the sequential ones and [Sched.map] returns them
     in catalog order. Everything downstream (report bytes, census,
     merged metrics) is therefore independent of [jobs]. *)
  Fpx_obs.Span.with_ ~cat:"sweep"
    ~args:
      (if Fpx_obs.Span.enabled () then
         [ ("jobs", Fpx_obs.Span.I jobs);
           ("programs", Fpx_obs.Span.I (List.length programs)) ]
       else [])
    "sweep.run"
    (fun () ->
      Sched.map ~jobs
        (fun w ->
          let obs =
            if observe then Fpx_obs.Sink.create () else Fpx_obs.Sink.null
          in
          Runner.run ~obs ?fault ?mode ~tool w)
        programs)

let report_json ms =
  Fpx_obs.Span.with_ ~cat:"sweep" "sweep.report_json" (fun () ->
      Printf.sprintf "[%s]\n" (String.concat "," (List.map Runner.to_json ms)))

(* --- Cross-run aggregation ------------------------------------------- *)

(* Each run interned its detectors' locations into its own table, so
   equal sites got different indices in different runs. Re-intern every
   run's locations into one table in catalog order, then count each
   detector finding once under its merged index. BinFPE findings do not
   enter. *)
let census ms =
  Fpx_obs.Span.with_ ~cat:"sweep" "sweep.census" @@ fun () ->
  let locs = Gpu_fpx.Loc_table.create () in
  let intern e = Gpu_fpx.Loc_table.intern locs e in
  List.iter
    (fun (m : Runner.measurement) ->
      List.iter (fun e -> ignore (intern e : int)) m.Runner.locations)
    ms;
  let triplets = Hashtbl.create 1024 in
  List.iter
    (fun (m : Runner.measurement) ->
      List.iter
        (fun (f : Runner.finding) ->
          (* every finding sits at an interned location: only its
             (kernel, pc) key is read *)
          let loc =
            intern
              { Gpu_fpx.Loc_table.kernel = f.Runner.kernel; pc = f.Runner.pc;
                loc = f.Runner.loc }
          in
          Hashtbl.replace triplets
            (Fpx_tool.Exce.encode ~loc ~fmt:f.Runner.fmt f.Runner.exce)
            ())
        m.Runner.detector_findings)
    ms;
  (Gpu_fpx.Loc_table.size locs, Hashtbl.length triplets)

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
