module Exce = Exce
module Inject = Inject

type extra = ..
type extra += No_extra

type report = {
  counts : (Fpx_sass.Isa.fp_format * Exce.t * int) list;
  log : string list;
  degradations : string list;
  extras : extra list;
}

let empty_report = { counts = []; log = []; degradations = []; extras = [] }

(* The formats the summary tables report on (FP16 cells come from the
   extension and are queried through the tool's own accessors). *)
let report_formats = [ Fpx_sass.Isa.FP64; Fpx_sass.Isa.FP32 ]

let cells_of count_fn =
  List.concat_map
    (fun fmt ->
      List.filter_map
        (fun exce ->
          let n = count_fn ~fmt ~exce in
          if n > 0 then Some (fmt, exce, n) else None)
        Exce.all)
    report_formats

module type S = sig
  type t

  val name : t -> string
  val should_instrument : t -> kernel:string -> invocation:int -> bool
  val instrument : t -> Fpx_sass.Program.t -> Inject.t -> unit
  val on_launch_begin : t -> Fpx_gpu.Stats.t -> unit
  val on_drain : t -> Fpx_gpu.Stats.t -> kernel:string -> unit
  val report : t -> report
end

type instance = Instance : (module S with type t = 'a) * 'a -> instance

let name (Instance ((module T), t)) = T.name t

let should_instrument (Instance ((module T), t)) ~kernel ~invocation =
  T.should_instrument t ~kernel ~invocation

let instrument (Instance ((module T), t)) prog b = T.instrument t prog b
let on_launch_begin (Instance ((module T), t)) pre = T.on_launch_begin t pre

let on_drain (Instance ((module T), t)) stats ~kernel =
  T.on_drain t stats ~kernel

let report (Instance ((module T), t)) = T.report t

(* --- Composition ------------------------------------------------------ *)

let merge_counts reports =
  let count ~fmt ~exce =
    List.fold_left
      (fun acc r ->
        acc
        + List.fold_left
            (fun a (f, e, n) -> if f = fmt && Exce.equal e exce then a + n else a)
            0 r.counts)
      0 reports
  in
  cells_of count

let merge_reports reports =
  {
    counts = merge_counts reports;
    log = List.concat_map (fun r -> r.log) reports;
    degradations = List.concat_map (fun r -> r.degradations) reports;
    extras = List.concat_map (fun r -> r.extras) reports;
  }

module Stack_tool = struct
  type t = instance list

  let name ts = "stack(" ^ String.concat "+" (List.map name ts) ^ ")"

  (* Instrumentation is all-or-nothing per launch (one JIT-ed binary per
     kernel), so the stack instruments whenever any member would. *)
  let should_instrument ts ~kernel ~invocation =
    List.exists (fun i -> should_instrument i ~kernel ~invocation) ts

  let instrument ts prog b =
    List.iter
      (fun i ->
        instrument i prog b;
        (* A member may have installed a prune predicate for its own
           sites; it must not leak into the next member's inserts. *)
        Inject.set_prune b (fun _ -> false))
      ts

  let on_launch_begin ts pre = List.iter (fun i -> on_launch_begin i pre) ts

  let on_drain ts stats ~kernel =
    List.iter (fun i -> on_drain i stats ~kernel) ts

  let report ts = merge_reports (List.map report ts)
end

let stack members = Instance ((module Stack_tool), members)
