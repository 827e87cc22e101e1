module Exce = Exce
module Inject = Inject

module type S = sig
  type t

  val name : t -> string
  val should_instrument : t -> kernel:string -> invocation:int -> bool
  val instrument : t -> Fpx_sass.Program.t -> Inject.t -> unit
  val on_launch_begin : t -> Fpx_gpu.Stats.t -> unit
  val on_drain : t -> Fpx_gpu.Stats.t -> kernel:string -> unit
end

type instance = Instance : (module S with type t = 'a) * 'a -> instance

let name (Instance ((module T), t)) = T.name t

let should_instrument (Instance ((module T), t)) ~kernel ~invocation =
  T.should_instrument t ~kernel ~invocation

let instrument (Instance ((module T), t)) prog b = T.instrument t prog b
let on_launch_begin (Instance ((module T), t)) pre = T.on_launch_begin t pre

let on_drain (Instance ((module T), t)) stats ~kernel =
  T.on_drain t stats ~kernel

(* --- Composition ------------------------------------------------------ *)

module Stack_tool = struct
  type t = instance list

  let name ts = "stack(" ^ String.concat "+" (List.map name ts) ^ ")"

  (* Instrumentation is all-or-nothing per launch (one JIT-ed binary per
     kernel), so the stack instruments whenever any member would. *)
  let should_instrument ts ~kernel ~invocation =
    List.exists (fun i -> should_instrument i ~kernel ~invocation) ts

  let instrument ts prog b = List.iter (fun i -> instrument i prog b) ts

  let on_launch_begin ts pre = List.iter (fun i -> on_launch_begin i pre) ts

  let on_drain ts stats ~kernel =
    List.iter (fun i -> on_drain i stats ~kernel) ts
end

let stack members = Instance ((module Stack_tool), members)
