open Fpx_sass
open Fpx_gpu
module Fp32 = Fpx_num.Fp32
module Fp64 = Fpx_num.Fp64
module Kind = Fpx_num.Kind
module Exce = Fpx_tool.Exce

type state =
  | Shared_register
  | Comparison
  | Appearance
  | Propagation
  | Disappearance

let state_to_string = function
  | Shared_register -> "SHARED REGISTER"
  | Comparison -> "COMPARISON"
  | Appearance -> "APPEARANCE"
  | Propagation -> "PROPAGATION"
  | Disappearance -> "DISAPPEARANCE"

let all_states =
  [ Shared_register; Comparison; Appearance; Propagation; Disappearance ]

let table2 =
  [ (Shared_register, "destination register also appears as a source");
    (Comparison, "control-flow opcode with an exceptional operand");
    (Appearance, "destination exceptional, no source exceptional");
    (Propagation, "destination exceptional, some source exceptional");
    (Disappearance, "no destination exception, some source exceptional") ]

type report = {
  state : state;
  kernel : string;
  loc : string;
  sass : string;
  before : Kind.t list;
  after : Kind.t list;
  compile_time : Exce.t option;
}

let kinds_sentence kinds =
  let n = List.length kinds in
  let regs =
    List.mapi
      (fun i k -> Printf.sprintf "Register %d is %s." i (Kind.to_string k))
      kinds
  in
  Printf.sprintf "We have %d registers in total. %s" n (String.concat " " regs)

let render r =
  let site phase =
    Printf.sprintf
      "#GPU-FPX-ANA %s: %s executing the instruction @ %s in [%s] Instruction: %s %s"
      (state_to_string r.state) phase r.loc r.kernel r.sass
      (kinds_sentence (if phase = "Before" then r.before else r.after))
  in
  let main =
    match r.state with
    | Shared_register -> [ site "Before"; site "After" ]
    | Comparison | Appearance | Propagation | Disappearance ->
      [ Printf.sprintf
          "#GPU-FPX-ANA %s: @ %s in [%s] Instruction: %s Before: %s After: %s"
          (state_to_string r.state) r.loc r.kernel r.sass
          (kinds_sentence r.before) (kinds_sentence r.after) ]
  in
  match r.compile_time with
  | None -> main
  | Some e ->
    main
    @ [ Printf.sprintf
          "#GPU-FPX-ANA NOTE: instruction carries a compile-time %s operand"
          (Exce.to_string e) ]

type escape = { store_kernel : string; store_loc : string; kind : Kind.t }

type t = {
  max_per_site : int;
  sampling : Sampling.t;
  track_stores : bool;
  channel : report Channel.t;
  site_counts : (string * int * state, int) Hashtbl.t;
  escape_seen : (string * int * Kind.t, unit) Hashtbl.t;
  mutable reports_rev : report list;
  mutable escapes_rev : escape list;
  obs : Fpx_obs.Sink.active option;
}

let create ?(max_reports_per_site = 2) ?(sampling = Sampling.always)
    ?(track_stores = true) device =
  {
    max_per_site = max_reports_per_site;
    sampling;
    track_stores;
    channel =
      Channel.create ~fault:device.Device.fault ?bw:device.Device.bw
        ~cost:device.Device.cost ();
    site_counts = Hashtbl.create 64;
    escape_seen = Hashtbl.create 64;
    reports_rev = [];
    escapes_rev = [];
    obs = Fpx_obs.Sink.active device.Device.obs;
  }

(* Register-operand capture plan: the register footprint, destination
   first. A 32-bit register of an FP64 op (MUFU.*64H) is a high word; of
   an FP16 op, two packed halves. *)
type reg_width = Single | Pair | Hi_word | Packed_half

let reg_plan (i : Instr.t) u =
  let fmt = Isa.fp_format_of_opcode i.Instr.op in
  List.map
    (fun (n, w) ->
      ( n,
        match (w, fmt) with
        | Isa.W64, _ -> Pair
        | Isa.W32, Some Isa.FP64 -> Hi_word
        | Isa.W32, Some Isa.FP16 -> Packed_half
        | Isa.W32, (Some Isa.FP32 | None) -> Single ))
    (Decode.writes u @ Decode.reads u)

let classify_reg (api : Exec.warp_api) ~lane (n, width) =
  match width with
  | Single -> Fp32.classify (api.Exec.read_reg ~lane n)
  | Pair ->
    Fp64.classify
      (Fp64.of_words ~lo:(api.Exec.read_reg ~lane n)
         ~hi:(api.Exec.read_reg ~lane (n + 1)))
  | Hi_word -> Fp64.classify_hi (api.Exec.read_reg ~lane n)
  | Packed_half ->
    (* report the worse of the two packed halves *)
    let lo, hi = Fpx_num.Fp16.unpack2 (api.Exec.read_reg ~lane n) in
    let klo = Fpx_num.Fp16.classify lo and khi = Fpx_num.Fp16.classify hi in
    if Kind.is_exceptional klo then klo else khi

(* Listing 2: compile-time detection of exceptional immediates. *)
let compile_e_type (i : Instr.t) =
  let of_value v =
    if Float.is_nan v then Some Exce.Nan
    else if Float.is_finite v then None
    else Some Exce.Inf
  in
  Array.fold_left
    (fun acc (o : Operand.t) ->
      match acc with
      | Some _ -> acc
      | None -> (
        match o.Operand.base with
        | Operand.Imm_f64 v -> of_value v
        | Operand.Imm_f32 b -> of_value (Fp32.to_float b)
        | Operand.Generic s -> Option.bind (Operand.generic_value s) of_value
        | Operand.Reg _ | Operand.Pred _ | Operand.Imm_i _ | Operand.Cbank _
        | Operand.Label _ ->
          None))
    None i.Instr.operands

let has_ev kinds = List.exists Kind.is_exceptional kinds

let classify_state (i : Instr.t) u ~before ~after =
  let dest_ev =
    match after with [] -> false | d :: _ -> Kind.is_exceptional d
  in
  let src_ev = match before with [] -> false | _ :: srcs -> has_ev srcs in
  if Decode.shares_reg u then Some Shared_register
  else if Isa.is_control_flow i.Instr.op then
    if has_ev before || has_ev after then Some Comparison else None
  else if dest_ev && src_ev then Some Propagation
  else if dest_ev then Some Appearance
  else if src_ev then Some Disappearance
  else None

(* For pred-destination ops (FSETP/DSETP) every register operand is a
   source; the capture still lists them dest-first per the listings. *)

(* STG escape tracking: classify the stored value before the store
   executes. Value-type information does not exist at the SASS level, so
   (like the real tool would) we only track stores in kernels that
   contain FP arithmetic, and only flag NaN/INF bit patterns. *)
let instrument_store t prog b (i : Instr.t) reg =
  let kernel = prog.Program.mangled in
  let loc = Instr.loc_string i in
  let pc = i.Instr.pc in
  Fpx_tool.Inject.insert_before b ~pc
    ~n_values:(if snd reg = Pair then 2 else 1)
    (fun _ctx api ->
      List.iter
        (fun lane ->
          match classify_reg api ~lane reg with
          | Kind.Nan | Kind.Inf as kind ->
            let key = (kernel, pc, kind) in
            if not (Hashtbl.mem t.escape_seen key) then begin
              Hashtbl.add t.escape_seen key ();
              t.escapes_rev <-
                { store_kernel = kernel; store_loc = loc; kind }
                :: t.escapes_rev
            end
          | Kind.Subnormal | Kind.Zero | Kind.Normal -> ())
        api.Exec.executing_lanes)

let instrument t prog b =
  let dec = Decode.program prog in
  let uop (i : Instr.t) = dec.Decode.entries.(i.Instr.pc).Decode.uop in
  if t.track_stores && Program.fp_instr_count prog > 0 then
    Array.iter
      (fun (i : Instr.t) ->
        let u = uop i in
        match (u, reg_plan i u) with
        | Decode.(U_stg32 _ | U_stg64 _), [ reg ] ->
          instrument_store t prog b i reg
        | _ -> ())
      prog.Program.instrs;
  Array.iter
    (fun (i : Instr.t) ->
      if Isa.is_fp_instrumentable i.Instr.op then begin
        let u = uop i in
        let regs = reg_plan i u in
        let n_regs = List.length regs in
        let cte = compile_e_type i in
        let pending = ref None in
        let capture api lane = List.map (classify_reg api ~lane) regs in
        let choose_lane api =
          let lanes = api.Exec.executing_lanes in
          match
            List.find_opt (fun lane -> has_ev (capture api lane)) lanes
          with
          | Some lane -> Some lane
          | None -> ( match lanes with [] -> None | l :: _ -> Some l)
        in
        Fpx_tool.Inject.insert_before b ~pc:i.Instr.pc ~n_values:n_regs
          (fun _ctx api ->
            match choose_lane api with
            | None -> pending := None
            | Some lane -> pending := Some (lane, capture api lane));
        Fpx_tool.Inject.insert_after b ~pc:i.Instr.pc ~n_values:n_regs
          (fun ctx api ->
            match !pending with
            | None -> ()
            | Some (lane, before) ->
              pending := None;
              let after = capture api lane in
              let interesting =
                has_ev before || has_ev after || Option.is_some cte
              in
              if interesting then
                match classify_state i u ~before ~after with
                | None -> ()
                | Some state ->
                  let key = (prog.Program.name, i.Instr.pc, state) in
                  let seen =
                    Option.value
                      (Hashtbl.find_opt t.site_counts key)
                      ~default:0
                  in
                  if seen < t.max_per_site then begin
                    Hashtbl.replace t.site_counts key (seen + 1);
                    (match t.obs with
                    | None -> ()
                    | Some a ->
                      Fpx_obs.Metrics.incr
                        (Fpx_obs.Metrics.counter a.Fpx_obs.Sink.metrics
                           (Printf.sprintf
                              "fpx_analyzer_reports_total{state=%S}"
                              (state_to_string state)));
                      Fpx_obs.Profile.add_exce a.Fpx_obs.Sink.profile
                        ~kernel:prog.Program.name ~pc:i.Instr.pc
                        ~label:(Instr.sass_string i) ~n:1 ();
                      Fpx_obs.Span.instant a.Fpx_obs.Sink.trace
                        ~tid:api.Exec.warp_index
                        ~name:(state_to_string state) ~cat:"exception"
                        ~ts:
                          (Fpx_obs.Sink.now a
                             ~launch_cycles:
                               (Stats.total_cycles ctx.Exec.stats))
                        ~args:
                          [ ("kernel", Fpx_obs.Span.S prog.Program.mangled);
                            ("loc", Fpx_obs.Span.S (Instr.loc_string i)) ]
                        ());
                    Channel.push t.channel ~stats:ctx.Exec.stats
                      {
                        state;
                        kernel = prog.Program.mangled;
                        loc = Instr.loc_string i;
                        sass = Instr.sass_string i;
                        before;
                        after;
                        compile_time = cte;
                      }
                  end)
      end)
    prog.Program.instrs

let on_drain t stats =
  let rs = Channel.drain t.channel ~stats in
  (match t.obs with
  | None -> ()
  | Some a ->
    Fpx_obs.Span.instant a.Fpx_obs.Sink.trace ~name:"channel_flush"
      ~cat:"channel"
      ~ts:(Fpx_obs.Sink.now a ~launch_cycles:(Stats.total_cycles stats))
      ~args:
        [ ("tool", Fpx_obs.Span.S "analyzer");
          ("records", Fpx_obs.Span.I (List.length rs)) ]
      ());
  t.reports_rev <- List.rev_append rs t.reports_rev

let reports t = List.rev t.reports_rev

let escapes t = List.rev t.escapes_rev

let state_counts t =
  List.map
    (fun s ->
      ( s,
        List.length
          (List.filter (fun r -> r.state = s) t.reports_rev) ))
    all_states

let log_lines t = List.concat_map render (reports t)

module Tool = struct
  type nonrec t = t

  let name _ = "GPU-FPX analyzer"

  let should_instrument t ~kernel ~invocation =
    Sampling.should_instrument t.sampling ~kernel ~invocation

  let instrument = instrument
  let on_launch_begin t _ = Channel.new_launch t.channel
  let on_drain t stats ~kernel:_ = on_drain t stats
end

let tool t = Fpx_tool.Instance ((module Tool), t)
