open Fpx_sass
open Fpx_gpu
module Exce = Fpx_tool.Exce

type finding = {
  kernel : string;
  pc : int;
  loc : string;
  fmt : Isa.fp_format;
  exce : Exce.t;
}

(* What crosses the channel is a packet: a site id plus the raw
   destination words (the high word only for FP64). The site array,
   built at instrument time, holds everything else the host needs to
   classify the value. [cls] numbers the distinct (kernel, pc, format)
   keys the host dedups findings on; [seen] holds one bit per exception
   kind for each. *)
type site = {
  kernel : string;
  pc : int;
  loc : string;
  fmt : Isa.fp_format;
  div0 : bool;  (** destination of a MUFU reciprocal-class op *)
  cls : int;
}

type t = {
  channel : Channel.t;
  mutable sites : site array;
  mutable n_sites : int;
  classes : (string * int * Isa.fp_format, int) Hashtbl.t;
  mutable seen : Bytes.t;  (** per class: a bitmask of exception kinds *)
  mutable findings_rev : finding list;
  mutable received : int;
}

let create (device : Device.t) =
  {
    channel =
      Channel.create ~fault:device.Device.fault ?bw:device.Device.bw
        ~cost:device.Device.cost ();
    sites = [||];
    n_sites = 0;
    classes = Hashtbl.create 64;
    seen = Bytes.empty;
    findings_rev = [];
    received = 0;
  }

let add_site t ~kernel ~pc ~loc ~fmt ~div0 =
  let cls =
    match Hashtbl.find_opt t.classes (kernel, pc, fmt) with
    | Some c -> c
    | None ->
      let c = Hashtbl.length t.classes in
      Hashtbl.add t.classes (kernel, pc, fmt) c;
      if c >= Bytes.length t.seen then
        t.seen <- Bytes.extend t.seen 0 (max 64 (Bytes.length t.seen));
      Bytes.set_uint8 t.seen c 0;
      c
  in
  let s = { kernel; pc; loc; fmt; div0; cls } in
  if t.n_sites = Array.length t.sites then
    t.sites <- Array.append t.sites (Array.make (max 64 t.n_sites) s);
  t.sites.(t.n_sites) <- s;
  t.n_sites <- t.n_sites + 1;
  t.n_sites - 1

(* BinFPE's instrumentation set: FP arithmetic only. FP16 is not
   supported (BinFPE predates the extension) and the control-flow
   opcodes of Table 1's right column are missed, as the GPU-FPX paper
   reports. *)
let covers op = Isa.is_fp32_compute op || Isa.is_fp64_compute op

let plan (i : Instr.t) = if covers i.Instr.op then Site.plan i else None

let instrument t prog b =
  Array.iter
    (fun (i : Instr.t) ->
      match plan i with
      | None -> ()
      | Some p ->
        let id =
          add_site t ~kernel:prog.Program.mangled ~pc:i.Instr.pc
            ~loc:(Instr.loc_string i) ~fmt:(Site.fmt p) ~div0:(Site.is_div0 p)
        in
        (* a one-word value ships RZ, which reads 0, as its high word *)
        let lo, hi =
          match p with
          | Site.Check_64 (lo, hi) | Site.Div0_64 (lo, hi) -> (lo, hi)
          | Site.Check_32 d | Site.Div0_32 d | Site.Check_16 d ->
            (d, Operand.rz)
        in
        Fpx_tool.Inject.insert_after b ~pc:i.Instr.pc
          ~n_values:(Site.n_values p) (fun stats api ->
            Channel.push_lanes t.channel ~stats api id ~lo ~hi))
    prog.Program.instrs

let kind_bit = function
  | Exce.Nan -> 1
  | Exce.Inf -> 2
  | Exce.Sub -> 4
  | Exce.Div0 -> 8

(* Host-side classification of one received value; a finding is new
   the first time its (kernel, pc, format, kind) shows up. *)
let receive t id lo hi =
  let s = t.sites.(id) in
  match Exce.classify ~fmt:s.fmt ~div0:s.div0 lo hi with
  | None -> ()
  | Some exce ->
    let mask = Bytes.get_uint8 t.seen s.cls and bit = kind_bit exce in
    if mask land bit = 0 then begin
      Bytes.set_uint8 t.seen s.cls (mask lor bit);
      t.findings_rev <-
        { kernel = s.kernel; pc = s.pc; loc = s.loc; fmt = s.fmt; exce }
        :: t.findings_rev
    end

let on_launch_end t stats =
  t.received <- t.received + Channel.drain t.channel ~stats (receive t)

let findings t = List.rev t.findings_rev

let records_received t = t.received

module Tool = struct
  type nonrec t = t

  let name _ = "BinFPE"
  let should_instrument _ ~kernel:_ ~invocation:_ = true
  let instrument = instrument
  let on_launch_begin t _ = Channel.new_launch t.channel
  let on_drain t stats ~kernel:_ = on_launch_end t stats
end

let tool t = Fpx_tool.Instance ((module Tool), t)
