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

(* What crosses the channel: the raw destination value plus enough
   context for host-side classification. *)
type record = {
  r_kernel : string;
  r_pc : int;
  r_loc : string;
  r_fmt : Isa.fp_format;
  r_rcp : bool;  (** destination of a MUFU reciprocal-class op *)
  r_lo : int32;
  r_hi : int32;  (** meaningful only for FP64 *)
}

type t = {
  channel : record Channel.t;
  seen : (string * int * Isa.fp_format * Exce.t, unit) Hashtbl.t;
  mutable findings_rev : finding list;
  mutable received : int;
}

let create (device : Device.t) =
  {
    channel =
      Channel.create ~fault:device.Device.fault ?bw:device.Device.bw
        ~cost:device.Device.cost ();
    seen = Hashtbl.create 64;
    findings_rev = [];
    received = 0;
  }

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
        let r_kernel = prog.Program.mangled
        and r_pc = i.Instr.pc
        and r_loc = Instr.loc_string i in
        let r_fmt = Site.fmt p and r_rcp = Site.is_div0 p in
        let lo, hi =
          match p with
          | Site.Check_64 (lo, hi) | Site.Div0_64 (lo, hi) -> (lo, Some hi)
          | Site.Check_32 d | Site.Div0_32 d | Site.Check_16 d -> (d, None)
        in
        Fpx_tool.Inject.insert_after b ~pc:i.Instr.pc
          ~n_values:(Site.n_values p) (fun ctx api ->
            List.iter
              (fun lane ->
                let record =
                  {
                    r_kernel;
                    r_pc;
                    r_loc;
                    r_fmt;
                    r_rcp;
                    r_lo = api.Exec.read_reg ~lane lo;
                    r_hi =
                      (match hi with
                      | Some hi -> api.Exec.read_reg ~lane hi
                      | None -> 0l);
                  }
                in
                Channel.push t.channel ~stats:ctx.Exec.stats record)
              api.Exec.executing_lanes))
    prog.Program.instrs

let on_launch_end t stats =
  let records = Channel.drain t.channel ~stats in
  t.received <- t.received + List.length records;
  List.iter
    (fun r ->
      (* host-side classification of the received value *)
      match Exce.classify ~fmt:r.r_fmt ~div0:r.r_rcp r.r_lo r.r_hi with
      | None -> ()
      | Some exce ->
        let key = (r.r_kernel, r.r_pc, r.r_fmt, exce) in
        if not (Hashtbl.mem t.seen key) then begin
          Hashtbl.add t.seen key ();
          t.findings_rev <-
            {
              kernel = r.r_kernel;
              pc = r.r_pc;
              loc = r.r_loc;
              fmt = r.r_fmt;
              exce;
            }
            :: t.findings_rev
        end)
    records

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
