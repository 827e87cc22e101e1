type warp = {
  regs : int array;
  preds : int array;
  pcs : int array;
  mutable pc : int;
  mutable live : int;
  mutable at : int;
  mutable diverged : bool;
}

type t = {
  name : string;
  memory : Memory.t;
  cost : Cost.t;
  obs : Fpx_obs.Sink.t;
  fault : Fpx_fault.Fault.plan;
  bw : Bandwidth.binding option;
  mutable warps : warp array;
  mutable shared : Bytes.t;
}

let create ?(name = "SM-SIM (RTX 2070 SUPER model)") ?(cost = Cost.default)
    ?(mem_bytes = 64 * 1024 * 1024) ?(obs = Fpx_obs.Sink.null)
    ?(fault = Fpx_fault.Fault.none) ?bw () =
  {
    name;
    memory = Memory.create ~size_bytes:mem_bytes;
    cost;
    obs;
    fault;
    bw;
    warps = [||];
    shared = Bytes.empty;
  }
