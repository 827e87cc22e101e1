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
  memory : Memory.t;
  cost : Cost.t;
  obs : Fpx_obs.Sink.t;
  fault : Fpx_fault.Fault.plan;
  bw : Bandwidth.binding option;
  mutable warps : warp array;
  mutable shared : Bytes.t;
}

let create ?(cost = Cost.default) ?(obs = Fpx_obs.Sink.null)
    ?(fault = Fpx_fault.Fault.none) ?bw () =
  {
    memory = Memory.create ~size_bytes:(64 * 1024 * 1024);
    cost;
    obs;
    fault;
    bw;
    warps = [||];
    shared = Bytes.empty;
  }
