open Fpx_gpu

type t = {
  cost : Cost.t;
  before : Exec.injection list array;
  after : Exec.injection list array;
  mutable sites : int;
}

let create (device : Device.t) prog =
  let n = Fpx_sass.Program.length prog in
  {
    cost = device.Device.cost;
    before = Array.make n [];
    after = Array.make n [];
    sites = 0;
  }

let sites t = t.sites

let injection t ~n_values fn =
  {
    Exec.fixed_cost =
      t.cost.Cost.callback_overhead + (n_values * t.cost.Cost.per_value_read);
    fn;
  }

let check_pc pc arr =
  if pc < 0 || pc >= Array.length arr then
    invalid_arg (Printf.sprintf "Inject: pc %d out of range" pc)

let insert_before t ~pc ~n_values fn =
  check_pc pc t.before;
  t.before.(pc) <- t.before.(pc) @ [ injection t ~n_values fn ];
  t.sites <- t.sites + 1

let insert_after t ~pc ~n_values fn =
  check_pc pc t.after;
  t.after.(pc) <- t.after.(pc) @ [ injection t ~n_values fn ];
  t.sites <- t.sites + 1

let build t = { Exec.before = Array.copy t.before; after = Array.copy t.after }
