(** gpu-rodinia: 20 programs (paper Table 3), including the two
    exception carriers — cfd (13 subnormal flux sites) and myocyte (the
    paper's flagship stiff-ODE kernel). *)

val all : Workload.t list
