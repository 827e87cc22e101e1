(** polybenchGpu: 20 linear-algebra/stencil programs; GRAMSCHM and LU
    ship zero-column/zero-pivot inputs (§5.1). *)

val all : Workload.t list
