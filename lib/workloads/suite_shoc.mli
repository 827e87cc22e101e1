(** SHOC: 13 benchmarks; S3D carries the 129-subnormal / 7-INF
    chemistry signature of Table 4. *)

val all : Workload.t list
