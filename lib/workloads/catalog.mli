(** The full evaluated-program catalog (paper Table 3: 151 programs) and
    the extra case-study programs. *)

val evaluated : Workload.t list
(** The 151 programs of the evaluation, grouped by suite in Table 3
    order. *)

val find : string -> Workload.t
(** Look up any program by name: the 151, or §5.2's GMRES/cuSparse
    case study (with its boosted repair), which is not part of them.
    @raise Not_found if unknown. *)

val by_suite : Workload.suite -> Workload.t list
val names : unit -> string list
