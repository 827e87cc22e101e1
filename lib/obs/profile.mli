(** Per-instruction profile accumulator: dynamic execution counts and
    exception occurrence counts keyed by (kernel, pc), with the SASS
    text as a display label. Feeds the [fpx_run profile] hot-spot
    table. *)

type site = {
  kernel : string;
  pc : int;
  mutable label : string;  (** SASS text of the instruction. *)
  mutable dyn : int;  (** Dynamic warp-instruction executions. *)
  mutable exces : int;  (** Exception occurrences observed here. *)
}

type t

val create : unit -> t

val add_dyn : t -> kernel:string -> pc:int -> label:string -> n:int -> unit
val add_exce :
  t -> kernel:string -> pc:int -> ?label:string -> n:int -> unit -> unit

val cardinal : t -> int
val sites : t -> site list
(** All sites, ordered by (kernel, pc). *)

val kernels : t -> string list

val top_by_dyn : ?n:int -> t -> site list
(** Sites sorted by descending dynamic count (default top 10). Public,
    with {!top_by_exces}, as the query form of the table {!render}
    prints; only tests pass [n]. *)

val top_by_exces : ?n:int -> t -> site list
(** Sites with at least one exception, sorted descending (default top
    10; only tests pass [n]). *)

val render : ?top:int -> t -> string
(** The per-kernel hot-spot table: top-N instructions by dynamic count
    and by exceptions. *)
