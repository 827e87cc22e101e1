(** Plain-text rendering of tables, histograms and scatter plots for the
    experiment reports. *)

val table : header:string list -> string list list -> string
(** Column-aligned table with a rule under the header. *)

val histogram :
  title:string -> labels:string list -> (string * int list) list -> string
(** Grouped bar chart: one row group per label, one bar per series
    [(series name, per-label counts)]. *)

val scatter :
  title:string ->
  xlabel:string ->
  ylabel:string ->
  (float * float) list ->
  string
(** A 56 × 24 log₂-log₂ scatter with the y=x diagonal marked ['/'] and points
    ['o'] (['#'] where a point sits on the diagonal). *)

val section : string -> string
(** A banner line for experiment output. *)
