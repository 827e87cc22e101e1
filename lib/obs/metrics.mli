(** Metrics registry: named counters, gauges and fixed-bucket
    histograms.

    Registration returns a handle; the hot path mutates the handle
    directly (no name lookup, no allocation — an O(1) field update).
    Registration is idempotent: asking for an existing name returns the
    existing handle, so layers can resolve handles lazily without
    coordinating.

    Names follow the Prometheus convention and may embed a label set
    verbatim, e.g. [fpx_exceptions_total{format="FP32",kind="NaN"}];
    the renderers pass such names through unchanged. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> ?help:string -> string -> counter
(** Find-or-create. @raise Invalid_argument if the name is already
    registered as a different metric kind. *)

val gauge : t -> ?help:string -> string -> gauge

val histogram : t -> ?help:string -> buckets:float list -> string -> histogram
(** [buckets] are ascending upper bounds; an implicit [+Inf] bucket is
    appended. *)

val incr : counter -> unit
val add : counter -> int -> unit

val add_named : t -> ?help:string -> string -> int -> unit
(** Find-or-create a counter and add to it in one step — for cold paths
    (end-of-run fault-counter export) where pre-resolving the handle
    buys nothing. *)

val value : counter -> int

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** O(number of buckets); buckets are fixed at registration. *)

val cardinal : t -> int
(** Number of registered metrics. *)

val counter_value : t -> string -> int option
(** Read a counter by name (reporting/tests; not the hot path). *)

val gauge_read : t -> string -> float option
(** Read a gauge by name, like {!counter_value}. *)

val merge : t -> t -> t
(** [merge a b] is a fresh registry combining both: counters sum,
    gauges take the last-merged value ([b] wins where both define one),
    histograms sum bucket-wise. Neither input is mutated.
    @raise Invalid_argument if a name is registered as different kinds,
    or a histogram appears in both with different buckets. *)

val to_json : t -> string
(** One JSON object:
    [{"counters":{..},"gauges":{..},"histograms":{..}}], metrics sorted
    by name within each section — output depends only on registry
    contents, not registration order. *)

val to_prometheus_text : t -> string
(** Prometheus text exposition format ([# HELP]/[# TYPE] comments, one
    sample per line; histograms as [_bucket]/[_sum]/[_count]). Families
    are sorted by name and stay contiguous under their headers, so the
    output is deterministic regardless of registration order. *)
