(** Host-side location interning.

    At JIT time every instrumented instruction gets a 16-bit location
    index (E_loc); the host keeps the reverse mapping to kernel name,
    pc and source location used in reports. Indices wrap at
    2^16, matching the paper's table-size tradeoff. *)

type entry = { kernel : string; pc : int; loc : string }

type t

val create : unit -> t

val intern : t -> entry -> int
(** Stable per (kernel, pc): re-interning returns the same index. *)

val entry : t -> int -> entry
(** @raise Not_found for an index never assigned. *)

val size : t -> int

val entries : t -> entry list
(** All interned entries in index (first-seen) order. *)

val copy : t -> t

val equal : t -> t -> bool
(** The same entries at the same indices, and the same next index. *)
