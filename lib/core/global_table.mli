(** The global table GT (paper §3.1.2): a device-resident table with one
    slot per possible exception record, giving O(1) dedup of
    ⟨E_exce, E_loc, E_fp⟩ triplets so a record crosses the GPU→CPU
    channel at most once. *)

type t

val create : unit -> t
(** All {!Fpx_tool.Exce.table_slots} slots empty. *)

val test_and_set : t -> int -> bool
(** [true] iff the slot was previously empty (caller should push the
    record to the host). *)

val mem : t -> int -> bool

val reset : t -> int -> unit
(** Empty one slot. Used when the record claimed by a
    {!test_and_set} failed to reach the host (an injected channel
    drop): undoing the dedup mark lets a recurrence push it again. *)

val cardinal : t -> int
val clear : t -> unit
