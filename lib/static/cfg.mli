(** Control-flow graph over a kernel's {!Fpx_sass.Decode} micro-ops.

    Basic blocks are maximal straight-line pc ranges: leaders are pc 0,
    every branch target and every instruction following a branch or
    EXIT. Predicated non-branch instructions do not end a block
    (predication is data flow, not control flow). A guarded BRA has two
    successors (target and fall-through); an unguarded BRA only its
    target; EXIT has none. A PT guard is a constant: [@PT] never falls
    through, [@!PT] is never taken.

    A poisoned branch ([U_bra_poison]: a BRA with no target, or a
    register target) traps when it is taken, so it ends its block with
    no taken edge; it falls through only when its guard may be false. *)

type block = {
  id : int;  (** Index into {!blocks}; blocks are in pc order. *)
  first : int;  (** First pc of the block. *)
  last : int;  (** Last pc of the block (inclusive). *)
  succs : int list;  (** Successor block ids, taken-edge first. *)
}

type t = {
  dec : Fpx_sass.Decode.t;
  blocks : block array;
  block_of_pc : int array;  (** Block id containing each pc. *)
}

val build : Fpx_sass.Decode.t -> t

val succs_when : t -> block -> may_true:bool -> may_false:bool -> int list
(** The block's successors when its terminating branch's guard may be
    true / may be false: {!block.succs} reads PT guards as constants and
    any other guard as both; {!Absint} passes abstract guard values. *)

val entry : t -> block
(** The block containing pc 0. *)

val reverse_postorder : t -> int list
(** Block ids in reverse postorder of a DFS from the entry; blocks
    unreachable from the entry follow, in pc order. Public as the visit
    order a forward dataflow pass over the graph wants. *)

val to_dot : t -> string
(** Graphviz rendering: one record-shaped node per block listing its
    instructions, taken edges labelled. *)
