(** Combinators for writing kernels concisely in OCaml.

    Operators are suffixed with [:] to avoid clashing with Stdlib
    arithmetic: [x +: y], [x /: y], ... Types are inferred from the
    leaves; mixed-format arithmetic requires explicit {!cvt}. *)

open Ast

(** {1 Leaves} *)

(** Variable / scalar parameter reference. *)
val v : string -> expr

val f32 : float -> expr
val f64 : float -> expr
val i32 : int -> expr

(** Global thread index: ctaid*ntid + tid. *)
val tid : expr

val tid_x : expr
val ntid_x : expr
val ctaid_x : expr
val nctaid_x : expr

(** {1 Arithmetic} *)

val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( /: ) : expr -> expr -> expr
val fma : expr -> expr -> expr -> expr
val neg : expr -> expr
val abs : expr -> expr
val sqrt_ : expr -> expr
val rsqrt : expr -> expr
val rcp : expr -> expr
val exp_ : expr -> expr
val log_ : expr -> expr
val sin_ : expr -> expr
val cos_ : expr -> expr
val min_ : expr -> expr -> expr
val max_ : expr -> expr -> expr
val cvt : ty -> expr -> expr

(** {1 Conditions and selection} *)

val ( <: ) : expr -> expr -> expr
val ( <=: ) : expr -> expr -> expr
val ( >: ) : expr -> expr -> expr
val ( >=: ) : expr -> expr -> expr
val ( ==: ) : expr -> expr -> expr
val ( <>: ) : expr -> expr -> expr
val not_ : expr -> expr
(** Logical negation, public with the other boolean combinators. *)

val ( &&: ) : expr -> expr -> expr
val ( ||: ) : expr -> expr -> expr
val select : expr -> expr -> expr -> expr

(** {1 Memory} *)

val load : string -> expr -> expr
val store : string -> expr -> expr -> stmt

val sload : string -> expr -> expr
(** Shared-memory array read (declare arrays with [kernel ~shmem]). *)

val sstore : string -> expr -> expr -> stmt
val barrier : stmt
val atomic_add : string -> expr -> expr -> stmt
(** [atomic_add ptr idx value]: atomicAdd on a global pointer param. *)

(** {1 Statements} *)

val let_ : string -> ty -> expr -> stmt
val set : string -> expr -> stmt
val if_ : expr -> stmt list -> stmt list -> stmt
val while_ : expr -> stmt list -> stmt
val for_ : string -> expr -> expr -> stmt list -> stmt
val at_line : int -> stmt -> stmt

(** {1 Kernels} *)

val kernel :
  ?file:string ->
  ?shmem:(string * ty * int) list ->
  string ->
  (string * param_ty) list ->
  stmt list ->
  kernel
(** Default [file] is ["<name>.cu"]; pass [~file:""] for a
    closed-source kernel (reports show [/unknown_path]). *)

val ptr : ty -> param_ty
val scalar : ty -> param_ty
