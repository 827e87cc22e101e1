(** Shared kernel builders for the clean (non-exception) catalog
    programs: the common algorithm families the benchmark suites draw
    from — elementwise streams, BLAS-like loops, stencils, reductions,
    physics kernels and integer-only codes (the low-FP outliers of
    Figure 5). Exception-bearing programs get bespoke kernels in their
    suite modules. *)

open Fpx_klang.Ast

(** {1 Kernel builders}

    All take the kernel name first; [ty] selects FP32/FP64 where it
    matters. Parameter conventions are documented per builder. *)

val vec_binop : string -> ty -> binop -> kernel
(** (out, a, b, n): out\[i\] = a\[i\] op b\[i\]. *)

val saxpy : string -> ty -> kernel
(** (y, x, alpha, n): y\[i\] += alpha·x\[i\]. *)

val triad : string -> ty -> kernel
(** (out, a, b, s, n): out\[i\] = a\[i\] + s·b\[i\]. *)

val copy : string -> ty -> kernel
(** (out, a, n). *)

val reduce_partial : string -> ty -> kernel
(** (partial, a, n): grid-stride partial sums, one per thread. *)

val dot_partial : string -> ty -> kernel
(** (partial, a, b, n). *)

val scan_naive : string -> kernel
(** (out, a, n): inclusive scan, O(n) loop per thread (f32). *)

val gemm : string -> ty -> int -> kernel
(** (c, a, b): dense n×n matrix multiply, one thread per element. *)

val gemv : string -> ty -> int -> kernel
(** (y, a, x): y = A·x for an n×n matrix. *)

val stencil3 : string -> ty -> kernel
(** (out, a, n): 1-D 3-point stencil with boundary guard. *)

val jacobi2d : string -> int -> kernel
(** (out, a): n×n 5-point Jacobi sweep (f32). *)

val conv2d3x3 : string -> int -> kernel
(** (out, img, w): n×n image, 3×3 filter (f32). *)

val transpose : string -> int -> kernel
(** (out, a): n×n transpose — pure data movement. *)

val nbody_force : string -> int -> kernel
(** (fx, px, py, pz, n_bodies): softened gravity accumulation with
    rsqrt. *)

val lj_force : string -> int -> kernel
(** (f, pos, n): Lennard-Jones force over neighbours. *)

val coulomb_grid : string -> int -> kernel
(** (pot, qx, qy, qz, q, n_atoms): potential of point charges on a
    line of grid points. *)

val black_scholes : string -> kernel
(** (call, put, s, x, t, r, v, n): the classic closed-form pricer —
    log/exp/sqrt/div heavy. *)

val monte_carlo_path : string -> int -> kernel
(** (out, z, drift, vol, n): geometric-brownian path products
    (steps-long loop of exp/fma). *)

val heat_stencil : string -> int -> kernel
(** (out, t_in, power, n): hotspot-style thermal update. *)

val laplace3d : string -> int -> kernel
(** (out, a): n³ 7-point Laplace sweep (f32). *)

val spmv_csr : string -> kernel
(** (y, row_ptr, col_idx, vals, x, n_rows): CSR sparse
    matrix-vector. *)

val integer_hash : string -> int -> kernel
(** (out, a, n): rounds of integer mixing — {e zero} FP instructions
    (a Figure 5 outlier profile). *)

val bitonic_step : string -> kernel
(** (data, j, k, n): one compare-exchange pass (integer keys). *)

val bfs_level : string -> kernel
(** (levels, row_ptr, cols, frontier_level, n): one BFS relaxation
    sweep (integer). *)

val needleman_row : string -> kernel
(** (score, a, b, n): anti-diagonal DP relaxation (integer). *)

(** {1 Runner helpers} *)

val ceil_div : int -> int -> int

val run_out_a_b :
  ?launches:int ->
  n:int ->
  seed:int ->
  kernel ->
  Workload.ctx ->
  unit
(** Standard (out, a, b, n) driver: random inputs, one grid of
    64-thread blocks covering [n]. Handles F32/F64 by the kernel's
    first pointer parameter. *)

val run_out_a :
  ?launches:int ->
  n:int ->
  seed:int ->
  kernel ->
  Workload.ctx ->
  unit
