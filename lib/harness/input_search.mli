(** Exception-triggering input search.

    The paper's future-work section highlights pairing GPU-FPX with an
    input-expansion loop (Laguna & Gopalakrishnan, SC '22, use Bayesian
    optimisation over a GPU function's inputs, observing only outputs;
    the paper argues the detector should be the observer instead, since
    exceptions often never reach the output). This module implements
    that loop: a derivative-free maximiser over a scalar input box whose
    objective is the number of unique exception records the detector
    finds — "looking inside the kernel", as §6 puts it.

    The optimiser is deterministic: a seeded quasi-random sweep followed
    by coordinate-wise golden-section-style refinement around the
    incumbent. It is a stand-in for the BO loop with the same interface
    shape (sample → observe detector count → refine). *)

type result = {
  best_input : float array;
  best_count : int;  (** unique exception records at [best_input] *)
  evaluations : int;
  trace : (float array * int) list;
      (** every probe, in order — the BO "acquisition history" *)
}

val search :
  ?iters:int ->
  lo:float array ->
  hi:float array ->
  (float array -> int) ->
  result
(** [search ~lo ~hi objective] maximises [objective] over the box
    [lo..hi] with ~[iters] evaluations (default 60), from one fixed
    quasi-random seed.
    @raise Invalid_argument if [lo] and [hi] differ in length. *)

val count_exceptions :
  Fpx_klang.Ast.kernel ->
  params_of:(float array -> Fpx_gpu.Device.t -> Fpx_gpu.Param.t list) ->
  grid:int ->
  block:int ->
  float array ->
  int
(** Objective builder: one {!Runner.run} per call under the default
    detector — compile [kernel] (precise mode) on the run's fresh device, launch it with
    [params_of input device], and return the detector's unique-record
    count. A launch that traps or hangs counts the records drained before
    the abort. *)
