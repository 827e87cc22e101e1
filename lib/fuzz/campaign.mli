(** Campaign orchestration: N generated cases through the differential
    oracle, fanned out over {!Fpx_sched} worker domains.

    Each case is a pure function of [(seed, id)] and each worker checks
    disjoint cases on its own fresh devices, so {!summary_json} is
    byte-identical for any [jobs] value — the scheduler-nondeterminism
    acceptance check of the fuzz subsystem itself. *)

type config = {
  seed : int;
  runs : int;  (** Case ids 0..runs-1. *)
  jobs : int;  (** Worker domains for the case sweep. *)
  minimize : bool;  (** Shrink each failing case before saving. *)
  corpus : string option;  (** Artifact directory (parents created). *)
  fault : Fpx_fault.Fault.spec option;
      (** Thread a deterministic fault spec into every tool run. *)
  defect : Oracle.clazz option;
      (** Deliberate defect injection, for drilling the
          minimize-and-save pipeline. *)
}

val default : seed:int -> runs:int -> config
(** jobs 1, minimize on, no corpus, no fault, no defect. *)

type found = {
  id : int;
  clazz : Oracle.clazz;  (** Primary (first-reported) class. *)
  details : (Oracle.clazz * string) list;  (** Every discrepancy. *)
  orig_instrs : int;
  min_instrs : int;  (** = [orig_instrs] when minimization is off. *)
  artifact : string option;  (** Corpus path of the minimized repro. *)
}

type summary = {
  seed : int;
  runs : int;
  klang_cases : int;  (** Cases that went through the klang generator. *)
  found : found list;  (** In case-id order. *)
}

val run : config -> summary
(** The case sweep runs on [cfg.jobs] domains; the summary is
    byte-identical for any job count. *)

val summary_json : summary -> string
(** Deterministic (no timing, no job count); trailing newline. *)

val record_metrics : summary -> Fpx_obs.Metrics.t -> unit
(** Export campaign counters ([fuzz_cases_total],
    [fuzz_klang_cases_total], [fuzz_discrepancies_total],
    [fuzz_minimized_instrs_removed] and one [fuzz_found_<class>]
    counter per reported class) into a metrics registry. *)
