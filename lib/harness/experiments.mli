(** The paper's evaluation as one plan.

    Every table and figure is declared as data: its name, the runs it
    needs (program, tool configuration, compilation mode, cost model,
    and whether the repaired variant runs) and a renderer that reads
    results by run. {!report} collects the runs of the artefacts it is
    asked for, runs each distinct one once and renders the artefacts
    from the shared results. *)

val names : string list
(** Every artefact, in EXPERIMENTS.md order: [table1] … [table4],
    [figure4], [figure5], [table5], [figure6], [table6], [table7],
    [machines], [ablation], [summary]. *)

val report : ?jobs:int -> string list -> string
(** The named artefacts' text, concatenated in the order given. Each
    distinct run executes once, spread over [jobs] (default 1) worker
    domains by {!Fpx_sched.Sched.map}; runs are deterministic and
    independent, so the text is byte-identical for any [jobs] and equals
    the artefacts rendered one by one.
    @raise Invalid_argument on a name not in {!names}. *)
