(** The architectural bit-flip campaign engine.

    Where {!Fpx_fuzz.Campaign} searches for {e tool} discrepancies over
    generated programs, this campaign measures {e application}
    vulnerability: it injects single architectural faults — a register
    bit, a shared-memory bit, or an instruction-encoding bit — into
    golden runs of catalog programs and classifies what each flip did to
    the program, and whether the GPU-FPX detector noticed.

    The plan is pure in [(seed, total, programs)]: injection [id] is
    sampled from its own PRNG stream against the golden run's dynamic
    profile (live register count, shared-memory footprint, dynamic
    instruction count, kernel lengths), so the same config enumerates
    the same injections at any [--jobs] and across any number of
    kill/resume cycles. Results append to a content-addressed JSONL
    store ({!Store}); the summary is rebuilt from parsed records sorted
    by id, making it byte-identical however the campaign was
    scheduled. *)

type outcome =
  | Masked  (** Output digest matched the golden run. *)
  | Sdc
      (** Silent data corruption: output diverged and the detector's log
          was indistinguishable from golden. *)
  | Detected
      (** Output diverged AND the detector's exception log diverged —
          the flip surfaced as an FP exception GPU-FPX reported. *)
  | Hang  (** Watchdog budget exhausted (or launch watchdog abort). *)
  | Crash  (** Simulator trap: bad address, malformed operand, ... *)
  | Decode_fail
      (** An instruction-encoding flip produced an undecodable
          instruction (renderer/parser round-trip failed). *)

val outcome_to_string : outcome -> string

type config = {
  seed : int;
  total : int;  (** Injections in the plan (ids [0 .. total-1]). *)
  jobs : int;
  programs : string list;  (** Catalog names; golden-run targets. *)
  store : string option;  (** Store root; [None] = in-memory only. *)
  resume : bool;  (** Continue from the store instead of resetting it. *)
  minimize : bool;  (** Shrink interesting instruction-flip repros. *)
  corpus : string option;  (** Where minimized repros land. *)
  halt_after : int option;
      (** Stop after this many {e new} injections — the deterministic
          mid-campaign kill used by the resume tests and CI. *)
  budget_factor : int;
      (** Per-injection watchdog: [factor * golden_dyn_instrs + 50k]
          warp-instructions before the run is declared hung. *)
}

val default_programs : string list
(** GEMM, nbody, GRAMSCHM, hotspot, Triad — the catalog subset small
    enough for thousand-injection campaigns. *)

val config :
  ?jobs:int ->
  ?programs:string list ->
  ?store:string ->
  ?resume:bool ->
  ?minimize:bool ->
  ?corpus:string ->
  ?halt_after:int ->
  ?budget_factor:int ->
  seed:int ->
  total:int ->
  unit ->
  config

val key : config -> string
(** The campaign's content address (see {!Store.key_of}). *)

val store_path : config -> string option
(** The campaign's JSONL path, when a store root is configured. *)

type result = {
  id : int;
  program : string;
  site : string;  (** Fault-site name: [reg-bit-flip] etc. *)
  target : string;  (** Human-readable injection target. *)
  outcome : outcome;
  detected : bool;
      (** Detector log diverged from golden (independent of outcome:
          a [Masked] flip can still have been flagged). *)
  detail : string;  (** Trap/abort message for the failure outcomes. *)
}

val result_to_line : result -> string
(** One JSONL store line. Public with {!result_of_line} as the store's
    line codec, so a store can be read and written outside a run. *)

val result_of_line : string -> result option
(** Parse a store line; [None] on torn or foreign lines.
    [result_of_line (result_to_line r) = Some r] for store-canonical
    results (run results are canonicalized through this round-trip
    before they enter a summary, so resumed and straight-through
    campaigns agree byte-for-byte). *)

type summary = {
  cfg : config;
  completed : int;
  results : result list;  (** Sorted by id. *)
  artifacts : (int * string) list;
      (** Minimized repro paths written by {e this} process (resumed
          records don't re-minimize); excluded from {!summary_json}. *)
  halted : bool;  (** [true] when [halt_after] stopped the run early. *)
  launches_replayed : int;
      (** Golden launches {e this} process replayed from the golden
          run's launch ledger instead of executing them (see
          {!Fpx_harness.Runner.run}); excluded from {!summary_json}. *)
  reconverged : int;
      (** Injections {e this} process stopped at the end of their flip's
          launch, back on the golden state, and classified [Masked]
          undetected; excluded from {!summary_json}. *)
}

val run : config -> summary
(** Execute (or resume) the campaign: golden-profile each program (over
    [cfg.jobs] domains, recording each golden run's launch ledger), fan
    the pending injections out over {!Fpx_sched.Sched.map}, classify
    each against golden, and append every batch to the store before
    starting the next. Results are byte-identical for any [cfg.jobs].
    @raise Failure when a program's golden run itself fails. *)

val rerun : config -> id:int -> result
(** Re-execute a single injection from the plan (no store access).
    @raise Invalid_argument when [id] is outside [0 .. total-1]. *)

val load : config -> summary
(** Rebuild a summary from the store alone — the [status]/[report]
    path; no injections run. *)

val by_outcome : summary -> (outcome * int) list

val catch_rate : summary -> float option
(** [Detected / (Detected + Sdc)] — the fraction of output-corrupting
    flips the detector flagged; [None] when no flip corrupted output. *)

val describe : result -> string
(** One console line per injection result. *)

val summary_json : summary -> string
(** Deterministic report: config echo, outcome/site/program cross-tabs,
    SDC-vs-detected counts and catch rate. Independent of [jobs],
    [halt_after] and artifact paths. *)

val record_metrics : summary -> Fpx_obs.Metrics.t -> unit
(** Export campaign counters into a metrics registry, among them
    [campaign_launches_replayed_total] and
    [campaign_reconverged_total]. *)
