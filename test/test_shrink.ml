(* The fuzz subsystem's own guarantees: seeded generation is
   deterministic and round-trips through the artifact format, the
   delta-debugging shrinker strictly decreases its termination measure
   on every candidate, and minimization preserves the discrepancy class
   it was asked to keep — drilled end-to-end with injected defects, the
   same path a real campaign discrepancy takes. *)

module Fuzz = Fpx_fuzz
module Gen = Fpx_fuzz.Gen
module Repro = Fpx_fuzz.Repro
module Sassgen = Fpx_fuzz.Sassgen
module Oracle = Fpx_fuzz.Oracle
module Shrink = Fpx_fuzz.Shrink
module Program = Fpx_sass.Program

let qcheck_case t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

(* --- generation: determinism and artifact round-trip ------------------ *)

let prop_case_deterministic =
  QCheck.Test.make ~count:60 ~name:"case generation is a pure (seed, id)"
    QCheck.(pair (int_bound 1000) (int_bound 200))
    (fun (seed, id) ->
      let a = Sassgen.case ~seed ~id and b = Sassgen.case ~seed ~id in
      Repro.render a = Repro.render b)

let prop_render_parse_fixpoint =
  QCheck.Test.make ~count:60
    ~name:"artifacts survive a render/parse round-trip"
    QCheck.(pair (int_bound 1000) (int_bound 200))
    (fun (seed, id) ->
      let c = Sassgen.case ~seed ~id in
      let c' = Repro.of_file ~id ~seed (Fpx_sass.Parse.file (Repro.render c)) in
      (* modulo the header comment: a parsed file cannot recover a klang
         case's source expression, so compare from the .launch line on *)
      let body s =
        match String.index_opt s '\n' with
        | Some i -> String.sub s (i + 1) (String.length s - i - 1)
        | None -> s
      in
      body (Repro.render c') = body (Repro.render c))

(* --- the shrinker's termination measure ------------------------------- *)

let measure c = (Repro.instr_count c, Repro.complexity c)

let lex_lt (a1, a2) (b1, b2) = a1 < b1 || (a1 = b1 && a2 < b2)

let arb_case =
  QCheck.make
    ~print:(fun (seed, id) ->
      Printf.sprintf "seed=%d id=%d\n%s" seed id
        (Repro.render (Sassgen.case ~seed ~id)))
    QCheck.Gen.(pair (int_bound 1000) (int_bound 200))

let prop_candidates_strictly_decrease =
  (* the heart of the termination argument: every one-step reduction is
     strictly smaller in the lexicographic (instr_count, complexity)
     order, so any chain of accepted candidates is finite *)
  QCheck.Test.make ~count:80
    ~name:"every shrink candidate strictly decreases (instrs, complexity)"
    arb_case (fun (seed, id) ->
      let c = Sassgen.case ~seed ~id in
      List.for_all (fun c' -> lex_lt (measure c') (measure c))
        (Shrink.candidates c))

let prop_shrink_terminates_and_is_monotone =
  (* greedy shrinking with an always-accepting predicate walks the chain
     of first candidates; by the strict-decrease property above it must
     bottom out rather than cycle, and its floor is the bare EXIT
     program. Replaying the chain checks monotonicity step by step. *)
  QCheck.Test.make ~count:25 ~name:"shrink terminates at a fixed point"
    arb_case (fun (seed, id) ->
      let c = Sassgen.case ~seed ~id in
      let final = Shrink.shrink ~keep:(fun _ -> true) c in
      let rec monotone c =
        match Shrink.candidates c with
        | [] -> true
        | c' :: _ -> lex_lt (measure c') (measure c) && monotone c'
      in
      Repro.instr_count final = 1 && monotone c)

let prop_shrink_noop_without_keep =
  QCheck.Test.make ~count:40 ~name:"shrink returns the case unchanged when nothing is kept"
    arb_case (fun (seed, id) ->
      let c = Sassgen.case ~seed ~id in
      Repro.render (Shrink.shrink ~keep:(fun _ -> false) c) = Repro.render c)

(* --- minimization preserves the discrepancy class --------------------- *)

(* Find a generated case with instrumentable FP sites, so the injected
   defect actually fires (and keeps firing only while the shrinker
   retains at least one FP site). *)
let fp_case seed =
  let rec go id =
    if id > 100 then Alcotest.fail "no FP case in 100 ids"
    else
      let c = Sassgen.case ~seed ~id in
      if Program.fp_instr_count c.Repro.prog > 3 then c else go (id + 1)
  in
  go 0

let test_minimize_preserves_class () =
  List.iter
    (fun cl ->
      let c = fp_case 7 in
      let ds = Oracle.check ~defect:cl c in
      Alcotest.(check bool)
        (Oracle.clazz_to_string cl ^ " injected")
        true
        (Oracle.primary ds = Some cl);
      let m = Shrink.minimize ~defect:cl cl c in
      Alcotest.(check bool)
        (Oracle.clazz_to_string cl ^ " preserved after minimization")
        true
        (Oracle.primary (Oracle.check ~defect:cl m) = Some cl);
      Alcotest.(check bool)
        (Oracle.clazz_to_string cl ^ " did not grow")
        true
        (not (lex_lt (measure c) (measure m))))
    Oracle.all_classes

let test_minimize_shrinks_hard () =
  (* the injected defect only needs one FP site alive, so minimization
     should collapse a multi-instruction case down to a handful *)
  let c = fp_case 42 in
  let m = Shrink.minimize ~defect:Oracle.Nondet Oracle.Nondet c in
  Alcotest.(check bool)
    (Printf.sprintf "%d -> %d instructions" (Repro.instr_count c)
       (Repro.instr_count m))
    true
    (Repro.instr_count m <= 2)

let test_minimized_artifact_replays () =
  (* the full campaign path: minimize, render, parse back as a replay
     would, and re-check — the discrepancy class must survive the disk
     round-trip *)
  let cl = Oracle.Census_mismatch in
  let c = fp_case 11 in
  let m = Shrink.minimize ~defect:cl cl c in
  let replayed = Repro.of_file (Fpx_sass.Parse.file (Repro.render m)) in
  Alcotest.(check bool) "replayed artifact reproduces the class" true
    (Oracle.primary (Oracle.check ~defect:cl replayed) = Some cl)

(* --- campaign-level determinism --------------------------------------- *)

let test_campaign_jobs_invariant () =
  (* the fuzz subsystem's own acceptance check: the summary is
     byte-identical whatever the worker count *)
  let base = Fuzz.Campaign.default ~seed:42 ~runs:24 in
  let s1 = Fuzz.Campaign.run { base with Fuzz.Campaign.jobs = 1 } in
  let s4 = Fuzz.Campaign.run { base with Fuzz.Campaign.jobs = 4 } in
  Alcotest.(check string) "summaries agree"
    (Fuzz.Campaign.summary_json s1)
    (Fuzz.Campaign.summary_json s4)

let test_campaign_finds_injected_defect () =
  let base = Fuzz.Campaign.default ~seed:7 ~runs:6 in
  let s =
    Fuzz.Campaign.run
      { base with Fuzz.Campaign.defect = Some Oracle.Prune_mismatch }
  in
  Alcotest.(check bool) "campaign reports discrepancies" true
    (s.Fuzz.Campaign.found <> []);
  List.iter
    (fun (f : Fuzz.Campaign.found) ->
      Alcotest.(check bool) "classified as prune-mismatch" true
        (f.Fuzz.Campaign.clazz = Oracle.Prune_mismatch);
      Alcotest.(check bool) "minimized below the original" true
        (f.Fuzz.Campaign.min_instrs <= f.Fuzz.Campaign.orig_instrs))
    s.Fuzz.Campaign.found

(* --- the oracle's hang class ------------------------------------------ *)

let test_oracle_self_loop_hangs () =
  (* a kernel that branches to itself exhausts the executor's watchdog
     budget: the oracle must class it a hang, not a crash, so its repro
     replays with the hang exit *)
  let c =
    Repro.of_file
      (Fpx_sass.Parse.file ".kernel spin\n.launch 1 32\n  BRA 0x0 ;\n")
  in
  let fault =
    Fpx_fault.Fault.spec ~sites:[] ~rate:0.0 ~budget:1_000 ~seed:0 ()
  in
  Alcotest.(check (option string))
    "self-loop is a hang" (Some "hang")
    (Option.map Oracle.clazz_to_string (Oracle.primary (Oracle.check ~fault c)))

let test_budget_repro_replays_fast () =
  (* a campaign hang repro carries the budget it was classified under:
     [.budget] survives render and parse, and a replay with no fault
     spec reaches the hang verdict (replay's exit 2) on that budget, not
     after the executor's default 50M steps *)
  let c =
    { (Repro.of_file (Fpx_sass.Parse.file "BRA 0x0 ;\nEXIT ;\n")) with
      Repro.budget = Some 5_000 }
  in
  let lines c = String.split_on_char '\n' (Repro.render c) in
  Alcotest.(check bool) "directive rendered" true
    (List.mem ".budget 5000" (lines c));
  Alcotest.(check bool) "no budget, no directive" false
    (List.exists
       (String.starts_with ~prefix:".budget")
       (lines { c with Repro.budget = None }));
  let c' = Repro.of_file (Fpx_sass.Parse.file (Repro.render c)) in
  Alcotest.(check (option int)) "budget round-trips" (Some 5_000)
    c'.Repro.budget;
  Alcotest.(check bool) "budget 0 rejected" true
    (match Fpx_sass.Parse.file ".budget 0\nEXIT ;\n" with
     | _ -> false
     | exception Fpx_sass.Parse.Parse_error _ -> true);
  let t0 = Unix.gettimeofday () in
  let ds = Oracle.check c' in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "replays as a hang" true (Oracle.same_class Oracle.Hang ds);
  Alcotest.(check bool) (Printf.sprintf "fast (%.2fs)" dt) true (dt < 1.0)

(* --- the expression shrinker obeys the same contract ---------------- *)

let prop_shrink_ex_decreases =
  (* same shape of argument as the SASS-level shrinker: every step
     strictly decreases (node count, non-zero constants), so qcheck
     shrinking terminates too *)
  let rec nonzero_consts = function
    | Gen.X | Gen.Y -> 0
    | Gen.Const f -> if f = 0.0 then 0 else 1
    | Gen.Bin (_, a, b) -> nonzero_consts a + nonzero_consts b
    | Gen.Un (_, a) -> nonzero_consts a
    | Gen.Fma (a, b, c) ->
      nonzero_consts a + nonzero_consts b + nonzero_consts c
    | Gen.Sel (a, b, c, d) ->
      nonzero_consts a + nonzero_consts b + nonzero_consts c
      + nonzero_consts d
  in
  let m e = (Gen_qcheck.size_ex e, nonzero_consts e) in
  QCheck.Test.make ~count:200
    ~name:"shrink_ex strictly decreases (nodes, nonzero consts)"
    Gen_qcheck.arb_full (fun e ->
      let ok = ref true in
      Gen_qcheck.shrink_ex e (fun e' ->
          if not (lex_lt (m e') (m e)) then ok := false);
      !ok)

let suite =
  ( "shrink",
    [ qcheck_case prop_case_deterministic;
      qcheck_case prop_render_parse_fixpoint;
      qcheck_case prop_candidates_strictly_decrease;
      qcheck_case prop_shrink_terminates_and_is_monotone;
      qcheck_case prop_shrink_noop_without_keep;
      Alcotest.test_case "minimize preserves every class" `Quick
        test_minimize_preserves_class;
      Alcotest.test_case "minimize collapses to a handful of instrs" `Quick
        test_minimize_shrinks_hard;
      Alcotest.test_case "minimized artifact replays from disk" `Quick
        test_minimized_artifact_replays;
      Alcotest.test_case "campaign summary is jobs-invariant" `Quick
        test_campaign_jobs_invariant;
      Alcotest.test_case "campaign minimizes injected defects" `Quick
        test_campaign_finds_injected_defect;
      Alcotest.test_case "oracle: self-loop is a hang" `Quick
        test_oracle_self_loop_hangs;
      Alcotest.test_case "budget repro replays as a fast hang" `Quick
        test_budget_repro_replays_fast;
      qcheck_case prop_shrink_ex_decreases ] )
