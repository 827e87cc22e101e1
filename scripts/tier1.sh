#!/bin/sh
# Tier-1 verification: build, run the full test suite, and — when the
# toolchain has ocamlformat — check formatting via dune's @fmt alias.
# ocamlformat is not part of the baked-in toolchain everywhere, so the
# fmt check is gated rather than required; the .ocamlformat at the repo
# root pins the version so results agree wherever it does run.
#
# Every step runs under a 600-second watchdog so a wedged build or a
# test that hangs (the very failure mode lib/fault exists to model)
# fails the script with a named step instead of stalling CI forever.
set -e
cd "$(dirname "$0")/.."

STEP_TIMEOUT=600

# run <name> <cmd...>: run the step under timeout(1) when available,
# reporting which step overran. 124 is timeout's timed-out exit code.
run() {
  name=$1
  shift
  echo "== tier1: $name"
  if command -v timeout >/dev/null 2>&1; then
    timeout "$STEP_TIMEOUT" "$@" && return 0
    rc=$?
    if [ "$rc" -eq 124 ]; then
      echo "== tier1: FAIL - step '$name' timed out after ${STEP_TIMEOUT}s" >&2
    else
      echo "== tier1: FAIL - step '$name' exited with $rc" >&2
    fi
    exit "$rc"
  else
    "$@"
  fi
}

run "dune build" dune build

# Fpx_obs.Json is the one JSON codec: no second escaper, unescaper or
# Jsonx module may come back into the shipped code.
run "one json codec" \
  sh -c '! grep -rnE "json_escape|json_unescape|Jsonx" lib bin bench/main.ml'

# One interpreter ships: the reference oracle lives in test/oracle, no
# engine selector may come back, and GENERIC tokens are interpreted
# only in lib/sass (Operand.generic_value).
run "one interpreter" \
  sh -c '! grep -rnE "Exec_ref|engine:|Device\.Reference" lib bin &&
         ! grep -rnF "\"+QNAN\"" lib --exclude-dir=sass'

# One batch fan-out: Sched.map ~jobs. The pooled map route must not
# come back; Sched.Pool serves the daemon only.
run "one fan-out" \
  sh -c '! grep -rnE "\?pool|~pool|pool_mapi" lib bin'

# One bench writer: in bench/main.ml only the emit helper opens a file
# or renders JSON; every gate target writes BENCH_<target>.json through it.
run "one bench writer" \
  awk '/^let /{inside = /^let emit /}
       /open_out|Json\.to_string|J\.to_string|\{\\"/{n++; if (!inside) bad = 1}
       END{exit bad || n == 0}' bench/main.ml

# One bench harness: the deterministic BENCH files are diffed by
# `dune runtest` (bench/dune) and timing gates live in bench/main.exe.
# No second timing framework, no standalone gate script and no CI-side
# regenerate-and-diff step may come back.
run "one bench harness" \
  sh -c '! grep -rni bechamel bench .github dune-project &&
         ! find . -path ./_build -prune -o -name dune -print |
             xargs grep -li bechamel &&
         ! test -e scripts/diagnose_gate.sh &&
         ! grep -rn "git diff --exit-code.*BENCH_" .github'

# One tool table: every tool name resolves through Toolreg.table. No
# mutable registry and no second name -> tool mapping may come back.
run "one tool table" \
  sh -c '! grep -rnE "Fpx_tool\.(register|lookup|registered|entry)|tool_of_string" lib bin'

# One event recorder: Fpx_obs.Span records both the wall-clock and the
# simulated-cycle timelines. No second recorder or span-to-trace copy
# may come back.
run "one event recorder" \
  sh -c '! test -e lib/obs/trace.ml &&
         ! grep -rnE "Fpx_obs\.Trace|Obs\.Trace|to_trace" lib bin bench/main.ml test'

# One operand decoder: the abstract interpreter reads operands through
# Fpx_sass.Decode's micro-ops, never through raw Operand constructors.
run "one operand decoder" \
  sh -c '! grep -nE "Operand\.(Imm_f32|Imm_f64|Imm_i|Generic|Cbank)" lib/static/absint.ml'

# One site table: the MUFU.*64H pair rule is spelled out only by the
# decoder and by Fpx_sass.Site (Algorithm 1); the detector, BinFPE,
# Prune, Lint and Absint derive it from Site.plan.
run "one site table" \
  sh -c 'test "$(grep -rlE "Rcp64h \| Isa\.Rsq64h" lib | sort | tr "\n" " ")" = \
              "lib/sass/decode.ml lib/sass/site.ml "'

# One register footprint: which registers an instruction reads and
# writes, and at what width, is Fpx_sass.Decode.reads/writes. Lint, Cfg,
# the analyzer and the escape oracle read no raw register or label
# operand, and the deleted per-opcode helpers stay gone (Program keeps
# its register-file sizing rule).
run "one register footprint" \
  sh -c '! grep -nE "Operand\.(reg_num|Reg [a-z]|Label [a-z]|Pred [a-z])|dest_reg_num" \
           lib/static/lint.ml lib/static/cfg.ml lib/core/analyzer.ml lib/fuzz/repro.ml &&
         ! grep -rnE "source_reg_nums|shares_dest_and_src_reg|writes_fp64_pair" \
           lib bin --exclude=program.ml'

# One run path: only Runner builds a device and a runtime and drives a
# launch outside the simulator and the runtime themselves. Campaigns,
# repro shrinking and input search go through Runner.run, so a run's
# ending (completed, hung, faulted) is decided in one place.
run "one run path" \
  sh -c 'test "$(grep -rlE "Device\.create|Runtime\.(create|attach)|Exec\.run" \
                  lib --include=*.ml --exclude-dir=gpu --exclude-dir=nvbit)" = \
              lib/harness/runner.ml'

# Tool results are plain data: Runner reads the tools it built into the
# measurement's own fields, so no open payload type and no tool handle
# may come back into a result.
run "tool results are plain data" \
  sh -c '! grep -rnE "Fpx_tool\.extra|type extra|extras" lib bin'

# One flat channel: device->host records are fixed-size int packets,
# so Fpx_gpu.Channel takes no type parameter and a push allocates
# nothing. No polymorphic payload may come back.
run "flat channel" \
  sh -c '! grep -nE "(^|[^A-Za-z])'\''[a-z_]+ +t([^a-z_]|$)|type +'\''" lib/gpu/channel.mli'

# One dispatch per warp step: the executor matches a micro-op once and
# loops over the executing lanes inside its arm, and hands tools an int
# lane mask and the register file as plain data, read through
# Exec.word. No per-lane executor, lane list or register-read closure
# may come back, and each FP32 bit rule (NaN test, flush, FMNMX
# min/max) has its one definition in Fpx_num.Fp32.
run "one dispatch per warp step" \
  sh -c '! grep -rnE "executing_lanes|exec_lane|read_reg" lib bin test/oracle &&
         ! grep -rnE "let(\[@[a-z]+\])? +(rec +)?(is_nan32|ftz32|min_nv32|max_nv32)([^A-Za-z0-9_]|$)" \
           lib --exclude-dir=fpnum'

# No unreferenced exports: every lib/*/*.mli value is used outside its
# own module, or is on scripts/exports.allow with the reason in its .mli
# doc. The list must equal the allowlist, so it can only shrink.
run "no unreferenced exports" scripts/exports.sh --check

# No unset knobs: every lib/*/*.mli optional argument is passed, and
# every record field is read, by code outside test/, or is on
# scripts/exports.allow with the reason in its .mli doc. The typed-tree
# scan reads the .cmt files `dune build @check` leaves in _build, and
# its list must equal the allowlist's opt/field lines.
run "no unset knobs" \
  sh -c 'dune build @check && dune exec scripts/knobs.exe -- --check'

run "dune runtest" dune runtest

# One report plan: every artefact declares its runs and the report runs
# each distinct one through the plan executor, the one Runner.run call
# in lib/harness/experiments.ml. No per-table run loop may come back.
run "one report plan" \
  awk '/^let /{inside = /^let measure /}
       {c = gsub(/Runner\.run([^_[:alnum:]]|$)/, "&"); n += c
        if (c && !inside) bad = 1}
       END{exit bad || n != 1}' lib/harness/experiments.ml

# The report is byte-identical whatever the worker count.
REPORT_DIR="${TMPDIR:-/tmp}/fpx-tier1-report"
rm -rf "$REPORT_DIR"
mkdir -p "$REPORT_DIR"
run "report determinism" \
  sh -c 'dune exec bin/fpx_run.exe -- report --jobs 1 >"$1/j1.txt" &&
         dune exec bin/fpx_run.exe -- report --jobs 2 >"$1/j2.txt" &&
         cmp "$1/j1.txt" "$1/j2.txt"' sh "$REPORT_DIR"

# A standalone .sass kernel that traps ends in the documented crash exit
# (3), not an uncaught exception.
run "run-sass trap smoke" \
  sh -c 'dune exec bin/fpx_run.exe -- run-sass examples/sass/oob_load.sass \
           >/dev/null; test $? -eq 3'

# A malformed kernel (a missing source operand) faults the same way.
run "run-sass malformed smoke" \
  sh -c 'dune exec bin/fpx_run.exe -- run-sass \
           examples/sass/missing_operand.sass >/dev/null; test $? -eq 3'

# A fault rate that is NaN or outside [0, 1] is a bad CLI value (124),
# not a silently fault-free (or always-faulting) run, with or without
# --fault-seed.
run "fault-rate smoke" \
  sh -c 'for seed in "--fault-seed=1" ""; do
           for r in nan -0.5 2; do
             dune exec bin/fpx_run.exe -- detect GEMM $seed \
               --fault-rate="$r" >/dev/null 2>&1
             test $? -eq 124 || exit 1
           done
         done'

# A --fault-kinds list that names no kind ("" or ",") or an unknown one
# is a bad CLI value (124), not a run with no fault site enabled, with
# or without --fault-seed.
run "fault-kinds smoke" \
  sh -c 'for seed in "--fault-seed=1" ""; do
           for k in "" , bogus; do
             dune exec bin/fpx_run.exe -- detect GEMM $seed \
               --fault-kinds="$k" >/dev/null 2>&1
             test $? -eq 124 || exit 1
           done
         done'

# An executor watchdog trap is a hang: exit 2, the same as the runtime's
# slowdown watchdog, not the simulator-fault exit.
run "watchdog hang smoke" \
  sh -c 'dune exec bin/fpx_run.exe -- detect GEMM --fault-seed 1 \
           --fault-kinds watchdog-exhaust --fault-rate 1 >/dev/null 2>&1
         test $? -eq 2'

# Smoke the architectural bit-flip campaign end to end: a pinned-seed
# plan through the real CLI, with the kill (--halt-after) + --resume
# path exercised and the resumed summary required byte-identical to a
# straight run at a different job count.
CAMP_STORE="${TMPDIR:-/tmp}/fpx-tier1-campaign"
rm -rf "$CAMP_STORE"
run "campaign smoke (run)" \
  dune exec bin/fpx_run.exe -- campaign run --seed 11 --total 24 --jobs 2 \
  --no-minimize --store "$CAMP_STORE" --out "$CAMP_STORE/straight.json"
run "campaign smoke (halt)" \
  dune exec bin/fpx_run.exe -- campaign run --seed 11 --total 24 --jobs 1 \
  --no-minimize --store "$CAMP_STORE/killed" --halt-after 9
run "campaign smoke (resume)" \
  dune exec bin/fpx_run.exe -- campaign run --seed 11 --total 24 --jobs 4 \
  --no-minimize --store "$CAMP_STORE/killed" --resume \
  --out "$CAMP_STORE/resumed.json"
run "campaign smoke (determinism)" \
  cmp "$CAMP_STORE/straight.json" "$CAMP_STORE/resumed.json"

# Smoke the persistent analysis service: daemon up, same submission
# twice (second must be a cache hit, byte-identical), /metrics over
# HTTP on the same socket, clean shutdown — all watchdogged.
SERVE_WORK="${TMPDIR:-/tmp}/fpx-tier1-serve"
run "serve smoke" ./scripts/serve_smoke.sh "$SERVE_WORK"

if command -v ocamlformat >/dev/null 2>&1; then
  run "dune build @fmt" dune build @fmt
else
  echo "== tier1: ocamlformat not installed; skipping @fmt check"
fi

echo "== tier1: OK"
