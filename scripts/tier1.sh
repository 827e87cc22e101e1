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

run "dune runtest" dune runtest

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
