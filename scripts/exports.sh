#!/bin/sh
# List the library exports nothing uses, and check the list against the
# allowlist.
#
# Every `val NAME` in lib/*/*.mli is looked up, as a whole word, in the
# OCaml sources under lib, bin, bench, test and examples, leaving out the
# value's own .ml/.mli pair. A value with no such reference is `dead`;
# one referenced only under test/ is `test-only`. The scan is by word,
# so it over-counts (any same-named word is a reference) and it cannot
# see a use through `include` or a functor argument: it is a worklist,
# not a verdict.
#
#   scripts/exports.sh          print "path value class" lines
#   scripts/exports.sh --check  fail unless the list equals the
#                               allowlist (scripts/exports.allow, whose
#                               `#` comments, blank lines and the `opt`
#                               and `field` lines of scripts/knobs.ml
#                               are ignored)
#
# The check is an equality, so it fails both on a new unreferenced
# export and on an allowlisted one that has gained a caller: the
# allowlist can only shrink.
set -e
cd "$(dirname "$0")/.."

scan() {
  # One pass indexes every (file, word) pair; awk joins it with the vals.
  {
    grep -nE "^[[:space:]]*val [a-z_][A-Za-z0-9_']*" lib/*/*.mli |
      sed -E "s/^([^:]*):[0-9]+:[[:space:]]*val ([a-z_][A-Za-z0-9_']*).*/V \1 \2/"
    grep -roE "[A-Za-z_][A-Za-z0-9_']*" --include='*.ml' --include='*.mli' \
      lib bin bench test examples | sort -u | sed 's/:/ /; s/^/W /'
  } | awk '
    $1 == "V" { n++; path[n] = $2; name[n] = $3; want[$3] = 1; next }
    $1 == "W" && ($3 in want) { files[$3] = files[$3] " " $2 }
    END {
      for (i = 1; i <= n; i++) {
        stem = path[i]; sub(/\.mli$/, "", stem)
        live = 0; test_ref = 0
        k = split(files[name[i]], fs, " ")
        for (j = 1; j <= k; j++) {
          f = fs[j]
          if (f == stem ".ml" || f == stem ".mli") continue
          if (f ~ /^test\//) test_ref = 1; else live = 1
        }
        if (!live) print path[i], name[i], (test_ref ? "test-only" : "dead")
      }
    }' | sort -u
}

if [ "${1:-}" = "--check" ]; then
  allow=scripts/exports.allow
  found=$(scan)
  listed=$(grep -vE '^[[:space:]]*(#|$)' "$allow" |
    grep -vE '[[:space:]](opt|field)[[:space:]]*$' |
    sed -E 's/[[:space:]]+/ /g; s/ $//' | sort -u)
  if [ "$found" = "$listed" ]; then
    echo "exports: $(printf '%s\n' "$found" | grep -c .) allowlisted, none new"
    exit 0
  fi
  echo "exports: the scan and $allow differ" >&2
  echo "  (> found by the scan but not allowlisted; < allowlisted but now referenced)" >&2
  printf '%s\n' "$listed" > "${TMPDIR:-/tmp}/exports.allow.$$"
  printf '%s\n' "$found" | diff "${TMPDIR:-/tmp}/exports.allow.$$" - >&2 || true
  rm -f "${TMPDIR:-/tmp}/exports.allow.$$"
  exit 1
fi
scan
