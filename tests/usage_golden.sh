#!/bin/sh
# Usage golden for the rsat CLI:
#   1. `rsat` with no arguments exits 2, writes nothing to stdout, and its
#      stderr equals the committed tests/data/rsat_usage.txt;
#   2. the README's command block lists the same --flags per subcommand as
#      that usage text, so the two hand-kept copies cannot drift apart.
# Regenerate the golden after a deliberate CLI change with
#   rsat 2> tests/data/rsat_usage.txt
# Usage: usage_golden.sh /path/to/rsat /path/to/source-root
set -u

RSAT="$1"
ROOT="$2"
GOLDEN="$ROOT/tests/data/rsat_usage.txt"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

"$RSAT" >"$WORK/stdout" 2>"$WORK/usage"
rc=$?
[ "$rc" = 2 ] || fail "rsat with no arguments exited $rc, want 2"
[ -s "$WORK/stdout" ] && fail "rsat with no arguments wrote to stdout"
diff -u "$GOLDEN" "$WORK/usage" >&2 ||
  fail "usage text differs from $GOLDEN"

# "<subcommand> <--flag>" pairs, sorted and unique. A line whose first word
# is `rsat` opens a subcommand; the lines after it continue it.
flags() {
  awk '$1 == "rsat" { cmd = $2 }
       cmd != "" {
         line = $0
         while (match(line, /--[a-z][a-z-]*/)) {
           print cmd, substr(line, RSTART, RLENGTH)
           line = substr(line, RSTART + RLENGTH)
         }
       }' | sort -u
}

# The usage text's command block ends at its first blank line; the
# README's is the fenced block under "## `rsat` command reference".
usage_flags="$(awk 'NF == 0 { exit } { print }' "$GOLDEN" | flags)"
readme_flags="$(awk '/^## `rsat` command reference/ { f = 1; next }
                     f && /^```/ { if (++n == 2) exit; next }
                     f && n == 1 { print }' "$ROOT/README.md" | flags)"
printf '%s\n' "$usage_flags" | grep -qx 'serve --port' ||
  fail "no serve --port flag found in $GOLDEN"
[ "$usage_flags" = "$readme_flags" ] || {
  printf '%s\n' "$usage_flags" >"$WORK/usage_flags"
  printf '%s\n' "$readme_flags" >"$WORK/readme_flags"
  diff -u "$WORK/usage_flags" "$WORK/readme_flags" >&2
  fail "README command block and usage text list different flags"
}

echo "PASS usage_golden"
