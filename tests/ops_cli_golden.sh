#!/bin/sh
# Golden byte-identity of the one-shot CLI path vs `rsat batch`: for every
# operation, `rsat <op> ...` must emit the *same protocol result line* as a
# batch run fed the equivalent request line, modulo the delivery fields
# cached= and ms= — they share the protocol parser and renderer, and this
# test keeps it that way.
RSAT="$1"
[ -x "$RSAT" ] || { echo "usage: ops_cli_golden.sh <path-to-rsat>"; exit 2; }

tmpdir=$(mktemp -d) || exit 2
trap 'rm -rf "$tmpdir"' EXIT
fail=0

strip_delivery() { sed -E 's/ (cached|ms)=[^ ]*//g'; }

# check <batch-request-line> <one-shot argv...>
check() {
  line="$1"
  shift
  oneshot=$("$RSAT" "$@" 2>/dev/null | strip_delivery)
  batch=$(printf '%s\n' "$line" | "$RSAT" batch 2>/dev/null | strip_delivery)
  if [ -z "$oneshot" ] || [ "$oneshot" != "$batch" ]; then
    echo "MISMATCH for: $line"
    echo "  one-shot: $oneshot"
    echo "  batch:    $batch"
    fail=1
  fi
}

check "minreg kernel=lin-ddot id=1" minreg kernel=lin-ddot id=1
check "minreg kernel=lin-ddot emit=1 id=1" minreg kernel=lin-ddot emit=1 id=1
check "spill kernel=lin-ddot limits=2,2 id=1" spill kernel=lin-ddot limits=2,2 id=1
check "spill kernel=lin-ddot limits=2,2 max_spills=2 emit=1 id=1" \
      spill kernel=lin-ddot limits=2,2 max_spills=2 emit=1 id=1
check "schedule kernel=lin-ddot id=1" schedule kernel=lin-ddot id=1
check "schedule kernel=lin-ddot width=2 id=1" schedule kernel=lin-ddot width=2 id=1
check "globalrs prog=diamond id=1" globalrs prog=diamond id=1
check "globalreduce prog=diamond limits=8,8 margin=2 id=1" \
      globalreduce prog=diamond limits=8,8 margin=2 id=1

# The bare-path shorthand: `rsat minreg <file.ddg>` == `minreg file=...`.
"$RSAT" dump lin-ddot > "$tmpdir/k.ddg" || fail=1
check "minreg file=$tmpdir/k.ddg id=1" minreg "$tmpdir/k.ddg" id=1
# analyze/reduce take the same shorthand: there is one one-shot path.
check "analyze file=$tmpdir/k.ddg id=1" analyze "$tmpdir/k.ddg" id=1
check "reduce file=$tmpdir/k.ddg limits=2,2 emit=1 id=1" \
      reduce "$tmpdir/k.ddg" limits=2,2 emit=1 id=1

# ... and its .prog twin: `rsat globalrs <file.prog>` == `globalrs file=...`.
"$RSAT" dumpprog dotcond > "$tmpdir/p.prog" || fail=1
check "globalrs file=$tmpdir/p.prog id=1" globalrs "$tmpdir/p.prog" id=1

# Every operation row of the usage text keeps whitespace between the name
# and its synopsis, however long the name (`rsat` alone prints usage).
usage=$("$RSAT" 2>&1)
ops=$(printf '%s\n' "$usage" |
      sed -n 's/^operations (.*: \(.*\)):$/\1/p' | tr '|' ' ')
[ -n "$ops" ] || { echo "USAGE lists no operations"; fail=1; }
for op in $ops; do
  case "$op" in cancel|drain|stats|metrics) continue ;; esac
  if ! printf '%s\n' "$usage" | grep -q "^  $op[[:space:]]"; then
    echo "USAGE row for $op has no space before its synopsis"
    fail=1
  fi
done

[ "$fail" -eq 0 ] && echo "PASS ops_cli_golden"
exit "$fail"
