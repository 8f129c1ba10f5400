#!/bin/sh
# Cross-build disk-cache compatibility: replays a manifest against a
# committed --cache-dir that an earlier build wrote. Every request must be
# served from disk (same cache key, decodable record) and print the
# committed result line byte for byte, modulo the delivery fields cached=
# and ms=. rsat_batch_disk_restart only proves that one build reads back
# what it wrote itself; this test also catches drift in the request key,
# the payload codec or the result-line renderer between builds.
#
# usage: disk_cache_compat.sh <path-to-rsat> <data-dir>
#   <data-dir> holds manifest.txt, expected.txt and cache/<2hex>/<key>.rsres
RSAT="$1"
DATA="$2"
[ -x "$RSAT" ] && [ -d "$DATA/cache" ] ||
  { echo "usage: disk_cache_compat.sh <path-to-rsat> <data-dir>"; exit 2; }

tmpdir=$(mktemp -d) || exit 2
trap 'rm -rf "$tmpdir"' EXIT
# Replay against a copy: a read-only hit must not depend on the committed
# tree being writable, and a failing build must not touch the fixture.
cp -R "$DATA/cache" "$tmpdir/cache" || exit 2

"$RSAT" batch "$DATA/manifest.txt" --threads 1 --cache-dir "$tmpdir/cache" \
  > "$tmpdir/out" 2> "$tmpdir/err"
status=$?
fail=0
[ "$status" = 0 ] || { echo "rsat batch exited $status"; fail=1; }

n=$(grep -c '^result ' "$DATA/expected.txt")
if ! grep -q "cache dir: .* ($n disk hits, 0 writes, 0 corrupt" "$tmpdir/err"; then
  echo "expected $n disk hits and no writes or corrupt records:"
  cat "$tmpdir/err"
  fail=1
fi
if grep -v ' cached=1 ' "$tmpdir/out" | grep -q .; then
  echo "lines not served from the cache:"
  grep -v ' cached=1 ' "$tmpdir/out"
  fail=1
fi

strip_delivery() { sed -E 's/ (cached|ms)=[^ ]*//g' "$1"; }
strip_delivery "$DATA/expected.txt" > "$tmpdir/want"
strip_delivery "$tmpdir/out" > "$tmpdir/got"
if ! cmp -s "$tmpdir/want" "$tmpdir/got"; then
  echo "result lines differ from the committed ones:"
  diff "$tmpdir/want" "$tmpdir/got"
  fail=1
fi

[ "$fail" = 0 ] && echo "PASS disk_cache_compat"
exit "$fail"
