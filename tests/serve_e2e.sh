#!/usr/bin/env bash
# End-to-end exercise of `rsat serve`:
#   1. start on an ephemeral port with a persistent --cache-dir plus the
#      telemetry artifacts (--trace-file, --metrics-json),
#   2. drive analyze / cancel / drain / stats through a client socket
#      (/dev/tcp), scrape the `metrics` verb twice and require the two warm
#      expositions to agree byte-for-byte modulo sample values,
#   3. SIGINT: the server drains and exits 0 with a summary, a schema-valid
#      JSONL trace (every line carries the documented required keys and the
#      input feature block), a metrics JSON whose counters tile, and a
#      Prometheus exposition that parses,
#   4. restart with the same --cache-dir: the same request must be served
#      from the disk tier (cached=1 with an empty memory store, and the
#      summary reports a disk hit), and the stats verb's key schema must be
#      byte-stable between the cold and warm sessions.
# Usage: serve_e2e.sh /path/to/rsat
set -u

RSAT="$1"
WORK="$(mktemp -d)"
SERVER_PID=""
trap 'kill "$SERVER_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

# Schema validation needs a JSON parser; the protocol exercise does not.
# Keep the e2e meaningful on minimal images by degrading, loudly.
HAVE_PY=1
command -v python3 >/dev/null 2>&1 || {
  HAVE_PY=0
  echo "WARN: python3 not found; skipping JSON/exposition schema checks" >&2
}

fail() {
  echo "FAIL: $*" >&2
  for log in "$WORK"/log*; do
    [ -f "$log" ] && { echo "--- $log" >&2; cat "$log" >&2; }
  done
  exit 1
}

start_server() { # $1 = log path
  rm -f "$WORK/port"
  "$RSAT" serve --port 0 --port-file "$WORK/port" \
      --cache-dir "$WORK/cache" --threads 2 \
      --trace-file "$1.trace.jsonl" --metrics-json "$1.metrics.json" \
      2>"$1" &
  SERVER_PID=$!
  for _ in $(seq 1 300); do
    [ -s "$WORK/port" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server died during startup"
    sleep 0.1
  done
  [ -s "$WORK/port" ] || fail "port file never appeared"
  PORT="$(cat "$WORK/port")"
}

stop_server() { # $1 = log path
  kill -INT "$SERVER_PID" || fail "cannot signal server"
  wait "$SERVER_PID" || fail "server exited nonzero after SIGINT"
  SERVER_PID=""
}

request() { # $1 = request lines (\n-separated), $2 = expected reply count
  exec 3<>"/dev/tcp/127.0.0.1/$PORT" || fail "cannot connect to port $PORT"
  printf '%b' "$1" >&3
  REPLY=""
  local line i
  for i in $(seq 1 "$2"); do
    IFS= read -r -t 60 line <&3 || fail "timed out waiting for reply $i"
    REPLY="$REPLY$line
"
  done
  exec 3<&- 3>&-
}

line_n() { printf '%s' "$REPLY" | sed -n "${1}p"; }

# Validates one session's telemetry artifacts: every trace line is a JSON
# object carrying the documented required keys (the ddg_* feature block
# included: every request here is fingerprinted), the metrics JSON parses
# and its engine.* counters tile, and the expected event count matches in
# all three places.
check_telemetry() { # $1 = log path, $2 = expected trace events
  [ "$HAVE_PY" = 1 ] || return 0
  python3 - "$1.trace.jsonl" "$1.metrics.json" "$2" <<'EOF' || fail "telemetry artifacts invalid (see above)"
import json, sys
trace_path, metrics_path = sys.argv[1], sys.argv[2]
expect = int(sys.argv[3])
required = ["ev", "ts", "id", "op", "name", "fp", "ok", "cached", "tier",
            "stop", "nodes", "ddg_ops", "ddg_arcs", "ddg_cp", "ddg_width",
            "ddg_types", "total_ms"]
events = 0
with open(trace_path) as f:
    for n, line in enumerate(f, 1):
        ev = json.loads(line)  # every line must parse as one JSON object
        missing = [k for k in required if k not in ev]
        assert not missing, f"line {n} missing keys {missing}: {line!r}"
        assert ev["ev"] == "request", f"line {n} bad ev: {ev['ev']}"
        assert ev["tier"] in ("mem", "disk", "none"), ev["tier"]
        assert ev["ddg_ops"] > 0 and ev["ddg_width"] > 0, line
        events += 1
assert events == expect, f"expected {expect} trace events, found {events}"
m = json.load(open(metrics_path))
c = m["counters"]
tiles = (c["engine.memory_hits"] + c["engine.disk_hits"]
         + c["engine.coalesced"] + c["engine.misses"])
assert tiles == c["engine.completed"], \
    f"counters do not tile: {tiles} != {c['engine.completed']}"
assert c["serve.requests"] == events, (c["serve.requests"], events)
assert m["histograms"]["engine.latency_ms"]["count"] == events
EOF
}

# Scrapes the `metrics` verb (multi-line, framed by "# EOF") into a file.
scrape_metrics() { # $1 = output file
  exec 3<>"/dev/tcp/127.0.0.1/$PORT" || fail "cannot connect to port $PORT"
  printf 'metrics\n' >&3
  : > "$1"
  local line
  while IFS= read -r -t 60 line <&3; do
    printf '%s\n' "$line" >> "$1"
    [ "$line" = "# EOF" ] && break
  done
  exec 3<&- 3>&-
  grep -qx '# EOF' "$1" || fail "metrics scrape not terminated by # EOF"
}

# A scrape with sample values dropped: what must be byte-identical between
# two consecutive warm scrapes of one process.
scrape_shape() { awk '/^#/ { print; next } { NF--; print }' "$1"; }

# Validates Prometheus text exposition syntax: every line is a `# TYPE`
# header (counter/gauge/histogram, names sorted) or a `name[{le="..."}]
# value` sample of a previously typed family; counters end in _total;
# histogram ladders are cumulative and close at `le="+Inf"` == _count.
check_exposition() { # $1 = scrape file
  [ "$HAVE_PY" = 1 ] || return 0
  python3 - "$1" <<'EOF' || fail "metrics exposition invalid (see above)"
import re, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines and lines[-1] == "# EOF", "missing # EOF frame"
name_re = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
sample_re = re.compile(
    r'([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{le="([^"]+)"\})? (\S+)\Z')
families = {}
prev_family = ""
cum = {}
for n, ln in enumerate(lines[:-1], 1):
    if ln.startswith("# TYPE "):
        parts = ln.split(" ")
        assert len(parts) == 4, f"line {n}: {ln!r}"
        _, _, fam, kind = parts
        assert name_re.match(fam), f"line {n}: bad family name {fam!r}"
        assert kind in ("counter", "gauge", "histogram"), f"line {n}: {ln!r}"
        assert prev_family < fam, f"line {n}: families not sorted: {ln!r}"
        prev_family = fam
        families[fam] = kind
        continue
    m = sample_re.match(ln)
    assert m, f"line {n}: unparseable sample: {ln!r}"
    name, le, value = m.groups()
    if le is None:
        float(value)  # must parse
    fam = None
    if name in families:
        fam = name
    else:
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in families:
                fam = name[:-len(suffix)]
                assert families[fam] == "histogram", f"line {n}: {ln!r}"
    assert fam is not None, f"line {n}: sample of untyped family: {ln!r}"
    if families[fam] == "counter":
        assert fam.endswith("_total"), f"line {n}: counter without _total"
    if le is not None:
        v = int(value)
        assert v >= cum.get(fam, 0), f"line {n}: ladder not cumulative"
        cum[fam] = v
        if le == "+Inf":
            total = v
        else:
            float(le)
assert any(k == "histogram" for k in families.values()), "no histograms"
EOF
}

# Key schema of a stats line (the sorted key set, values stripped).
stats_schema() { printf '%s' "$1" | tr ' ' '\n' | sed 's/=.*//' | sort; }

# --- first server: cold compute, cancel ack, drain ack, stats verb ---------
start_server "$WORK/log1"
request 'analyze kernel=fir8\ncancel 999\ndrain\nstats\n' 4
line_n 1 | grep -q 'status=ok kind=analyze name=fir8' ||
  fail "unexpected analyze result: $(line_n 1)"
line_n 1 | grep -q 'cached=0' || fail "first analyze should be a cold miss"
[ "$(line_n 2)" = "cancelled id=999 found=0" ] ||
  fail "unexpected cancel ack: $(line_n 2)"
[ "$(line_n 3)" = "drained" ] || fail "unexpected drain ack: $(line_n 3)"
line_n 4 | grep -q '^stats submitted=1 completed=1 .* misses=1 ' ||
  fail "unexpected stats ack: $(line_n 4)"
line_n 4 | grep -q ' op\.analyze\.submitted=1 ' ||
  fail "stats ack missing the per-op slice: $(line_n 4)"
COLD_RESULT="$(line_n 1)"
COLD_STATS="$(line_n 4)"

# Two consecutive warm scrapes of the metrics verb: valid exposition, and
# identical shape (family set + sample lines) with only values free to move.
scrape_metrics "$WORK/scrape1"
scrape_metrics "$WORK/scrape2"
check_exposition "$WORK/scrape1"
[ "$(scrape_shape "$WORK/scrape1")" = "$(scrape_shape "$WORK/scrape2")" ] ||
  fail "consecutive metrics scrapes differ beyond sample values"
grep -q '^rsat_solver_' "$WORK/scrape1" ||
  fail "exposition missing the solver.* interior profile"
stop_server "$WORK/log1"
grep -q 'interrupted, drained' "$WORK/log1" ||
  fail "SIGINT summary missing the drain marker"
check_telemetry "$WORK/log1" 1

# --- restart with the same cache dir: must hit the disk tier ---------------
start_server "$WORK/log2"
request 'analyze kernel=fir8\nstats\n' 2
line_n 1 | grep -q 'cached=1' ||
  fail "restart did not serve from the disk tier: $(line_n 1)"
# Byte-identical modulo the delivery fields (cached=, ms=).
strip() { printf '%s\n' "$1" | tr ' ' '\n' | grep -v -e '^cached=' -e '^ms=' | tr '\n' ' '; }
[ "$(strip "$COLD_RESULT")" = "$(strip "$(line_n 1)")" ] ||
  fail "disk-served line differs beyond cached=/ms=: $COLD_RESULT vs $(line_n 1)"
# Same operation mix -> byte-stable stats key schema across cold/warm runs.
line_n 2 | grep -q ' disk_hits=1 ' ||
  fail "warm stats did not count the disk hit: $(line_n 2)"
[ "$(stats_schema "$COLD_STATS")" = "$(stats_schema "$(line_n 2)")" ] ||
  fail "stats key schema drifted between cold and warm sessions"
stop_server "$WORK/log2"
grep -q '1 disk hits' "$WORK/log2" ||
  fail "restart summary did not report the disk hit"
check_telemetry "$WORK/log2" 1
grep -q '"tier":"disk"' "$WORK/log2.trace.jsonl" ||
  fail "restart trace event did not attribute the disk tier"

echo "PASS serve_e2e"
