#!/usr/bin/env bash
# Accept back-off under fd exhaustion: `rsat serve` runs with a 16-fd limit
# (`ulimit -n` in a subshell, so it binds that child alone) and 20 clients
# connect. Once the server is out of fds, the connections it cannot accept
# stay queued in the listener, and the loop must stop polling the listener
# for a while instead of spinning on it. Asserts that:
#   1. the server uses well under 0.5 s of CPU over 2 s (/proc/<pid>/stat);
#   2. fewer than 20 connections are open while the limit holds (the
#      rsat_serve_open_conns gauge, read on an accepted connection);
#   3. once the other clients close, the last queued connection answers
#      `stats` within 3 s.
# Usage: accept_backoff.sh /path/to/rsat
set -u

RSAT="$1"
command -v python3 >/dev/null 2>&1 || {
  echo "SKIP: python3 not found"
  exit 77
}
[ -r /proc/self/stat ] || {
  echo "SKIP: /proc/<pid>/stat not readable"
  exit 77
}

WORK="$(mktemp -d)"
SERVER_PID=""
trap 'kill "$SERVER_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

fail() {
  echo "FAIL: $*" >&2
  [ -f "$WORK/log" ] && { echo "--- server log" >&2; cat "$WORK/log" >&2; }
  exit 1
}

(ulimit -n 16 && exec "$RSAT" serve --port 0 --port-file "$WORK/port" \
     --threads 1) 2>"$WORK/log" &
SERVER_PID=$!
for _ in $(seq 1 300); do
  [ -s "$WORK/port" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server died during startup"
  sleep 0.1
done
[ -s "$WORK/port" ] || fail "port file never appeared"

python3 - "$(cat "$WORK/port")" "$SERVER_PID" <<'PY' || fail "see above"
import os, socket, sys, time

port, pid = int(sys.argv[1]), int(sys.argv[2])

def cpu_seconds():
    # utime and stime are fields 14 and 15; split after the ")" that ends
    # the command name, so field 3 (state) lands at index 0.
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

def read_until(sock, done):
    buf = b""
    while not done(buf):
        chunk = sock.recv(65536)
        assert chunk, "connection closed early"
        buf += chunk
    return buf.decode()

def metrics(sock):
    sock.sendall(b"metrics\n")
    return read_until(sock, lambda b: b.endswith(b"# EOF\n"))

def stats(sock):
    sock.sendall(b"stats\n")
    line = read_until(sock, lambda b: b"\n" in b).split("\n", 1)[0]
    assert line.startswith("stats "), f"unexpected reply: {line!r}"

# Answer stats and metrics once while fds are free. UBSan's vptr check
# probes memory through a pipe the first time it meets a type, so under
# -fsanitize=undefined a first render with no fd left reports a false
# "invalid vptr"; later checks of the same type hit its cache.
conns = [socket.create_connection(("127.0.0.1", port), timeout=10)]
stats(conns[0])
metrics(conns[0])
conns += [socket.create_connection(("127.0.0.1", port), timeout=10)
          for _ in range(19)]
time.sleep(0.5)  # the server accepts what it can and runs out of fds

before = cpu_seconds()
time.sleep(2.0)
used = cpu_seconds() - before
print(f"cpu over 2 s with queued connections: {used:.2f} s")
assert used < 0.5, f"server spun while out of fds: {used:.2f} s of CPU"

# The first connection was accepted first, so it can be answered now.
gauge = [l for l in metrics(conns[0]).splitlines()
         if l.startswith("rsat_serve_open_conns ")]
assert gauge, "metrics scrape lacks rsat_serve_open_conns"
open_conns = float(gauge[0].split()[1])
print(f"open connections while out of fds: {open_conns:.0f}")
assert open_conns < 20, f"{open_conns} connections open under a 16-fd limit"

last = conns[-1]
for c in conns[:-1]:
    c.close()
start = time.monotonic()
last.settimeout(3.0)
stats(last)
elapsed = time.monotonic() - start
print(f"last queued connection answered in {elapsed:.2f} s")
assert elapsed < 3.0, f"answered after {elapsed:.2f} s"
last.close()
PY

kill -INT "$SERVER_PID" || fail "cannot signal server"
wait "$SERVER_PID" || fail "server exited nonzero after SIGINT"
SERVER_PID=""
echo "PASS accept_backoff"
