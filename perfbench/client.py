"""Drives a real `rsat serve` process over loopback TCP.

One client thread multiplexes up to four connections with `selectors`;
every connection keeps a fixed window of outstanding requests (a closed
loop: the next request goes out only after an earlier one returned).
Server CPU time and peak RSS come from /proc, registry counters from the
`metrics` verb, so nothing here needs hooks inside the server.
"""

import collections
import gc
import os
import re
import selectors
import signal
import socket
import subprocess
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    pass


class Server:
    """One `rsat serve` child bound to an ephemeral loopback port."""

    def __init__(self, rsat, workdir, threads=4, cache_dir=None):
        self.rsat = rsat
        self.workdir = workdir
        self.threads = threads
        self.cache_dir = cache_dir
        self.proc = None
        self.port = None

    def start(self, timeout=30.0):
        """Spawns the server and returns the seconds until it answered its
        first `stats` line (the set-up time users wait for)."""
        port_file = os.path.join(self.workdir, "port")
        if os.path.exists(port_file):
            os.unlink(port_file)
        cmd = [self.rsat, "serve", "--host", "127.0.0.1", "--port", "0",
               "--port-file", port_file, "--threads", str(self.threads)]
        if self.cache_dir:
            cmd += ["--cache-dir", self.cache_dir]
        self.stderr = open(os.path.join(self.workdir, "serve.err"), "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=self.stderr)
        deadline = t0 + timeout
        while True:
            if self.proc.poll() is not None:
                raise ServerError("rsat serve exited with %d during start-up"
                                  % self.proc.returncode)
            try:
                with open(port_file) as f:
                    text = f.read().strip()
                if text:
                    self.port = int(text)
                    break
            except (FileNotFoundError, ValueError):
                pass
            if time.perf_counter() > deadline:
                raise ServerError("rsat serve did not publish its port")
            time.sleep(0.0005)
        with self.connect() as conn:
            conn.sendall(b"stats\n")
            line = read_line(conn)
        setup_s = time.perf_counter() - t0
        if not line.startswith("stats "):
            raise ServerError("unexpected reply to stats: %r" % line[:80])
        return setup_s

    def connect(self):
        conn = socket.create_connection(("127.0.0.1", self.port), timeout=60)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def cpu_seconds(self):
        """User + system CPU of the whole server process (all threads)."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            stat = f.read()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def scrape(self):
        """The registry as {sample name: value}, via the `metrics` verb."""
        with self.connect() as conn:
            conn.sendall(b"metrics\n")
            buf = b""
            while not buf.endswith(b"# EOF\n"):
                chunk = conn.recv(1 << 16)
                if not chunk:
                    raise ServerError("metrics scrape cut short")
                buf += chunk
        return parse_prometheus(buf.decode())

    def stop(self, timeout=30.0):
        """SIGINT (graceful drain), then wait; SIGKILL if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.stderr.close()
        self.proc = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def read_line(conn):
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = conn.recv(4096)
        if not chunk:
            raise ServerError("connection closed before a full line")
        buf += chunk
    return buf.decode().rstrip("\n")


_SAMPLE = re.compile(r'^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{le="([^"]*)"\})? (\S+)$')


def parse_prometheus(text):
    """Samples by name; histogram buckets as name -> {le: cumulative}."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if m is None:
            continue
        name, le, value = m.group(1), m.group(2), float(m.group(3))
        if le is None:
            out[name] = value
        else:
            out.setdefault(name, {})[le] = value
    return out


def delta(before, after, name):
    return after.get(name, 0.0) - before.get(name, 0.0)


def histogram_p50(before, after, family):
    """Median of the observations a histogram got between two scrapes:
    the upper bound of the bucket holding it (log buckets, <= ~9% off)."""
    def ladder(buckets):
        return sorted((float("inf") if le == "+Inf" else float(le), n)
                      for le, n in buckets.items())

    def cumulative(steps, bound):  # sparse ladder: carry the last step
        n = 0.0
        for le, count in steps:
            if le > bound:
                break
            n = count
        return n

    b = ladder(before.get(family + "_bucket", {}))
    a = ladder(after.get(family + "_bucket", {}))
    total = cumulative(a, float("inf")) - cumulative(b, float("inf"))
    if total <= 0:
        return 0.0
    for bound, count in a:
        if count - cumulative(b, bound) >= total / 2:
            return bound
    return a[-1][0]


class _Conn:
    def __init__(self, sock):
        self.sock = sock
        self.out = bytearray()
        self.inbuf = bytearray()
        self.pending = collections.deque()  # (request index, send time ns)


def run_closed_loop(server, requests, connections=1, window=1,
                    timeout_s=170.0):
    """Sends `requests` (protocol lines, no newline) over `connections`
    sockets, each holding at most `window` unanswered requests; request i
    goes to connection i % connections. Returns (results, latencies_ns,
    wall_s) where results[i] is the raw result line of request i."""
    n = len(requests)
    results = [None] * n
    lat = [0] * n
    queues = [collections.deque(range(c, n, connections))
              for c in range(connections)]
    sel = selectors.DefaultSelector()
    conns = []
    for c in range(connections):
        sock = server.connect()
        sock.setblocking(False)
        conn = _Conn(sock)
        conns.append(conn)
        sel.register(sock, selectors.EVENT_READ, (c, conn))

    def refill(c, conn, now):
        q = queues[c]
        while q and len(conn.pending) < window:
            i = q.popleft()
            conn.out += requests[i].encode() + b"\n"
            conn.pending.append((i, now))

    # A collector pause inside the loop would be charged to the server as
    # latency; the loop allocates little, so collect now and pause it.
    gc.collect()
    gc.disable()
    done = 0
    start = time.perf_counter_ns()
    for c, conn in enumerate(conns):
        refill(c, conn, time.perf_counter_ns())
        _flush(sel, conn, c)
    deadline = time.perf_counter() + timeout_s
    try:
        while done < n:
            if time.perf_counter() > deadline:
                raise ServerError("closed loop timed out with %d of %d done"
                                  % (done, n))
            for key, mask in sel.select(timeout=1.0):
                c, conn = key.data
                if mask & selectors.EVENT_WRITE:
                    _flush(sel, conn, c)
                if not mask & selectors.EVENT_READ:
                    continue
                chunk = conn.sock.recv(1 << 18)
                if not chunk:
                    raise ServerError("server closed a connection")
                now = time.perf_counter_ns()
                conn.inbuf += chunk
                got = 0
                while True:
                    nl = conn.inbuf.find(b"\n")
                    if nl < 0:
                        break
                    line = bytes(conn.inbuf[:nl]).decode()
                    del conn.inbuf[:nl + 1]
                    i, sent = conn.pending.popleft()
                    results[i] = line
                    lat[i] = now - sent
                    got += 1
                done += got
                if got:
                    refill(c, conn, time.perf_counter_ns())
                    _flush(sel, conn, c)
        wall_s = (time.perf_counter_ns() - start) / 1e9
    finally:
        gc.enable()
        for conn in conns:
            sel.unregister(conn.sock)
            conn.sock.close()
        sel.close()
    return results, lat, wall_s


def _flush(sel, conn, c):
    if conn.out:
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            sent = 0
        del conn.out[:sent]
    events = selectors.EVENT_READ
    if conn.out:
        events |= selectors.EVENT_WRITE
    sel.modify(conn.sock, events, (c, conn))
