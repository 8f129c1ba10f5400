#!/usr/bin/env python3
"""End-to-end benchmark of `rsat serve`: seeded workloads over loopback TCP.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Builds rsat and the traced replay from the sources next to this
directory (CMake, into .bench_build/), generates the workload's inputs
from --seed, and drives a real `rsat serve` process with one client
thread. Every workload is a closed loop of passes over a fixed request
set; each pass gets a fresh server (so nothing is served from a cache
the pass did not fill itself). The number of passes is fixed by
--seconds and the workload alone, never by how fast the program runs,
so every commit is measured on the same inputs. Every result line is
checked (check.py). The last line of stdout is
one JSON object: with --trace 0 the end-to-end metrics, with --trace 1
the per-layer metrics of one server pass plus the in-process replay
(replay.cpp). WORKLOADS.md says why each workload exists.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the sources

import check  # noqa: E402
import client  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 15


# ------------------------------------------------------------------ build
def build():
    """Configures once, then builds incrementally; returns binary paths."""
    for need in ("src", os.path.join("tools", "rsat.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise SystemExit("perfbench: %s is missing; run from a checkout "
                             "of the repository" % need)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    env = dict(os.environ, TMPDIR=work_root())
    log = open(os.path.join(work_root(), "build.log"), "ab")
    try:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=log, stderr=log, env=env)
        subprocess.run(["cmake", "--build", build_dir, "-j",
                        str(os.cpu_count() or 1)],
                       check=True, stdout=log, stderr=log, env=env)
    except subprocess.CalledProcessError:
        raise SystemExit("perfbench: build failed, see %s" % log.name)
    finally:
        log.close()
    return (os.path.join(build_dir, "rsat"),
            os.path.join(build_dir, "perfbench_replay"))


def work_root():
    path = os.path.join(ROOT, ".bench_work")
    os.makedirs(path, exist_ok=True)
    return path


# ------------------------------------------------------------- workloads
class Workload:
    """name, why, how a pass is made, and how it is served."""

    def __init__(self, name, why, make_pass, pass_s, connections=1,
                 window=1, cache=False, replay_reps=2, threads=4):
        self.name = name
        self.why = why
        self.make_pass = make_pass  # (ctx, pass_no) -> [(line, meta)]
        self.pass_s = pass_s  # a pass's wall time when it was sized
        self.connections = connections
        self.window = window
        self.cache = cache
        self.replay_reps = replay_reps
        self.threads = threads  # server workers

    def pass_numbers(self, seconds):
        """The passes a run of `seconds` makes: as many as fit at the pass
        time measured when the workload was sized, at least two, and the
        last one repeats pass 0 on a fresh server (determinism_check)."""
        n = max(2, round(seconds / self.pass_s))
        return list(range(n - 1)) + [0]


REPLAY_REQUESTS = 20000
REPLAY_WINDOW = 16


def _replay_pass(ctx, pass_no):
    return ctx.mix.stream(pass_no, REPLAY_REQUESTS)


WORKLOADS = {
    w.name: w for w in [
        Workload("minreg-kernels",
                 "SRC search + Theorem-4.2 extension on 20 corpus kernels",
                 lambda ctx, p: wl.minreg_pass(ctx.seed, p), 14.0,
                 replay_reps=1),
        Workload("reduce-random",
                 "figure-1 reduce (greedy) on random 32-48-op DDGs",
                 lambda ctx, p: wl.reduce_pass(ctx.seed, p), 2.7),
        Workload("programs-fanout",
                 "globalreduce jobs=4 on random CFGs: per-block fan-out",
                 lambda ctx, p: wl.programs_pass(ctx.seed, p, ctx.workdir),
                 4.5, replay_reps=1),
        # Two workers: with the client thread and serve's poll thread, four
        # would oversubscribe four cores, and this workload is bound by
        # the poll thread, not by the workers (WORKLOADS.md).
        Workload("serve-replay",
                 "cache-served stream: protocol, fingerprint, store, codec",
                 _replay_pass, 1.75, connections=4, window=REPLAY_WINDOW,
                 cache=True, threads=2),
    ]
}


class Context:
    def __init__(self, args, rsat, replay, workload, workdir):
        self.seed = args.seed
        self.rsat = rsat
        self.replay = replay
        self.workload = workload
        self.workdir = workdir
        self.window = args.window or workload.window
        self.cache_dir = os.path.join(workdir, "cache") if workload.cache else None
        self.mix = wl.ReplayMix(args.seed) if workload.cache else None

    def server(self):
        return client.Server(self.rsat, self.workdir,
                             threads=self.workload.threads,
                             cache_dir=self.cache_dir)

    def warm_disk_tier(self):
        """Untimed: every distinct input once, through a server that
        writes it to the disk tier the measured servers start over."""
        if self.mix is None:
            return
        with self.server() as srv:
            srv.start()
            lines = [line for line, _ in self.mix.distinct]
            results, _, _ = client.run_closed_loop(srv, lines, 4, 16)
        bad = [r for r in results if " status=ok " not in r]
        if bad:
            raise SystemExit("perfbench: warm-up failed: %s" % bad[0][:200])


class PassResult:
    def __init__(self, requests, results, lat_ns, wall_s, cpu_s, rss_mb,
                 before=None, after=None):
        self.requests = requests
        self.results = results
        self.lat_ns = lat_ns
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.before = before
        self.after = after


def run_pass(ctx, pass_no, setups, scrape=False):
    """One fresh server over one pass of the fixed request set."""
    reqs = ctx.workload.make_pass(ctx, pass_no)
    with ctx.server() as srv:
        setups.append(srv.start())
        before = srv.scrape() if scrape else None
        cpu0 = srv.cpu_seconds()
        results, lat, wall = client.run_closed_loop(
            srv, [line for line, _ in reqs], ctx.workload.connections,
            ctx.window)
        cpu = srv.cpu_seconds() - cpu0
        after = srv.scrape() if scrape else None
        rss = srv.peak_rss_mb()
    return PassResult(reqs, results, lat, wall, cpu, rss, before, after)


def extra_setups(ctx, setups):
    while len(setups) < SETUP_SAMPLES:
        with ctx.server() as srv:
            setups.append(srv.start())


# ---------------------------------------------------------------- checks
def check_passes(ctx, passes):
    """(attempted, failed, solved, problems) over every result line."""
    expected = check.load_expected()
    attempted = failed = solved = 0
    problems = []
    first = {}  # input key -> its first answer
    for p in passes:
        for (line, meta), result in zip(p.requests, p.results):
            attempted += 1
            key = meta.get("key")
            got = check.answer(result) if key else None
            if key is not None and first.get(key, got) != got:
                # Renumberings of one input must get one answer.
                errs = ["%s %s: renumbering answered %s, earlier %s"
                        % (key + (got, first[key]))]
            elif key is not None and key in first:
                errs = []  # the same answer as one already checked
            else:
                errs = check.check_result(result, meta)
                if not errs and "kernel" in meta:
                    op = meta.get("op", "minreg")
                    if op != "schedule":
                        errs = check.check_expected(result, op,
                                                    meta["kernel"], expected)
                if key is not None and not errs:
                    first[key] = got
            if errs:
                failed += 1
                problems.extend(errs[:1])
            elif check.solved(result):
                solved += 1
    return attempted, failed, solved, problems


def determinism_check(passes):
    """Two servers given the same request lines must answer with result
    lines identical apart from id=, cached= and ms=. The last pass of a
    run repeats pass 0 on its own server; a traced run has one pass, and
    there the in-process replay is the second run (layers.per_layer)."""
    if len(passes) < 2:
        return []
    for a, b in zip(passes[0].results, passes[-1].results):
        if check.answer(a, check.DELIVERY) != check.answer(b, check.DELIVERY):
            return ["a second server answered %s, the first %s"
                    % (b[:160], a[:160])]
    return []


# --------------------------------------------------------------- metrics
def quantile_hd(sorted_vals, q):
    """Harrell-Davis estimate of the q-quantile: a mean of the order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density, here in
    its normal approximation. Served latencies cluster on serve's 20 ms
    poll ticks, and a single order statistic jumps a whole tick whenever
    the share of requests below one tick crosses q; this estimate moves
    with that share instead (reduce-random, five seeds: the p50 spread
    was 27% from the sample median and 11% from this)."""
    n = len(sorted_vals)
    sd = math.sqrt(q * (1 - q) / (n + 2)) * math.sqrt(2)
    phi = [math.erf((i / n - q) / sd) for i in range(n + 1)]
    return sum(x * (phi[i + 1] - phi[i])
               for i, x in enumerate(sorted_vals)) / (phi[n] - phi[0])


def tail_quantile(n):
    """The highest percentile that still has at least 10 samples beyond
    it (the median when there are fewer than 20), capped at p95. Beyond
    it, serve-replay's tail is decided by the share of requests that
    wait for serve's 20 ms poll tick: its p99 read 11-22 ms across runs
    of the same program, its p95 8.7-12.3 ms."""
    return max(0.5, min(0.95, (n - 10) / n))


def latency_quantile(passes, q):
    """The q-quantile of each pass's latencies, median over passes, so
    that a pass the host slowed counts once, as in throughput_rps."""
    return statistics.median(
        quantile_hd(sorted(x / 1e6 for x in p.lat_ns), q) for p in passes)


def end_to_end(ctx, passes, setups, solved, attempted):
    completed = sum(len(p.results) for p in passes)
    samples = sum(len(p.lat_ns) for p in passes)
    q = tail_quantile(samples)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": (statistics.median(
            len(p.results) / p.wall_s for p in passes), "1/s"),
        "latency_p50_ms": (latency_quantile(passes, 0.5), "ms"),
        "latency_tail_ms": (latency_quantile(passes, q), "ms"),
        "solved_frac": (solved / attempted, "ratio"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
    }
    notes = {"latency_tail_ms": "p%.4g of %d samples" % (100 * q, samples),
             "cpu_s": "per pass of %d requests" % len(passes[0].results),
             "setup_s": "median of %d starts" % len(setups),
             "throughput_rps": "median of %d passes, %d requests"
                               % (len(passes), completed)}
    return metrics, notes


# ------------------------------------------------------------------ main
def run_workload(args, rsat, replay, name):
    workload = WORKLOADS[name]
    workdir = os.path.join(work_root(), "%s-%d" % (name, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        ctx = Context(args, rsat, replay, workload, workdir)
        ctx.warm_disk_tier()
        setups = []
        cpu0 = time.process_time()
        if args.trace:
            passes = [run_pass(ctx, 0, setups, scrape=True)]
        else:
            passes = [run_pass(ctx, n, setups)
                      for n in workload.pass_numbers(args.seconds)]
        client_cpu = time.process_time() - cpu0
        extra_setups(ctx, setups)
        attempted, failed, solved, problems = check_passes(ctx, passes)
        problems += determinism_check(passes)
        if args.trace:
            metrics, notes = layers.per_layer(ctx, passes[0], problems)
        else:
            metrics, notes = end_to_end(ctx, passes, setups, solved,
                                        attempted)
        notes["client"] = "client CPU %.2f s over %d requests" % (
            client_cpu, sum(len(p.results) for p in passes))
        return {"correct": not problems and failed == 0,
                "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()}}, notes, problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(name, result, notes, problems):
    print("== %s: %s" % (name, WORKLOADS[name].why))
    for key, m in result["metrics"].items():
        extra = notes.get(key, "")
        print("  %-36s %14.6g %-6s %s" % (key, m["value"], m["unit"], extra))
    print("  failed_frac %.4f (%d of %d)   %s" % (
        result["failed"] / result["attempted"], result["failed"],
        result["attempted"], notes["client"]))
    for note in [v for k, v in notes.items() if k.startswith("check")]:
        print("  " + note)
    for p in problems[:5]:
        print("  FAIL " + p)


def write_expected(rsat):
    """Regenerates expected.txt: the pinned answers of every corpus-kernel
    request the workloads send, as the program gives them today."""
    workdir = os.path.join(work_root(), "expected-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    reqs = [(line, ("minreg", meta["kernel"]))
            for line, meta in wl.minreg_pass(1, 0)]
    for key, variants in wl.ReplayMix(1, dags=0).keys:
        if key[0] != "schedule":
            reqs.append((variants[0][0], key))
    try:
        with client.Server(rsat, workdir) as srv:
            srv.start()
            results, _, _ = client.run_closed_loop(srv, [r for r, _ in reqs])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(check.EXPECTED_FILE, "w") as f:
        f.write("# <op> <kernel> <pinned answer fields>; regenerate with\n"
                "# python3 perfbench/run.py --write-expected\n")
        for (_, (op, kernel)), result in sorted(zip(reqs, results),
                                                key=lambda r: r[0][1]):
            f.write("%s %s %s\n" % (op, kernel, check.pinned(result)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--write-expected", action="store_true",
                    help="regenerate expected.txt and exit")
    ap.add_argument("--seed", type=int, default=1,
                    help="input seed: 1 is the baseline, 7 the held-out "
                         "seed a claimed gain must also show on")
    ap.add_argument("--seconds", type=float, default=20,
                    help="sets each workload's fixed pass count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--window", type=int, default=0,
                    help="override the per-connection window")
    args = ap.parse_args()
    rsat, replay = build()
    if args.write_expected:
        write_expected(rsat)
        return
    if args.workload is None:
        ap.error("--workload is required")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, notes, problems = run_workload(args, rsat, replay, name)
        report(name, result, notes, problems)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else name + "."
        for key, m in result["metrics"].items():
            combined["metrics"][prefix + key] = m
    sys.stdout.flush()
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
