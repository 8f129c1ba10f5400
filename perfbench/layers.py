"""Per-layer metrics for --trace 1.

Two sources, both outside the server's timed window:
  * deltas of the server's own registry (the `metrics` verb scraped before
    and after the pass) give the counts: solver.*, store.*, pool.*,
    engine.* and op.*.parallel_blocks, plus nodes= from the result lines;
  * the in-process replay (replay.cpp) of the same request lines gives a
    span around every entry point, from which come the p50 cost per call
    and each layer's self time.
Layer names are the source modules: service.protocol is
src/service/protocol.*, core.killing is src/core/killing.*, and so on.
"""

import collections
import json
import os
import statistics
import subprocess

import check
import client

# Spans whose work is the request's solve (the op's solver entry).
SOLVER_PREFIXES = ("core.", "cfg.global_rs.", "sched.")

# Expected share of solver self time in the replay pipeline, per workload.
SPLIT = {"minreg-kernels": (50, 100), "reduce-random": (50, 100),
         "programs-fanout": (50, 100), "serve-replay": (0, 10)}

# (metric, span name, scale to the unit) for p50-per-call timings.
TIMINGS = [
    ("service.protocol.render_us", "service.protocol.render", 1e-3),
    ("service.store.mem_get_us", "service.store.get.mem", 1e-3),
    ("service.store.disk_get_us", "service.store.get.disk", 1e-3),
    ("service.codec.encode_us", "service.codec.encode", 1e-3),
    ("service.codec.decode_us", "service.codec.decode", 1e-3),
    ("ddg.io.parse_us", "ddg.io.parse", 1e-3),
    ("ddg.canon.fingerprint_us", "ddg.canon.fingerprint", 1e-3),
    ("cfg.io.parse_us", "cfg.io.parse", 1e-3),
    ("cfg.canon.fingerprint_us", "cfg.canon.fingerprint", 1e-3),
    ("cfg.global_rs.ensure_limits_ms", "cfg.global_rs.ensure_limits", 1e-6),
    ("core.context.build_us", "core.context.build", 1e-3),
    ("graph.paths.longest_us", "graph.paths.longest", 1e-3),
    ("graph.antichain.max_us", "graph.antichain.max", 1e-3),
    ("core.greedy_k.ms", "core.greedy_k", 1e-6),
    ("core.rs_exact.ms", "core.rs_exact", 1e-6),
    ("core.killing.need_us", "core.killing.need", 1e-3),
    ("core.reduce.greedy_ms", "core.reduce.greedy", 1e-6),
    ("core.saturation.ensure_limits_ms", "core.saturation.ensure_limits",
     1e-6),
    ("core.min_reg.ms", "core.min_reg.minimize", 1e-6),
    ("core.reduce.extend_us", "core.reduce.extend", 1e-3),
]

# (metric, registry counter) deltas over the pass.
COUNTS = [
    ("service.engine.coalesced", "rsat_engine_coalesced_total"),
    ("service.store.evictions", "rsat_store_mem_evictions_total"),
    ("cfg.global_rs.blocks_parallel",
     "rsat_op_globalreduce_parallel_blocks_total"),
    ("core.greedy_k.trials", "rsat_solver_greedy_trials_total"),
    ("core.rs_exact.expansions", "rsat_solver_exact_expansions_total"),
    ("core.reduce.rounds", "rsat_solver_reduce_rounds_total"),
    ("core.reduce.candidates", "rsat_solver_reduce_candidates_total"),
]

# Layers whose self-time share is reported (span-name prefixes).
SHARE_LAYERS = ["service.protocol", "ddg.io", "ddg.canon", "cfg.io",
                "cfg.canon", "service.store", "core", "replay"]

UNITS = {"_per_s": "1/s", "_us": "us", "_ms": "ms", "_s": "s",
         "_frac": "ratio", "_bytes": "bytes"}


def unit_of(name):
    if "_pct" in name:
        return "%"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix) or name.endswith("." + suffix[1:]):
            return unit
    return "count"


def names():
    """Every per-layer metric name, in report order."""
    out = ["service.serve.overhead_us", "service.protocol.parse_us"]
    out += [m for m, _, _ in TIMINGS]
    out += ["service.store.disk_put_us", "service.codec.payload_bytes",
            "service.engine.hit_frac", "service.store.mem_hit_frac",
            "service.store.disk_hit_frac", "support.thread_pool.queue_wait_ms",
            "support.thread_pool.task_ms", "core.src_solver.nodes",
            "core.src_solver.nodes_per_s"]
    out += [m for m, _ in COUNTS]
    out += ["trace.self_pct." + layer for layer in SHARE_LAYERS]
    out += ["trace.overhead_pct", "trace.spans"]
    return out


def _p50(values):
    return statistics.median(values) if values else 0.0


def _frac(num, den):
    return num / den if den > 0 else 0.0


def server_side(p):
    """Registry deltas and client-minus-server latency of the pass."""
    b, a = p.before, p.after
    d = lambda name: client.delta(b, a, name)  # noqa: E731
    out = {m: d(c) for m, c in COUNTS}
    completed = d("rsat_engine_completed_total")
    out["service.engine.hit_frac"] = _frac(
        d("rsat_engine_memory_hits_total") + d("rsat_engine_disk_hits_total")
        + d("rsat_engine_coalesced_total"), completed)
    mem_hits = d("rsat_store_mem_hits_total")
    out["service.store.mem_hit_frac"] = _frac(
        mem_hits, mem_hits + d("rsat_store_mem_misses_total"))
    disk_hits = d("rsat_store_disk_hits_total")
    out["service.store.disk_hit_frac"] = _frac(
        disk_hits, disk_hits + d("rsat_store_disk_misses_total"))
    out["support.thread_pool.queue_wait_ms"] = client.histogram_p50(
        b, a, "rsat_pool_queue_wait_ms")
    out["support.thread_pool.task_ms"] = client.histogram_p50(
        b, a, "rsat_pool_task_ms")
    overhead, nodes = [], 0
    for result, lat in zip(p.results, p.lat_ns):
        f = check.fields(result)
        overhead.append(lat / 1e3 - float(f["ms"]) * 1e3)
        if f.get("kind") == "minreg":
            nodes += int(f["nodes"])
    out["service.serve.overhead_us"] = _p50(overhead)
    out["core.src_solver.nodes"] = nodes
    return out


def run_replay(ctx, p):
    """Runs replay.cpp over the pass; returns (spans, summary, lines)."""
    lines_file = os.path.join(ctx.workdir, "replay.lines")
    with open(lines_file, "w") as f:
        f.writelines(line + "\n" for line, _ in p.requests)
    cmd = [ctx.replay, "--lines", lines_file,
           "--spans", os.path.join(ctx.workdir, "spans.tsv"),
           "--results", os.path.join(ctx.workdir, "replay.results"),
           "--reps", str(ctx.workload.replay_reps)]
    if ctx.mix is not None:
        warm = os.path.join(ctx.workdir, "replay.warm")
        with open(warm, "w") as f:
            f.writelines(line + "\n" for line, _ in ctx.mix.distinct)
        cmd += ["--warm", warm,
                "--cache-dir", os.path.join(ctx.workdir, "replay-cache")]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=170)
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    spans = []
    with open(os.path.join(ctx.workdir, "spans.tsv")) as f:
        next(f)
        for row in f:
            i, name, start, end, parent, req, dup, count = row.split("\t")
            spans.append((name, int(start), int(end), int(parent), int(req),
                          dup == "1", int(count)))
    with open(os.path.join(ctx.workdir, "replay.results")) as f:
        results = f.read().splitlines()
    return spans, summary, results


def replay_side(spans, summary, cache):
    out = {}
    durs = collections.defaultdict(list)
    counts = collections.defaultdict(list)
    io_parse = {}
    for name, start, end, parent, req, dup, count in spans:
        durs[name].append(end - start)
        if count >= 0:
            counts[name].append(count)
        if name in ("ddg.io.parse", "cfg.io.parse"):
            io_parse[req] = (_layer(name), end - start)
    for metric, span, scale in TIMINGS:
        out[metric] = _p50(durs[span]) * scale
    # The whole parse_command_line call, payload text parse included
    # (ddg.io.parse_us / cfg.io.parse_us time that part alone).
    out["service.protocol.parse_us"] = _p50(
        durs["service.protocol.parse"]) * 1e-3
    out["service.store.disk_put_us"] = (
        _p50(durs["service.store.put"]) * 1e-3 if cache else 0.0)
    out["service.codec.payload_bytes"] = _p50(counts["service.codec.encode"])
    feasible_ns = sum(durs["core.src_solver.feasible"])
    out["core.src_solver.nodes_per_s"] = _frac(
        sum(counts["core.src_solver.feasible"]), feasible_ns / 1e9)

    # Self time: a span's duration minus its children's. Dup spans repeat
    # work another span already contains, so they leave the total; the
    # payload parse inside parse_command_line moves from the protocol's
    # share to the io layer's.
    children = collections.defaultdict(int)
    for name, start, end, parent, req, dup, count in spans:
        if parent >= 0:
            children[parent] += end - start
    share = collections.defaultdict(int)
    total = 0
    for i, (name, start, end, parent, req, dup, count) in enumerate(spans):
        if dup or _root_of(spans, i) == "probe":
            continue
        self_ns = end - start - children[i]
        if name == "service.protocol.parse" and req in io_parse:
            io_layer, io_ns = io_parse[req]
            self_ns -= io_ns
            share[io_layer] += io_ns
            total += io_ns
        share[_layer(name)] += self_ns
        total += self_ns
    for layer in SHARE_LAYERS:
        out["trace.self_pct." + layer] = 100.0 * _frac(share[layer], total)
    on, off = summary["on_ns"], summary["off_ns"]
    out["trace.overhead_pct"] = 100.0 * (_p50(on) - _p50(off)) / _p50(off)
    out["trace.spans"] = len(spans)
    return out


def _root_of(spans, i):
    while spans[i][3] >= 0:
        i = spans[i][3]
    return spans[i][0]


def _layer(name):
    if name == "request":
        return "replay"
    if name.startswith(SOLVER_PREFIXES):
        return "core"
    return ".".join(name.split(".")[:2])


def per_layer(ctx, p, problems):
    """(metrics, notes) for the traced run; appends to problems when the
    replay answers differently from the server or the solver's share of
    the pipeline is outside the workload's expected split."""
    metrics = server_side(p)
    spans, summary, replayed = run_replay(ctx, p)
    metrics.update(replay_side(spans, summary, ctx.mix is not None))
    for served, local in zip(p.results, replayed):
        if check.answer(served, check.DELIVERY) != check.answer(
                local, check.DELIVERY):
            problems.append("in-process replay answered %s, server %s"
                            % (local[:160], served[:160]))
            break
    lo, hi = SPLIT[ctx.workload.name]
    core = metrics["trace.self_pct.core"]
    ok = lo <= core <= hi
    split = ("split %s: solver self time %.1f%% of replay pipeline time "
             "(expected %d-%d%%)" % ("PASS" if ok else "FAIL", core, lo, hi))
    if not ok:
        problems.append(split)
    notes = {"check.split": split,
             "check.probes": "%d probes stopped at a node or round cap"
                             % summary["probes_capped"],
             "trace.overhead_pct": "on %s ns vs off %s ns"
                                   % (summary["on_ns"], summary["off_ns"])}
    ordered = {name: (metrics[name], unit_of(name)) for name in names()}
    return ordered, notes
