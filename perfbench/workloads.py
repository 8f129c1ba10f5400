"""Seeded input generation for the four workloads.

Everything the server receives is made here from the --seed argument:
renamings of the committed corpus kernels, random DDGs, random programs
and the order requests go out in. The generators are this benchmark's
own (ports of the shapes in src/ddg/generators.cpp and
src/cfg/generators.cpp), so a change to the library's generators cannot
silently change the workload a later change is measured on.
"""

import hashlib
import math
import os
import random

# Superscalar machine model (src/ddg/machine.cpp): class -> latency.
LATENCY = {"ialu": 1, "load": 3, "store": 1, "fadd": 3, "fmul": 4,
           "fdiv": 17, "flong": 25, "br": 1, "nop": 0}
INT, FLOAT = 0, 1

HERE = os.path.dirname(os.path.abspath(__file__))
KERNEL_DIR = os.path.join(HERE, "kernels")

# The minreg corpus: every kernel except fir8, liv-loop7, liv-loop9,
# whet-p8 and estrin8, each of which takes more than 4 s alone.
MINREG_KERNELS = [
    "lin-ddot", "lin-daxpy", "lin-dscal", "liv-loop1", "liv-loop5",
    "liv-loop23", "whet-p3", "spec-spice", "spec-tomcatv", "spec-dod",
    "matmul-u4", "horner8", "complex-mul2", "liv-loop2", "liv-loop4",
    "liv-loop11", "liv-loop12", "lin-dgefa", "fft-bfly", "stencil3-u2",
]

# serve-replay's built-in-kernel payloads (kernel=<name>).
REPLAY_KERNELS = ["lin-ddot", "lin-daxpy", "lin-dscal", "liv-loop1",
                  "liv-loop5", "whet-p3", "spec-dod", "spec-spice",
                  "complex-mul2", "liv-loop12", "fft-bfly", "matmul-u4"]
REPLAY_KERNEL_OPS = ("analyze", "schedule", "reduce limits=8,8")


def rng_for(seed, *stream):
    """An independent, reproducible stream per (seed, purpose)."""
    key = "/".join(str(s) for s in (seed,) + stream).encode()
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8],
                                        "big"))


def escape(raw):
    """The protocol's %XX escaping (src/service/protocol.hpp)."""
    return (raw.replace("%", "%25").replace(" ", "%20")
            .replace("\t", "%09").replace("\r", "%0D").replace("\n", "%0A"))


def read_kernel(name):
    with open(os.path.join(KERNEL_DIR, name + ".ddg")) as f:
        return f.read()


# ------------------------------------------------------------------ DDGs
def _random_ops(rng, n_ops, value_prob):
    ops = []
    for _ in range(n_ops):
        if rng.random() < value_prob:
            cls = rng.choice(("load", "fadd", "fmul", "ialu", "fadd"))
            ops.append((cls, INT if cls == "ialu" else FLOAT))
        else:
            ops.append(("store", None))
    return ops


def random_dag(rng, n_ops, name, floats=None, edge_prob=0.25,
               value_prob=0.75, flow_prob=0.85):
    """Erdos-Renyi DAG over ops n0..n{k-1} in topological order, isolated
    ops chained by serial arcs (the shape of ddg::random_dag). With
    `floats`, the op classes are redrawn until exactly that many ops write
    a float value: a draw conditioned on the float count."""
    ops = _random_ops(rng, n_ops, value_prob)
    while floats is not None and sum(t == FLOAT for _, t in ops) != floats:
        ops = _random_ops(rng, n_ops, value_prob)
    lines = ["ddg %s types=2" % name]
    for i, (cls, typ) in enumerate(ops):
        writes = "" if typ is None else " writes=%d" % typ
        lines.append("op n%d class=%s lat=%d dr=0 dw=0%s"
                     % (i, cls, LATENCY[cls], writes))
    connected = [False] * n_ops
    for i in range(n_ops):
        cls, typ = ops[i]
        for j in range(i + 1, n_ops):
            if rng.random() >= edge_prob:
                continue
            if typ is not None and rng.random() < flow_prob:
                lines.append("flow n%d n%d type=%d lat=%d"
                             % (i, j, typ, LATENCY[cls]))
            else:
                lines.append("serial n%d n%d lat=%d"
                             % (i, j, rng.randint(0, LATENCY[cls])))
            connected[i] = connected[j] = True
    prev = -1
    for i in range(n_ops):
        if not connected[i] and prev >= 0:
            lines.append("serial n%d n%d lat=0" % (prev, i))
        prev = i
    return "\n".join(lines) + "\n"


def renumber(text, rng, keep_order=False):
    """A seeded renumbering of a .ddg text: every op gets a fresh name and
    the op and arc lines are shuffled. With keep_order the declaration
    order (the node numbering the solvers iterate in) is kept and only
    the names change."""
    head, ops, arcs = None, [], []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if line.startswith("ddg "):
            head = line.split()
        elif line.startswith("op "):
            ops.append(line.split())
        else:
            arcs.append(line.split())
    fresh = rng.sample(range(10 * len(ops) + 100), len(ops))
    names = {op[1]: "o%d" % k for op, k in zip(ops, fresh)}
    for op in ops:
        op[1] = names[op[1]]
    for arc in arcs:
        arc[1], arc[2] = names[arc[1]], names[arc[2]]
    head = [("bottom=" + names[t[7:]]) if t.startswith("bottom=") else t
            for t in head]
    if not keep_order:
        rng.shuffle(ops)
        rng.shuffle(arcs)
    return "\n".join(" ".join(t) for t in [head] + ops + arcs) + "\n"


# -------------------------------------------------------------- programs
class _Program:
    def __init__(self, name):
        self.name = name
        self.blocks = []  # (block name, [statement lines])
        self.edges = []

    def block(self, name):
        self.blocks.append((name, []))
        return len(self.blocks) - 1

    def define(self, b, val, cls, typ, uses):
        self.blocks[b][1].append("def %s class=%s type=%d uses=%s"
                                 % (val, cls, typ, ",".join(uses)))

    def use(self, b, cls, uses):
        self.blocks[b][1].append("use class=%s uses=%s"
                                 % (cls, ",".join(uses)))

    def text(self):
        lines = ["prog " + self.name]
        for name, stmts in self.blocks:
            lines.append("block " + name)
            lines.extend(stmts)
        lines.extend("edge %s %s" % e for e in self.edges)
        return "\n".join(lines) + "\n"


def _fill_block(p, rng, b, prefix, inherited, ops, float_prob=0.7,
                cross_prob=0.5):
    local = []
    inputs = [0]

    def operand(want):
        if inherited and rng.random() < cross_prob:
            start = rng.randrange(len(inherited))
            for k in range(len(inherited)):
                name, typ = inherited[(start + k) % len(inherited)]
                if typ == want:
                    return name
        if local and rng.random() < 0.6:
            start = rng.randrange(len(local))
            for k in range(len(local)):
                name, typ = local[(start + k) % len(local)]
                if typ == want:
                    return name
        inputs[0] += 1
        return "%s.in%d" % (prefix, inputs[0] - 1)

    for i in range(ops):
        name = "%s.v%d" % (prefix, i)
        if rng.random() < float_prob:
            pick = rng.randint(0, 3)
            if pick == 0:
                p.define(b, name, "load", FLOAT, [operand(INT)])
            else:
                cls = ("fadd", "fmul", "fdiv")[pick - 1]
                p.define(b, name, cls, FLOAT,
                         [operand(FLOAT), operand(FLOAT)])
            local.append((name, FLOAT))
        else:
            p.define(b, name, "ialu", INT, [operand(INT), operand(INT)])
            local.append((name, INT))
    p.use(b, "store", [local[-1][0], operand(INT)])
    return local


def random_chain(rng, name, blocks, ops):
    p = _Program(name)
    pool = []
    for i in range(blocks):
        b = p.block("b%d" % i)
        if i:
            p.edges.append(("b%d" % (i - 1), "b%d" % i))
        pool += _fill_block(p, rng, b, "b%d" % i, pool, ops)
    return p.text()


def random_switch(rng, name, cases, ops):
    """entry -> case0..case{n-1} -> join (cases=2 is the diamond)."""
    p = _Program(name)
    entry = p.block("entry")
    entry_vals = _fill_block(p, rng, entry, "entry", [], ops)
    join = p.block("join")
    arms = []
    for c in range(cases):
        b = p.block("case%d" % c)
        p.edges += [("entry", "case%d" % c), ("case%d" % c, "join")]
        arms.append(_fill_block(p, rng, b, "case%d" % c, entry_vals, ops))
    inherited = list(entry_vals)
    merged = 0
    for a in range(0, len(arms) - 1, 2):
        (x, xt), (y, yt) = arms[a][-1], arms[a + 1][-1]
        if xt == yt:
            m = "join.m%d" % merged
            merged += 1
            p.define(join, m, "fadd" if xt == FLOAT else "ialu", xt, [x, y])
            inherited.append((m, xt))
        else:
            p.use(join, "store", [x, y])
    if len(arms) % 2:
        inherited.append(arms[-1][-1])
    _fill_block(p, rng, join, "join", inherited, ops)
    return p.text()


# ------------------------------------------------------------- workloads
def minreg_pass(seed, pass_no):
    """One pass over the 20 kernels, each renamed by the seed.

    The renaming keeps declaration order: the SRC search walks nodes in
    that order, so a reordered copy explores a different tree (measured:
    liv-loop1 151k vs 1.7M nodes) and may freeze a different witness
    (t0.arcs differs on spec-spice, spec-dod, liv-loop2 and stencil3-u2;
    horner8's capped need moves). Keeping it makes the search work and
    the answers a function of the kernel alone."""
    rng = rng_for(seed, "minreg", pass_no)
    order = list(MINREG_KERNELS)
    rng.shuffle(order)
    reqs = []
    for k in order:
        text = renumber(read_kernel(k), rng, keep_order=True)
        reqs.append(("minreg ddg=%s name=%s emit=1" % (escape(text), k),
                     {"kernel": k, "ddg": text}))
    return reqs


REDUCE_SIZES = range(32, 49)
FLOAT_PROB = 0.75 * 4 / 5  # random_dag: a value op, and not an ialu


def binomial_quantile(n, p, u):
    """Smallest k with P(Binomial(n, p) <= k) >= u."""
    acc = 0.0
    for k in range(n + 1):
        acc += math.comb(n, k) * p ** k * (1 - p) ** (n - k)
        if acc >= u:
            return k
    return n


def reduce_pass(seed, pass_no, per_size=2):
    """Random DDGs of every size 32..48 (per_size each), in seeded order.

    The pass is a stratified sample: the float-value count, which decides
    whether a DAG fits 16 registers at once or needs a long reduction, is
    spread evenly over its distribution (one stratum per DAG, strata
    shuffled across sizes) instead of drawn freely. Each DAG is still a
    random_dag draw given its size and float count, so the inputs follow
    the same distribution, but two seeds no longer differ by how many hard
    DAGs they happened to draw."""
    rng = rng_for(seed, "reduce", pass_no)
    sizes = [n for n in REDUCE_SIZES for _ in range(per_size)]
    rng.shuffle(sizes)
    strata = list(range(len(sizes)))
    rng.shuffle(strata)
    reqs = []
    for i, (n, k) in enumerate(zip(sizes, strata)):
        name = "rr%d.%d" % (pass_no, i)
        u = (k + rng.random()) / len(sizes)
        text = random_dag(rng, n, name,
                          floats=binomial_quantile(n, FLOAT_PROB, u))
        reqs.append(("reduce ddg=%s name=%s engine=greedy limits=16,16 emit=1"
                     % (escape(text), name), {"ddg": text, "limits": [16, 16]}))
    return reqs


PROGRAM_SHAPES = ("chain4", "diamond", "switch3")


def programs_pass(seed, pass_no, workdir, per_shape=5):
    """Random programs (chain of 4, diamond, switch of 3; 12 ops per
    block) written as .prog files, sent as globalreduce file= payloads."""
    rng = rng_for(seed, "programs", pass_no)
    shapes = [s for s in PROGRAM_SHAPES for _ in range(per_shape)]
    rng.shuffle(shapes)
    reqs = []
    for i, shape in enumerate(shapes):
        name = "p%d.%d" % (pass_no, i)
        if shape == "chain4":
            text = random_chain(rng, name, 4, 12)
        else:
            text = random_switch(rng, name, 2 if shape == "diamond" else 3, 12)
        path = os.path.join(workdir, name + ".prog")
        with open(path, "w") as f:
            f.write(text)
        reqs.append(("globalreduce file=%s limits=8,8 jobs=4" % path,
                     {"prog": text, "limits": [8, 8], "margin": 1}))
    return reqs


class ReplayMix:
    """serve-replay's inputs: analyze, schedule and `reduce limits=8,8` on
    corpus kernels (kernel= payloads) plus analyze and schedule on seeded
    10-16-op random DDGs, each sent as ddg= in several seeded
    renumberings. `distinct` is one request per distinct (op, input) key,
    the warm-up that fills the disk tier; stream() draws a pass from it."""

    def __init__(self, seed, dags=150, renumberings=3):
        rng = rng_for(seed, "replay", "inputs")
        self.seed = seed
        self.keys = []  # (key, [(line, meta) per renumbering])
        for k in REPLAY_KERNELS:
            meta = {"kernel": k, "ddg": read_kernel(k)}
            for op in REPLAY_KERNEL_OPS:
                extra = {"limits": [8, 8]} if op.startswith("reduce") else {}
                verb, _, opts = op.partition(" ")
                line = ("%s kernel=%s %s" % (verb, k, opts)).rstrip()
                self.keys.append(((verb, k), [(line, dict(meta, op=verb,
                                                          **extra))]))
        for i in range(dags):
            name = "sr%d" % i
            text = random_dag(rng, rng.randint(10, 16), name)
            copies = [renumber(text, rng) for _ in range(renumberings)]
            for verb in ("analyze", "schedule"):
                self.keys.append(((verb, name), [
                    ("%s ddg=%s name=%s" % (verb, escape(c), name),
                     {"ddg": c, "op": verb}) for c in copies]))
        self.distinct = [variants[0] for _, variants in self.keys]

    def stream(self, pass_no, requests, fresh_frac=0.01):
        """`requests` lines: uniform draws over the distinct keys in a
        seeded renumbering each, plus fresh_frac never-seen DDGs that miss
        both tiers. Fresh inputs are new per pass, so they miss again on
        the next server even though the disk tier keeps them."""
        rng = rng_for(self.seed, "replay", "stream", pass_no)
        fresh = max(1, int(requests * fresh_frac))
        out = []
        for _ in range(requests - fresh):
            key, variants = self.keys[rng.randrange(len(self.keys))]
            line, meta = variants[rng.randrange(len(variants))]
            out.append((line, dict(meta, key=key)))
        for i in range(fresh):
            name = "sf%d.%d" % (pass_no, i)
            text = random_dag(rng, rng.randint(10, 16), name)
            verb = ("analyze", "schedule")[i % 2]
            out.insert(rng.randrange(len(out) + 1),
                       ("%s ddg=%s name=%s" % (verb, escape(text), name),
                        {"ddg": text, "op": verb, "key": (verb, name)}))
        return out
