"""Output checks for result lines, independent of the solvers.

Nothing here imports or calls the program: DDG texts are parsed, walked
and measured with this file's own code. Each check returns a list of
problems (empty when the result is correct).
"""

import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_FILE = os.path.join(HERE, "expected.txt")

# Fields a result line carries that depend on delivery, not on the answer.
DELIVERY = ("id", "cached", "ms")
# Fields that also depend on the requester (names, emitted text).
IDENTITY = DELIVERY + ("name", "ddg")
# The answer fields pinned for corpus kernels.
PINNED = re.compile(r"^(t\d+\.(rs|need|proven|status|arcs)|stop|success)$")


def unescape(value):
    if "%" not in value:
        return value
    return re.sub(r"%([0-9A-F]{2})", lambda m: chr(int(m.group(1), 16)),
                  value)


def fields(line):
    out = {}
    for tok in line.split(" ")[1:]:
        key, _, value = tok.partition("=")
        out[key] = unescape(value)
    return out


def answer(line, drop=IDENTITY):
    """The line without the given fields, as a comparable string."""
    toks = [t for t in line.split(" ") if t.partition("=")[0] not in drop]
    return " ".join(toks)


# ------------------------------------------------------------------- DDGs
class Dag:
    def __init__(self, text):
        self.writes = {}  # op name -> set of types
        self.order = []
        self.arcs = []  # (kind, src, dst, type or None, latency)
        for line in text.splitlines():
            tok = line.split()
            if not tok or tok[0].startswith("#"):
                continue
            kv = dict(t.partition("=")[::2] for t in tok[1:] if "=" in t)
            if tok[0] == "op":
                self.order.append(tok[1])
                w = kv.get("writes")
                self.writes[tok[1]] = set(int(x) for x in w.split(",")) if w else set()
            elif tok[0] in ("flow", "serial"):
                typ = int(kv["type"]) if tok[0] == "flow" else None
                self.arcs.append((tok[0], tok[1], tok[2], typ, int(kv["lat"])))

    def values(self, typ):
        return sum(1 for w in self.writes.values() if typ in w)

    def topo(self):
        """Kahn order, or None when the arcs close a circuit."""
        indeg = {v: 0 for v in self.order}
        succ = {v: [] for v in self.order}
        for _, s, d, _, lat in self.arcs:
            succ[s].append((d, lat))
            indeg[d] += 1
        ready = [v for v in self.order if indeg[v] == 0]
        out = []
        while ready:
            v = ready.pop()
            out.append(v)
            for d, _ in succ[v]:
                indeg[d] -= 1
                if indeg[d] == 0:
                    ready.append(d)
        return out if len(out) == len(self.order) else None

    def critical_path(self):
        """Longest arc-latency path (the program's critical path)."""
        order = self.topo()
        dist = {v: 0 for v in self.order}
        succ = {v: [] for v in self.order}
        for _, s, d, _, lat in self.arcs:
            succ[s].append((d, lat))
        for v in order:
            for d, lat in succ[v]:
                dist[d] = max(dist[d], dist[v] + lat)
        return max(dist.values()) if dist else 0


def check_emitted(sent, emitted):
    """The emitted DAG keeps every input arc and is acyclic."""
    problems = []
    out = Dag(emitted)
    have = set(out.arcs)
    for arc in Dag(sent).arcs:
        if arc not in have:
            problems.append("emitted DAG lost arc %s" % (arc,))
            break
    if out.topo() is None:
        problems.append("emitted DAG has a circuit")
    return problems


def types_of(f):
    return sorted({int(k[1:k.index(".")]) for k in f
                   if re.match(r"^t\d+\.", k)})


def check_values(f, dag):
    """t<k>.vals equals this file's own count of value-writing ops."""
    problems = []
    for t in types_of(f):
        if "t%d.vals" % t in f and int(f["t%d.vals" % t]) != dag.values(t):
            problems.append("t%d.vals=%s but the input writes %d values"
                            % (t, f["t%d.vals" % t], dag.values(t)))
    return problems


def check_limits(f, limits, prefix=""):
    problems = []
    for t, limit in enumerate(limits):
        status = f.get("%st%d.status" % (prefix, t))
        if status in ("fits", "reduced") and int(f["%st%d.rs" % (prefix, t)]) > limit:
            problems.append("%st%d.rs=%s above its limit %d"
                            % (prefix, t, f["%st%d.rs" % (prefix, t)], limit))
    return problems


def check_result(line, meta):
    """All checks that apply to one result line and its request."""
    if line is None or not line.startswith("result "):
        return ["no result line: %r" % (line or "")[:120]]
    f = fields(line)
    if f.get("status") != "ok":
        return ["request failed: %s" % f.get("msg", line[:200])]
    if f.get("stop") in ("timeout", "cancelled"):
        return ["request stopped by %s" % f["stop"]]
    kind = f.get("kind")
    problems = []
    dag = Dag(meta["ddg"]) if "ddg" in meta else None
    if dag is not None:
        problems += check_values(f, dag)
    if kind in ("reduce", "minreg") and "ddg" in f:
        problems += check_emitted(meta["ddg"], f["ddg"])
        if kind == "minreg" and not problems:
            cp = Dag(f["ddg"]).critical_path()
            if int(f["cp"]) != cp:
                problems.append("cp=%s but the emitted DAG's critical path "
                                "is %d" % (f["cp"], cp))
    if "limits" in meta:
        if kind == "globalreduce":
            limits = [l - meta["margin"] for l in meta["limits"]]
            for b in range(int(f["blocks"])):
                problems += check_limits(f, limits, "b%d." % b)
        else:
            problems += check_limits(f, meta["limits"])
    if "prog" in meta and kind == "globalreduce":
        blocks = meta["prog"].count("\nblock ")
        if int(f["blocks"]) != blocks:
            problems.append("blocks=%s but the program has %d"
                            % (f["blocks"], blocks))
    return problems


def solved(line):
    """stop=proven and every per-type proven=/all_proven= flag is 1."""
    return (" status=ok " in line and " stop=proven " in line
            and ".proven=0" not in line and " all_proven=0" not in line)


def load_expected():
    """{(op, kernel): pinned answer string} from expected.txt."""
    out = {}
    with open(EXPECTED_FILE) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                op, kernel, rest = line.split(" ", 2)
                out[(op, kernel)] = rest
    return out


def pinned(line):
    f = fields(line)
    return " ".join("%s=%s" % (k, f[k]) for k in f if PINNED.match(k))


def check_expected(line, op, kernel, expected):
    want = expected.get((op, kernel))
    if want is None:
        return ["no expected answer for %s %s" % (op, kernel)]
    got = pinned(line)
    if got != want:
        return ["%s %s answered %s, expected %s" % (op, kernel, got, want)]
    return []
