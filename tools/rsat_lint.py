#!/usr/bin/env python3
"""rsat_lint: repo-specific invariant linter for the rsat tree.

The clang thread-safety analysis (support/thread_annotations.hpp) proves
lock discipline, but only over mutexes it can see and only on clang. This
linter enforces the repo conventions that make that analysis — and the
repo's determinism and observability contracts — hold by construction:

  raw-clock       Clock reads (steady_clock::now, system_clock::now,
                  time(), gettimeofday, clock_gettime, ...) are allowed
                  only under src/support/ (timer.hpp, solve_context, ...).
                  Everything else takes time through support::Timer /
                  support::unix_now_seconds / SolveContext, so tests can
                  reason about where wall-clock nondeterminism enters.

  bare-mutex      std::mutex / std::lock_guard / std::unique_lock /
                  std::scoped_lock / std::condition_variable (and their
                  headers) are allowed only in src/support/mutex.hpp.
                  A bare std::mutex is invisible to -Wthread-safety; the
                  annotated support::Mutex / LockGuard / UniqueLock /
                  CondVar wrappers are the only lock vocabulary in src/
                  and in the tools/*.cpp front ends.

  unseeded-rng    rand()/srand()/std::random_device/std::mt19937 are
                  allowed only in src/support/random.*. Results in this
                  repo must be byte-identical across runs and platforms;
                  all randomness flows through the seeded splitmix64
                  generator.

  metric-literal  Metric-name string literals ("engine.*", "op.*",
                  "store.*", "pool.*", "serve.*", "solver.*", "slo.*"),
                  and trace-event keys (phases and input features) may
                  appear only in their subsystem's single
                  registration/render site. One site per name means
                  grep-for-the-literal finds the writer, and a renamed
                  metric cannot silently fork into two spellings.

  iostream        #include <iostream> is banned in src/ (library code).
                  Library layers report through return values, metrics,
                  and trace events; only the CLI (tools/rsat.cpp) talks
                  to std streams.

Scope: every .hpp/.cpp under <root>/src, plus <root>/tools/*.cpp for the
TOOL_RULES below (front ends talk to std streams and may spell metric
names, so only the lock rule reaches them). Comments are stripped before
matching, and string/char literal contents are blanked for all rules
except metric-literal (which matches inside string literals on purpose).

Suppression: append `// rsat-lint: allow(<rule>) <justification>` to the
offending line (or the line directly above it). The justification is
mandatory — an allow() with nothing after it is itself an error — so
every exemption in the tree documents why it is sound.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

RULES = ("raw-clock", "bare-mutex", "unseeded-rng", "metric-literal",
         "iostream")

# The rules that also cover tools/*.cpp.
TOOL_RULES = ("bare-mutex",)

# rule -> repo-relative paths (or directory prefixes ending in /) exempt
# from it. These are the designated homes of each capability, not a
# waiver list — new exemptions belong in a suppression comment with a
# justification, not here.
EXEMPT = {
    "raw-clock": ("src/support/",),
    "bare-mutex": ("src/support/mutex.hpp",),
    "unseeded-rng": ("src/support/random.hpp", "src/support/random.cpp"),
    "iostream": (),
}

# Metric-name prefix -> the one file allowed to spell names with that
# prefix. Keep in sync with the registration constructors; the clean-tree
# ctest run fails if a literal drifts to a second site.
METRIC_SITES = {
    "engine.": "src/service/engine.cpp",
    "op.": "src/service/engine.cpp",
    "store.": "src/service/store.cpp",
    "pool.": "src/support/thread_pool.cpp",
    "serve.": "src/service/serve.cpp",
    "solver.": "src/support/metrics.cpp",
    "slo.": "src/service/serve.cpp",
}
METRIC_RE = re.compile(
    r"(engine|op|store|pool|serve|solver|slo)"
    r"\.[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*\Z")

# Trace-event keys rendered by render_trace_json (phase timings, the
# fan-out count and the input feature block); single site below. Keeping
# the spelling in one file keeps the JSONL schema stable for consumers.
TRACE_KEYS = frozenset({
    "parse_ms", "queue_ms", "fp_ms", "lookup_ms", "solve_ms", "encode_ms",
    "total_ms", "blocks_parallel",
    "ddg_ops", "ddg_arcs", "ddg_cp", "ddg_width", "ddg_types",
})
TRACE_SITE = "src/service/trace.cpp"

CODE_PATTERNS = {
    "raw-clock": re.compile(
        r"::now\s*\("
        r"|\bgettimeofday\s*\("
        r"|\bclock_gettime\s*\("
        r"|\bclock\s*\(\s*\)"
        r"|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
    "bare-mutex": re.compile(
        r"\bstd\s*::\s*(?:recursive_|timed_|shared_|recursive_timed_)?mutex\b"
        r"|\bstd\s*::\s*lock_guard\b"
        r"|\bstd\s*::\s*unique_lock\b"
        r"|\bstd\s*::\s*scoped_lock\b"
        r"|\bstd\s*::\s*condition_variable(?:_any)?\b"
        r"|#\s*include\s*<mutex>"
        r"|#\s*include\s*<condition_variable>"),
    "unseeded-rng": re.compile(
        r"\brand\s*\(\s*\)"
        r"|\bsrand\s*\("
        r"|\bstd\s*::\s*random_device\b"
        r"|\bstd\s*::\s*mt19937(?:_64)?\b"),
    "iostream": re.compile(r"#\s*include\s*<iostream>"),
}

MESSAGES = {
    "raw-clock": "clock read outside src/support/ — route time through "
                 "support/timer.hpp or the SolveContext deadline",
    "bare-mutex": "raw std:: locking primitive — use support::Mutex / "
                  "LockGuard / UniqueLock / CondVar (support/mutex.hpp) so "
                  "-Wthread-safety can see the lock",
    "unseeded-rng": "nondeterministic RNG outside src/support/random.* — "
                    "use the seeded support::SplitMix generator",
    "metric-literal": None,  # built per finding
    "iostream": "<iostream> in library code — report through return "
                "values, metrics, or trace events",
}

ALLOW_RE = re.compile(r"//\s*rsat-lint:\s*allow\(([a-z-]+)\)\s*(.*)")


def strip_views(text):
    """Returns (code, strings): `code` is `text` with comments removed and
    string/char literal contents blanked (newlines kept, so line numbers
    survive); `strings` is a list of (line, literal-content) for every
    non-comment string literal. Handles //, /* */, "..." with escapes,
    '...', and raw strings R"delim(...)delim"."""
    code = []
    strings = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    code.append("\n")
                    line += 1
                i += 1
            i = min(i + 2, n)
        elif c == '"' and i > 0 and text[i - 1] == "R":
            m = re.match(r'"([^()\s\\]{0,16})\(', text[i:])
            if m:
                delim = m.group(1)
                end = text.find(")" + delim + '"', i + len(m.group(0)))
                if end < 0:
                    end = n
                content = text[i + len(m.group(0)):end]
                strings.append((line, content))
                code.append('""')
                line += content.count("\n")
                code.append("\n" * content.count("\n"))
                i = min(end + len(delim) + 2, n)
            else:
                code.append(c)
                i += 1
        elif c == '"':
            j, content = i + 1, []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    content.append(text[j:j + 2])
                    j += 2
                elif text[j] == "\n":  # unterminated; bail at line end
                    break
                else:
                    content.append(text[j])
                    j += 1
            strings.append((line, "".join(content)))
            code.append('""')
            i = j + 1 if j < n and text[j] == '"' else j
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            code.append("''")
            i = j + 1 if j < n else n
        else:
            code.append(c)
            if c == "\n":
                line += 1
            i += 1
    return "".join(code), strings


def collect_allows(raw_lines):
    """line -> (rule, justification-or-None) from suppression comments."""
    allows = {}
    for idx, text in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(text)
        if m:
            just = m.group(2).strip()
            allows[idx] = (m.group(1), just if just else None)
    return allows


def exempt(rule, relpath):
    return any(relpath == e or (e.endswith("/") and relpath.startswith(e))
               for e in EXEMPT.get(rule, ()))


def lint_file(root, relpath):
    path = os.path.join(root, relpath)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [(relpath, 0, "io", str(e))]

    raw_lines = text.splitlines()
    allows = collect_allows(raw_lines)
    code, strings = strip_views(text)
    code_lines = code.splitlines()

    findings = []
    in_tools = relpath.startswith("tools/")

    def report(rule, lineno, message):
        for at in (lineno, lineno - 1):
            entry = allows.get(at)
            if entry and entry[0] == rule:
                if entry[1] is None:
                    findings.append(
                        (relpath, at, "bad-suppression",
                         "allow(%s) needs a justification after the rule "
                         "name" % rule))
                return
        findings.append((relpath, lineno, rule, message))

    for rule, pattern in CODE_PATTERNS.items():
        if exempt(rule, relpath) or (in_tools and rule not in TOOL_RULES):
            continue
        for lineno, linetext in enumerate(code_lines, start=1):
            if pattern.search(linetext):
                report(rule, lineno, MESSAGES[rule])

    for lineno, content in [] if in_tools else strings:
        # File names ("store.cpp") fit the metric-name shape; skip them.
        if METRIC_RE.match(content) and \
                not content.endswith((".cpp", ".hpp", ".h", ".cc", ".py")):
            site = METRIC_SITES[content.split(".", 1)[0] + "."]
            if relpath != site:
                report("metric-literal", lineno,
                       'metric name "%s" outside its registration site %s'
                       % (content, site))
        elif content in TRACE_KEYS and relpath != TRACE_SITE:
            report("metric-literal", lineno,
                   'trace key "%s" outside the render site %s'
                   % (content, TRACE_SITE))

    # Unknown rule names in allow() comments are errors too: a typo'd
    # suppression silently suppresses nothing.
    for lineno, (rule, _) in allows.items():
        if rule not in RULES:
            findings.append((relpath, lineno, "bad-suppression",
                             "allow(%s): unknown rule (known: %s)"
                             % (rule, ", ".join(RULES))))
    return findings


def target_files(root, paths):
    if paths:
        for p in paths:
            yield os.path.relpath(os.path.join(root, p), root) \
                if not os.path.isabs(p) else os.path.relpath(p, root)
        return
    src = os.path.join(root, "src")
    for dirpath, _, names in os.walk(src):
        for name in sorted(names):
            if name.endswith((".hpp", ".cpp", ".h", ".cc")):
                yield os.path.relpath(os.path.join(dirpath, name), root)
    tools = os.path.join(root, "tools")
    if os.path.isdir(tools):
        for name in sorted(os.listdir(tools)):
            if name.endswith(".cpp"):
                yield os.path.join("tools", name)


def main(argv):
    ap = argparse.ArgumentParser(
        prog="rsat_lint.py",
        description="rsat repo invariant linter (rules: %s)" % ", ".join(
            RULES))
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script's dir)")
    ap.add_argument("paths", nargs="*",
                    help="files to lint, relative to --root "
                         "(default: all of src/ and tools/*.cpp)")
    args = ap.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(root):
        print("rsat_lint: no such root: %s" % root, file=sys.stderr)
        return 2

    findings = []
    count = 0
    for relpath in target_files(root, args.paths):
        count += 1
        findings.extend(lint_file(root, relpath.replace(os.sep, "/")))

    findings.sort()
    for relpath, lineno, rule, message in findings:
        print("%s:%d: [%s] %s" % (relpath, lineno, rule, message))
    if findings:
        print("rsat_lint: %d finding(s) in %d file(s) scanned"
              % (len(findings), count), file=sys.stderr)
        return 1
    print("rsat_lint: clean (%d files scanned)" % count, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
