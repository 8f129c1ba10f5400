// Line-oriented text protocol for the analysis service: one request per
// line in, one result line per response out. Machine-parseable, diff-able,
// and easy to generate from scripts — the `rsat batch` front end streams it
// from stdin or a manifest file, `rsat serve` speaks it over TCP, and
// `rsat <op> <file.ddg>` runs a single line's worth one-shot.
//
// The command token of a request line names a registered
// service::Operation (service/operation.hpp); the option vocabulary of
// each operation is declared once, in its table, so this grammar never
// needs editing to add a workload. Every submission is
//
//   <op> <payload> [<op options>] [budget=<sec>] [id=<n>] [name=<str>]
//        [jobs=<n>]
//
// and `rsat`'s usage text lists each operation's option grammar, generated
// from its table. The built-in operations:
//
//   analyze       register saturation per type (the paper's RS
//                 computation)
//   reduce        figure-1 RS reduction against per-type register limits
//   minreg        the literature's register minimization under a makespan
//                 budget (cp= cycles; unset/0 = the critical path, the
//                 paper's figure-2(b) baseline), freezing the minimal-need
//                 schedule into the DAG via the Theorem-4.2 arcs
//   spill         graph-level lifetime splitting (the paper's section-7
//                 future work): iteratively insert store/reload pairs and
//                 re-reduce until RS fits the limits
//   schedule      resource-constrained list scheduling plus lifetime
//                 metrics (makespan, per-type maximum register pressure)
//   globalrs      global register saturation of an acyclic CFG (section
//                 6): per-block RS on the expanded DAGs + global per-type
//                 maxima
//   globalreduce  per-block figure-1 reduction against limits[t]-margin
//                 (the paper's cross-block move margin, default 1)
//
// and the control verbs:
//
//   cancel   <id>    cooperative cancel of a pending/running request; its
//                    result line still arrives (stop=cancelled, not cached)
//   drain            block until every previously submitted request is done:
//                    the issuing stream is not read further until the
//                    "drained" ack is out (other streams carry on)
//   stats            live engine telemetry as one line (see below); takes
//                    no arguments and completes no work
//   metrics          full metrics registry in Prometheus text exposition
//                    format (see below); takes no arguments and completes
//                    no work
//
// Payloads come in two kinds, matching Operation::payload_kind — the
// parser rejects a mismatch. <payload> (single-DAG operations) is exactly
// one of:
//   kernel=<name> [model=superscalar|vliw]   built-in corpus kernel
//   file=<path>                              .ddg file on disk
//   ddg=<escaped>                            inline .ddg text, escaped
// <program-payload> (CFG-level operations) is exactly one of:
//   prog=<name> [model=superscalar|vliw]     built-in program kernel
//                                            (cfg/generators.hpp)
//   file=<path>.prog [model=...]             .prog file on disk
//                                            (format: cfg/io.hpp)
// Program payloads are fingerprinted with cfg::canon (order/rename-
// invariant over blocks) and carry their timing from the machine model,
// which is why model= applies to them.
//
// '#' starts a comment line; blank lines are ignored. `emit=1` asks for the
// operation's output DDG text in the result (reduce/minreg/spill emit a
// transformed DAG). Unset `id` defaults to the caller-supplied sequence
// number; unset `budget` defaults to the engine's 30 s cap
// (service::kDefaultBudgetSeconds).
//
// `jobs=<n>` caps how many worker threads a program operation may fan its
// per-block solves onto; unset means the engine's full pool. It is a pure
// execution knob with a hard determinism contract: the result line,
// payload encoding and cache contents are byte-identical regardless of
// thread count, so jobs= is *not* part of the request fingerprint (engine=
// is: different engines may legitimately prove different bounds). Fan-out
// shows only in the live telemetry — the op.<name>.parallel_blocks counter
// and a trace span's `blocks_parallel=` — and never on a cache hit.
//
// Result lines (`kind=` echoes the operation name):
//
//   result id=<n> status=ok kind=analyze name=<str> fp=<hex32> cached=0|1
//          ms=<t> stop=proven|limit|timeout|cancelled nodes=<n>
//          t<k>.vals=<n> t<k>.rs=<n> t<k>.proven=0|1 ...
//   result id=<n> status=ok kind=reduce ... stop=... nodes=<n> success=0|1
//          t<k>.status=fits|reduced|spill|limit
//          t<k>.rs=<n> t<k>.arcs=<n> t<k>.loss=<n> ... [ddg=<escaped>]
//   result id=<n> status=ok kind=minreg ... stop=... nodes=<n> success=0|1
//          t<k>.need=<n> t<k>.proven=0|1 t<k>.arcs=<n> ... cp=<n>
//          [ddg=<escaped>]
//   result id=<n> status=ok kind=spill ... stop=... nodes=<n> success=0|1
//          t<k>.status=fits|reduced|spill|limit t<k>.spills=<n>
//          t<k>.rs=<n> ... cp=<n> [ddg=<escaped>]
//   result id=<n> status=ok kind=schedule ... stop=... nodes=<n>
//          makespan=<n> t<k>.vals=<n> t<k>.maxlive=<n> ...
//   result id=<n> status=ok kind=globalrs ... stop=... nodes=<n>
//          blocks=<n> b<i>.t<k>.vals=<n> b<i>.t<k>.rs=<n>
//          b<i>.t<k>.proven=0|1 ... t<k>.rs=<n> ... all_proven=0|1
//   result id=<n> status=ok kind=globalreduce ... stop=... nodes=<n>
//          success=0|1 blocks=<n> b<i>.t<k>.status=fits|reduced|spill|limit
//          b<i>.t<k>.rs=<n> b<i>.t<k>.arcs=<n> ...
//   result id=<n> status=error name=<str> msg=<escaped>
//
// Program-operation block indices b<i> are *canonical* (blocks sorted by
// their expanded DAG's structural fingerprint), not program order: like
// every payload field they must stay meaningful when a cached result is
// served to a block-reordered isomorphic program, so block names and
// program positions never appear.
//   cancelled id=<n> found=0|1               ack for a cancel line
//   drained                                   ack for a drain line
//   stats submitted=<n> completed=<n> errors=<n> memory_hits=<n>
//         disk_hits=<n> coalesced=<n> misses=<n> cancelled=<n>
//         timed_out=<n> queue_depth=<n> hit_rate=<f> entries=<n> bytes=<n>
//         disk=0|1 p50_ms=<f> p95_ms=<f> p99_ms=<f> max_ms=<f> ops=<n>
//         [op.<name>.submitted=<n> op.<name>.hits=<n> op.<name>.misses=<n>
//          op.<name>.p50_ms=<f> ...]          ack for a stats line; per-op
//         groups are name-sorted, so the key schema is deterministic for a
//         given operation mix (only the values change between snapshots),
//         and the per-op slices tile the aggregate buckets:
//         sum(op.*.submitted) == completed over resolved operations, and
//         memory_hits + disk_hits + coalesced + misses == completed on an
//         idle engine (service::counters_tile). The line is rendered by
//         AnalysisEngine::stats_line() from one registry snapshot; only
//         entries= and bytes= (the memory LRU's resident size) and disk=
//         come from the store itself. When serve runs with
//         --slo-ms=<t>, the serve front end appends per-op latency-objective
//         fields after the op groups: slo_ms=<t> slo.<name>.ok=<n>
//         slo.<name>.breach=<n> ... (name-sorted; ok+breach counts
//         completed responses against the objective, the error budget is
//         breach/(ok+breach))
//   # TYPE rsat_<name> counter|gauge|histogram   ack for a metrics line:
//         the whole registry in Prometheus text exposition format —
//         multi-line, name-sorted, counters suffixed _total, histograms as
//         cumulative _bucket{le="..."} ladders (sparse: only non-empty
//         native buckets, +Inf always present) plus _sum/_count — and
//         terminated by a literal `# EOF` line so the line protocol can
//         frame the multi-line body. Two consecutive idle scrapes are
//         byte-identical modulo the counter values the scrape itself
//         advances (serve.requests and friends)
//
// `stop=` is the stop-cause taxonomy of support::SolveStats: proven (search
// exhausted), limit (node/round cap), timeout (budget deadline), cancelled
// (cancel token). `nodes=` is the aggregate search-node count. Consumers
// must treat `stop=cancelled` lines as potentially data-free: a cancelled
// request that had coalesced onto an identical in-flight solve detaches
// with status=ok but *no* operation fields (nothing was computed for it);
// a cancelled request that computed carries its witnessed partial bounds.
//
// Escaping: '%', space, TAB, CR and LF become %XX (uppercase hex), applied to
// every value that may contain whitespace (name=, ddg=, msg=) — a kernel or
// file name with a space must not corrupt the key=value token stream, in
// either direction. parse_fields() unescapes every value on the way in, so
// writers escape symmetrically (e.g. name=my%20loop). unescape_field()
// inverts escape_field() exactly; values never produced by escape_field()
// pass through unchanged.
#pragma once

#include <map>
#include <string>

#include "ddg/machine.hpp"
#include "service/engine.hpp"

namespace rs::service {

std::string escape_field(const std::string& raw);
std::string unescape_field(const std::string& escaped);

/// True for lines the protocol skips (blank or '#' comment).
bool is_blank_or_comment(const std::string& line);

struct ProtocolOptions {
  /// Machine model used to instantiate kernel= payloads without an explicit
  /// model= override.
  ddg::MachineModel default_model = ddg::superscalar_model();
};

/// One parsed protocol line: either an operation submission, or a control
/// verb (cancel/drain/stats/metrics) targeting the engine itself.
enum class CommandKind { Submit, Cancel, Drain, Stats, Metrics };

struct Command {
  CommandKind kind = CommandKind::Submit;
  Request request;              // valid when kind == Submit
  std::uint64_t cancel_id = 0;  // valid when kind == Cancel
};

/// Parses one protocol line (submission or control verb). `default_id` is
/// used when a submission carries no id=. Throws support::PreconditionError
/// on malformed input (unknown command, missing/duplicate payload, bad
/// numbers, unreadable file=...).
Command parse_command_line(const std::string& line, std::uint64_t default_id,
                           const ProtocolOptions& opts = {});

/// Parses one *request* line (a registered operation; control verbs are
/// rejected). Kept for callers that feed the engine directly.
Request parse_request_line(const std::string& line, std::uint64_t default_id,
                           const ProtocolOptions& opts = {});

/// A request for direct engine callers (tests, benches): `op_and_options`
/// is "<op> [option=value ...]" — only the operation's own options, parsed
/// by its table like a protocol line's — and the payload must match the
/// operation's PayloadKind. Throws support::PreconditionError otherwise.
Request make_request(const std::string& op_and_options, ddg::Ddg ddg);
Request make_request(const std::string& op_and_options,
                     std::shared_ptr<const cfg::Cfg> program);

/// Renders a response as one result line (no trailing newline).
std::string render_response(const Response& resp);

/// Ack line for a cancel verb: "cancelled id=<n> found=0|1".
std::string render_cancel_ack(std::uint64_t id, bool found);

/// Ack line for a drain verb: "drained".
std::string render_drain_ack();

/// Splits a protocol line into its key=value fields with values unescaped.
/// The leading command token appears under the empty key "". Bare tokens map
/// to "1". Used by tests and downstream consumers of result lines.
std::map<std::string, std::string> parse_fields(const std::string& line);

}  // namespace rs::service
