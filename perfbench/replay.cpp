// perfbench_replay: the benchmark's traced in-process replay.
//
// Reads the protocol lines a workload sent to `rsat serve` and pushes each
// one through the same public entry points the engine crosses, in the same
// order, with a span around every call:
//
//   request                          root, one per line
//     service.protocol.parse         parse_command_line
//     ddg.canon.fingerprint          normalize + ddg::fingerprint + key
//       | cfg.canon.fingerprint      cfg::fingerprint + key
//     service.store.get.{mem,disk,miss}   TieredStore::get
//     <solver entry>                 Operation::run on a miss, named after
//                                    the core call it wraps
//     service.store.put              TieredStore::put
//     service.protocol.render        render_response
//     ddg.io.parse | cfg.io.parse    payload text parse (dup)
//     service.codec.encode           encode_payload (dup)
//     service.codec.decode           decode_payload (dup)
//
// Spans marked dup time, alone and after the pipeline, a call the pipeline
// already makes inside another span (parse_command_line parses the payload
// text; the store encodes and decodes disk entries). Self-time accounting
// therefore leaves them out of the request total and moves the payload
// parse out of the protocol's own time. Once per distinct input (per
// expanded block for programs) the replay also times the layer primitives
// underneath the solver entries under a `probe` root. Probes run under
// node and round caps only, never a wall-clock budget, so the work each
// one does is a function of its input and a faster program shows as a
// shorter span. Spans live in memory and are written out when the run
// ends.
//
// The same stream is also replayed with spans off (no span records, no dup
// calls, two clock reads per request); the difference is the tracing
// overhead. Each replay starts from a fresh store: memory-only, or a copy
// of a disk tier that --warm lines filled, exactly like a restarted
// `rsat serve --cache-dir`.
//
// usage: perfbench_replay --lines F --spans OUT --results OUT
//            [--warm F --cache-dir D] [--reps N]
// Prints one JSON object: per-repetition pipeline nanoseconds, on and off,
// and how many probes stopped at a node or round cap.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cfg/canon.hpp"
#include "cfg/cfg.hpp"
#include "cfg/io.hpp"
#include "core/context.hpp"
#include "core/greedy_k.hpp"
#include "core/killing.hpp"
#include "core/reduce.hpp"
#include "core/rs_exact.hpp"
#include "core/src_solver.hpp"
#include "ddg/canon.hpp"
#include "ddg/io.hpp"
#include "ddg/machine.hpp"
#include "graph/antichain.hpp"
#include "graph/paths.hpp"
#include "service/codec.hpp"
#include "service/engine.hpp"
#include "service/protocol.hpp"
#include "service/store.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"

namespace fs = std::filesystem;
using namespace rs;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  // a string literal: recording a span never allocates
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  long long req = 0;
  bool dup = false;
  long long count = -1;  // work count where the call reports one
};

class Tracer {
 public:
  explicit Tracer(bool on, std::size_t reserve = 0) : on_(on) {
    if (on) spans_.reserve(reserve);
  }
  bool on() const { return on_; }

  int open(const char* name, int parent, long long req, bool dup = false) {
    if (!on_) return -1;
    spans_.push_back(Span{name, now_ns(), 0, parent, req, dup, -1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now_ns();
  }
  void rename(int id, const char* name) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].name = name;
  }
  void set_count(int id, long long count) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].count = count;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, int parent, long long req,
        bool dup = false)
      : t_(t), id_(t.open(name, parent, req, dup)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// The span name of an operation's solver entry: the core call its run()
/// is a thin wrapper around (plus result marshalling).
const char* solver_span(std::string_view op) {
  if (op == "reduce") return "core.saturation.ensure_limits";
  if (op == "minreg") return "core.min_reg.minimize";
  if (op == "globalreduce") return "cfg.global_rs.ensure_limits";
  if (op == "analyze") return "core.saturation.analyze";
  if (op == "schedule") return "sched.list_sched.schedule";
  return "core.operation.run";
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<int> int_list(const std::string& s) {
  std::vector<int> out;
  std::stringstream ss(s);
  for (std::string tok; std::getline(ss, tok, ',');) out.push_back(std::stoi(tok));
  return out;
}

struct Replay {
  service::TieredStore* store = nullptr;
  support::ThreadPool* pool = nullptr;
  const support::SolverProfile* profile = nullptr;
  service::ProtocolOptions popts;
};

struct Outcome {
  std::string line;
  ddg::Fingerprint fp;
  std::shared_ptr<const service::Request> request;
};

/// One request through the engine's entry points. *root_ns gets the
/// pipeline's time without the dup calls, so spans-on and spans-off
/// repetitions time the same work.
Outcome replay_one(const std::string& line, long long seq, Replay& env,
                   Tracer& tr, std::int64_t* root_ns) {
  // Bookkeeping outside the timed region: where the payload text is.
  std::string ddg_text, prog_path;
  if (tr.on()) {
    const auto fields = service::parse_fields(line);
    if (auto it = fields.find("ddg"); it != fields.end()) ddg_text = it->second;
    if (auto it = fields.find("file"); it != fields.end()) prog_path = it->second;
  }
  const std::string prog_text = prog_path.empty() ? "" : read_file(prog_path);

  const std::int64_t t0 = now_ns();
  const int root = tr.open("request", -1, seq);
  service::Command cmd;
  {
    Scope s(tr, "service.protocol.parse", root, seq);
    cmd = service::parse_command_line(line, static_cast<std::uint64_t>(seq),
                                      env.popts);
  }
  auto req = std::make_shared<service::Request>(std::move(cmd.request));
  if (req->budget_seconds <= 0) {
    req->budget_seconds = service::kDefaultBudgetSeconds;
  }
  service::Response resp;
  resp.id = req->id;
  resp.name = !req->name.empty()
                  ? req->name
                  : (req->program != nullptr ? req->program->name()
                                             : req->ddg.name());
  resp.include_ddg = req->want_ddg;
  ddg::Ddg normalized;
  service::CacheKey key;
  {
    Scope s(tr,
            req->program != nullptr ? "cfg.canon.fingerprint"
                                    : "ddg.canon.fingerprint",
            root, seq);
    if (req->program != nullptr) {
      resp.fingerprint = cfg::fingerprint(*req->program);
    } else {
      normalized = req->ddg.normalized();
      resp.fingerprint = ddg::fingerprint(normalized);
    }
    key = service::request_key(*req, resp.fingerprint);
  }
  service::StoreHit hit;
  {
    Scope s(tr, "service.store.get", root, seq);
    hit = env.store->get(key);
    tr.rename(s.id(), hit.tier == service::StoreTier::Memory
                          ? "service.store.get.mem"
                          : hit.tier == service::StoreTier::Disk
                                ? "service.store.get.disk"
                                : "service.store.get.miss");
  }
  std::shared_ptr<const service::ResultPayload> payload = hit.payload;
  resp.cache_hit = payload != nullptr;
  resp.tier = hit.tier;
  if (payload == nullptr) {
    auto fresh = std::make_shared<service::ResultPayload>();
    fresh->op = req->op;
    const support::SolveContext solve =
        support::SolveContext(req->budget_seconds).with_profile(env.profile);
    {
      Scope s(tr, solver_span(req->op->name()), root, seq);
      try {
        req->op->run(*req, normalized, service::RunEnv{env.pool, req->jobs},
                     solve, fresh.get());
      } catch (const std::exception& e) {
        fresh->ok = false;
        fresh->error = e.what();
        fresh->data.reset();
        fresh->out_ddg.clear();
      }
      tr.set_count(s.id(), fresh->stats.nodes);
    }
    if (fresh->ok && !fresh->cancelled()) {
      Scope s(tr, "service.store.put", root, seq);
      env.store->put(key, fresh, fresh->bytes());
    }
    payload = std::move(fresh);
  }
  resp.payload = payload;
  Outcome out;
  {
    Scope s(tr, "service.protocol.render", root, seq);
    out.line = service::render_response(resp);
  }
  // The dup calls come last, so they cannot warm caches for the pipeline
  // calls they repeat; the root's own time ends where they start.
  *root_ns = now_ns() - t0;
  if (tr.on()) {
    if (!ddg_text.empty()) {
      Scope s(tr, "ddg.io.parse", root, seq, true);
      (void)ddg::from_text(ddg_text);
    } else if (!prog_text.empty()) {
      Scope s(tr, "cfg.io.parse", root, seq, true);
      (void)cfg::from_text(prog_text, env.popts.default_model);
    }
    std::string encoded;
    {
      Scope s(tr, "service.codec.encode", root, seq, true);
      encoded = service::encode_payload(*payload);
      tr.set_count(s.id(), static_cast<long long>(encoded.size()));
    }
    Scope s(tr, "service.codec.decode", root, seq, true);
    if (service::decode_payload(encoded) == nullptr) {
      throw std::runtime_error("payload failed to round-trip: " + encoded);
    }
  }
  tr.close(root);
  out.fp = resp.fingerprint;
  out.request = std::move(req);
  return out;
}

// Node caps of the search probes, low enough that the slowest corpus
// kernel's probes end within seconds.
constexpr long kRsExactNodeCap = 200000;
constexpr long kFeasibleNodeCap = 1000000;

/// The layer primitives under the solver entries, on one normalized DAG.
/// `limits` / `needs` are per type (-1: the request named none). Every
/// probe that stops short of a proof counts into *capped.
void probe_ddg(const ddg::Ddg& g, const std::vector<int>& limits,
               const std::vector<int>& needs, long long seq, int parent,
               Tracer& tr, long long* capped) {
  const auto count_cap = [capped](const support::SolveStats& stats) {
    if (stats.interrupted()) ++*capped;
  };
  for (ddg::RegType t = 0; t < g.type_count(); ++t) {
    std::unique_ptr<core::TypeContext> ctx;
    {
      Scope s(tr, "core.context.build", parent, seq);
      ctx = std::make_unique<core::TypeContext>(g, t);
    }
    if (ctx->value_count() == 0) continue;
    {
      Scope s(tr, "graph.paths.longest", parent, seq);
      const graph::LongestPaths lp(g.graph());
      (void)lp;
    }
    {
      Scope s(tr, "graph.antichain.max", parent, seq);
      (void)graph::maximum_antichain_of_dag(g.graph(), ctx->values().nodes);
    }
    core::RsEstimate est;
    {
      Scope s(tr, "core.greedy_k", parent, seq);
      est = core::greedy_k(*ctx);
      tr.set_count(s.id(), est.stats.refine_passes);
    }
    {
      Scope s(tr, "core.rs_exact", parent, seq);
      core::RsExactOptions opts;
      opts.node_limit = kRsExactNodeCap;
      const core::RsExactResult r = core::rs_exact(*ctx, opts);
      tr.set_count(s.id(), r.nodes);
      count_cap(r.stats);
    }
    {
      Scope s(tr, "core.killing.need", parent, seq);
      (void)core::killing_need(*ctx, est.killing);
    }
    {
      Scope s(tr, "core.reduce.extend", parent, seq);
      (void)core::extend_by_schedule(*ctx, est.witness);
    }
    const std::size_t ti = static_cast<std::size_t>(t);
    if (ti < limits.size() && limits[ti] > 0) {
      Scope s(tr, "core.reduce.greedy", parent, seq);
      const core::ReduceResult r = core::reduce_greedy(*ctx, limits[ti]);
      tr.set_count(s.id(), r.nodes);
      count_cap(r.stats);
    }
    if (ti < needs.size() && needs[ti] > 0) {
      Scope s(tr, "core.src_solver.feasible", parent, seq);
      core::SrcSolver solver(*ctx, needs[ti]);
      core::SrcOptions opts;
      opts.node_limit = kFeasibleNodeCap;
      const core::SrcResult r =
          solver.feasible(graph::critical_path(g.graph()), 0, opts);
      tr.set_count(s.id(), r.nodes);
      count_cap(r.stats);
    }
  }
}

/// Probes one distinct input: reduction limits come from the request's
/// limits= (minus globalreduce's default margin of 1, the only one the
/// workloads use), SRC targets from the needs the result line reports.
void probe_input(const std::string& request_line, const Outcome& o,
                 long long seq, Tracer& tr, long long* capped) {
  const auto request = service::parse_fields(request_line);
  const auto result = service::parse_fields(o.line);
  std::vector<int> limits;
  if (auto it = request.find("limits"); it != request.end()) {
    limits = int_list(it->second);
  }
  const service::Request& req = *o.request;
  const int root = tr.open("probe", -1, seq);
  if (req.program != nullptr) {
    for (int& l : limits) l -= 1;
    for (int b = 0; b < req.program->block_count(); ++b) {
      probe_ddg(req.program->expand_block(b), limits, {}, seq, root, tr,
                capped);
    }
  } else {
    std::vector<int> needs;
    for (int t = 0; t < req.ddg.type_count(); ++t) {
      const auto it = result.find("t" + std::to_string(t) + ".need");
      needs.push_back(it == result.end() ? -1 : std::stoi(it->second));
    }
    probe_ddg(req.ddg.normalized(), limits, needs, seq, root, tr, capped);
  }
  tr.close(root);
}

struct Args {
  std::string lines, warm, cache_dir, spans, results;
  int reps = 1;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--lines") a.lines = v;
    else if (k == "--warm") a.warm = v;
    else if (k == "--cache-dir") a.cache_dir = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--results") a.results = v;
    else if (k == "--reps") a.reps = std::stoi(v);
    else throw std::runtime_error("unknown flag " + k);
  }
  if (a.lines.empty() || a.spans.empty() || a.results.empty()) {
    throw std::runtime_error("--lines, --spans and --results are required");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const std::vector<std::string> lines = read_lines(args.lines);
    support::MetricsRegistry registry;
    const support::SolverProfile profile =
        support::make_solver_profile(registry);
    // As many workers as the servers of the solver workloads run.
    support::ThreadPool pool(4);

    // The disk tier every repetition starts from: --warm lines solved
    // once, untimed, exactly like the server's warm-up pass.
    const fs::path warm_dir = args.cache_dir.empty()
                                  ? fs::path()
                                  : fs::path(args.cache_dir) / "warm";
    if (!warm_dir.empty()) {
      fs::remove_all(args.cache_dir);
      service::TieredStore store(std::make_unique<service::MemoryStore>(),
                                 std::make_unique<service::DiskStore>(
                                     service::DiskStore::Config{warm_dir}),
                                 nullptr);
      Replay env{&store, &pool, &profile, {}};
      Tracer off(false);
      std::int64_t ns = 0;
      long long seq = 0;
      for (const std::string& line : read_lines(args.warm)) {
        replay_one(line, ++seq, env, off, &ns);
      }
    }

    // Room for every pipeline span up front, so recording never regrows
    // the buffer mid-replay.
    const std::size_t capacity = 12 * lines.size();
    Tracer traced(true, capacity);
    std::vector<std::int64_t> on_ns, off_ns;
    std::vector<Outcome> first;
    for (int rep = 0; rep < 2 * args.reps; ++rep) {
      // off, on, on, off, ...: drift and warm-up hit both sides alike.
      const bool on = rep % 4 == 1 || rep % 4 == 2;
      std::unique_ptr<service::DiskStore> disk;
      if (!warm_dir.empty()) {
        const fs::path dir =
            fs::path(args.cache_dir) / ("rep" + std::to_string(rep));
        fs::copy(warm_dir, dir, fs::copy_options::recursive);
        disk = std::make_unique<service::DiskStore>(
            service::DiskStore::Config{dir});
      }
      service::TieredStore store(std::make_unique<service::MemoryStore>(),
                                 std::move(disk), nullptr);
      Replay env{&store, &pool, &profile, {}};
      Tracer off(false);
      // Only the first traced repetition keeps its spans.
      Tracer scratch(on && !on_ns.empty(), capacity);
      Tracer& tr = !on ? off : (on_ns.empty() ? traced : scratch);
      std::int64_t total = 0;
      long long seq = 0;
      for (const std::string& line : lines) {
        std::int64_t ns = 0;
        Outcome o = replay_one(line, ++seq, env, tr, &ns);
        if (on && on_ns.empty()) first.push_back(std::move(o));
        total += ns;
      }
      (on ? on_ns : off_ns).push_back(total);
    }

    // Probes: once per distinct input, after the timed replays.
    std::set<std::string> seen;
    long long capped = 0;
    for (std::size_t i = 0; i < first.size(); ++i) {
      if (seen.insert(first[i].fp.hex()).second) {
        probe_input(lines[i], first[i], static_cast<long long>(i + 1),
                    traced, &capped);
      }
    }

    std::ofstream results(args.results);
    for (const Outcome& o : first) results << o.line << '\n';
    std::ofstream spans(args.spans);
    spans << "id\tname\tstart_ns\tend_ns\tparent\treq\tdup\tcount\n";
    const auto& all = traced.spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      spans << i << '\t' << s.name << '\t' << s.start << '\t' << s.end << '\t'
            << s.parent << '\t' << s.req << '\t' << (s.dup ? 1 : 0) << '\t'
            << s.count << '\n';
    }
    if (!warm_dir.empty()) fs::remove_all(args.cache_dir);

    std::cout << "{\"requests\": " << lines.size() << ", \"on_ns\": [";
    for (std::size_t i = 0; i < on_ns.size(); ++i) {
      std::cout << (i ? ", " : "") << on_ns[i];
    }
    std::cout << "], \"off_ns\": [";
    for (std::size_t i = 0; i < off_ns.size(); ++i) {
      std::cout << (i ? ", " : "") << off_ns[i];
    }
    std::cout << "], \"probes_capped\": " << capped << "}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_replay: " << e.what() << '\n';
    return 1;
  }
}
