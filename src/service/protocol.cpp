#include "service/protocol.hpp"

#include <cstdio>
#include <sstream>
#include <vector>

#include "cfg/generators.hpp"
#include "cfg/io.hpp"
#include "ddg/io.hpp"
#include "ddg/kernels.hpp"
#include "service/codec.hpp"
#include "service/operation.hpp"
#include "support/assert.hpp"
#include "support/fs.hpp"
#include "support/parse.hpp"

namespace rs::service {

namespace {

bool needs_escape(char c) {
  return c == '%' || c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string read_file(const std::string& path) {
  std::string text;
  RS_REQUIRE(support::read_file_to_string(path, &text), "cannot open " + path);
  return text;
}

/// Keys the protocol layer owns for every operation: delivery metadata and
/// the payload sources. Everything else is the operation's vocabulary.
bool is_generic_key(const std::string& key) {
  return key.empty() || key == "id" || key == "name" || key == "budget" ||
         key == "jobs" || key == "kernel" || key == "file" || key == "ddg" ||
         key == "model" || key == "prog";
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::string escape_field(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    if (needs_escape(c)) {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02X",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape_field(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '%') {
      out += escaped[i];
      continue;
    }
    RS_REQUIRE(i + 2 < escaped.size(),
               "truncated %XX escape in '" + escaped + "'");
    const int hi = hex_digit(escaped[i + 1]);
    const int lo = hex_digit(escaped[i + 2]);
    RS_REQUIRE(hi >= 0 && lo >= 0, "malformed %XX escape in '" + escaped + "'");
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

bool is_blank_or_comment(const std::string& line) {
  for (const char c : line) {
    if (c == '#') return true;
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

std::map<std::string, std::string> parse_fields(const std::string& line) {
  std::map<std::string, std::string> out;
  const std::vector<std::string> tokens = support::split_ws(line);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    std::string key, value;
    const std::size_t eq = tokens[i].find('=');
    if (i == 0 && eq == std::string::npos) {
      value = tokens[i];  // leading command token, under the "" key
    } else if (eq == std::string::npos) {
      key = tokens[i];
      value = "1";
    } else {
      key = tokens[i].substr(0, eq);
      value = unescape_field(tokens[i].substr(eq + 1));
    }
    // A map would silently keep only the last occurrence, letting e.g.
    // 'limits=4,4 limits=16,16' slip past the strict-option validation.
    RS_REQUIRE(out.emplace(std::move(key), std::move(value)).second,
               "duplicate field '" + tokens[i].substr(0, eq) + "='");
  }
  return out;
}

Command parse_command_line(const std::string& line, std::uint64_t default_id,
                           const ProtocolOptions& opts) {
  const std::vector<std::string> tokens = support::split_ws(line);
  RS_REQUIRE(!tokens.empty(), "request line must start with a command: " + line);
  Command cmd;
  if (tokens[0] == "drain") {
    RS_REQUIRE(tokens.size() == 1, "drain takes no arguments");
    cmd.kind = CommandKind::Drain;
    return cmd;
  }
  if (tokens[0] == "stats") {
    RS_REQUIRE(tokens.size() == 1, "stats takes no arguments");
    cmd.kind = CommandKind::Stats;
    return cmd;
  }
  if (tokens[0] == "metrics") {
    RS_REQUIRE(tokens.size() == 1, "metrics takes no arguments");
    cmd.kind = CommandKind::Metrics;
    return cmd;
  }
  if (tokens[0] == "cancel") {
    RS_REQUIRE(tokens.size() == 2, "cancel needs exactly one id");
    std::string id = tokens[1];
    if (id.rfind("id=", 0) == 0) id = id.substr(3);  // allow cancel id=<n>
    cmd.kind = CommandKind::Cancel;
    cmd.cancel_id =
        static_cast<std::uint64_t>(support::parse_ll(id, "cancel id"));
    return cmd;
  }
  cmd.request = parse_request_line(line, default_id, opts);
  return cmd;
}

Request parse_request_line(const std::string& line, std::uint64_t default_id,
                           const ProtocolOptions& opts) {
  const std::map<std::string, std::string> fields = parse_fields(line);
  const auto cmd_it = fields.find("");
  RS_REQUIRE(cmd_it != fields.end(),
             "request line must start with a command: " + line);
  const std::string& cmd = cmd_it->second;
  const Operation* op = find_operation(cmd);
  RS_REQUIRE(op != nullptr, "unknown request '" + cmd + "' (" +
                                operation_names("|") +
                                "|cancel|drain|stats|metrics)");

  Request req;
  req.op = op;

  // Reject typo'd and misplaced options outright: a silently dropped
  // budget= or emit= would run with defaults and return a plausible-looking
  // result. An option some *other* registered operation accepts gets the
  // more helpful misplacement message.
  for (const auto& [key, value] : fields) {
    static_cast<void>(value);
    if (is_generic_key(key) || op->accepts_option(key)) continue;
    bool known_elsewhere = false;
    for (const Operation* other : operations()) {
      if (other->accepts_option(key)) {
        known_elsewhere = true;
        break;
      }
    }
    RS_REQUIRE(known_elsewhere, "unknown option '" + key + "='");
    RS_REQUIRE(false, "option '" + key + "=' does not apply to " + cmd +
                          " requests");
  }
  req.id = default_id;
  if (const auto it = fields.find("id"); it != fields.end()) {
    req.id = static_cast<std::uint64_t>(
        support::parse_ll(it->second, "id"));
  }

  // Exactly one payload source. file= carries either payload kind,
  // dispatched on its extension (.prog = program, anything else = DDG).
  const int sources = static_cast<int>(fields.count("kernel")) +
                      static_cast<int>(fields.count("file")) +
                      static_cast<int>(fields.count("ddg")) +
                      static_cast<int>(fields.count("prog"));
  RS_REQUIRE(sources == 1,
             "request needs exactly one of kernel= | file= | ddg= | prog=");
  const bool model_applies =
      fields.count("kernel") || fields.count("prog") ||
      (fields.count("file") && ends_with(fields.at("file"), ".prog"));
  RS_REQUIRE(!fields.count("model") || model_applies,
             "model= only applies to kernel=, prog= and file=<x>.prog "
             "payloads");
  ddg::MachineModel model = opts.default_model;
  if (const auto m = fields.find("model"); m != fields.end()) {
    if (m->second == "superscalar") {
      model = ddg::superscalar_model();
    } else if (m->second == "vliw") {
      model = ddg::vliw_model();
    } else {
      RS_REQUIRE(false, "unknown model '" + m->second +
                            "' (superscalar|vliw)");
    }
  }
  if (const auto it = fields.find("kernel"); it != fields.end()) {
    req.ddg = ddg::build_kernel(it->second, model);
  } else if (const auto it2 = fields.find("prog"); it2 != fields.end()) {
    req.program = std::make_shared<cfg::Cfg>(cfg::build_program(it2->second,
                                                                model));
  } else if (const auto it3 = fields.find("file"); it3 != fields.end()) {
    if (ends_with(it3->second, ".prog")) {
      req.program = std::make_shared<cfg::Cfg>(
          cfg::from_text(read_file(it3->second), model));
    } else {
      req.ddg = ddg::from_text(read_file(it3->second));
    }
  } else {
    req.ddg = ddg::from_text(fields.at("ddg"));
  }
  // Program operations must get a program, DDG operations a DAG — a
  // silently ignored payload would fingerprint (and cache) nonsense.
  if (op->payload_kind() == PayloadKind::Program) {
    RS_REQUIRE(req.program != nullptr,
               cmd + " requires a program payload (prog=<name> | "
               "file=<x>.prog)");
  } else {
    RS_REQUIRE(req.program == nullptr,
               cmd + " takes a DDG payload (kernel= | file=<x>.ddg | "
               "ddg=), not a program");
  }

  if (const auto it = fields.find("name"); it != fields.end()) {
    req.name = it->second;
  }
  if (const auto it = fields.find("budget"); it != fields.end()) {
    // Same finite/non-negative rule as the CLI flags: 'inf' would skip the
    // engine's default cap and create an unbounded-deadline request.
    req.budget_seconds = support::parse_budget_seconds(it->second, "budget");
    RS_REQUIRE(req.budget_seconds > 0, "budget= must be positive");
  }
  if (const auto it = fields.find("jobs"); it != fields.end()) {
    // Execution knob, not a result parameter: jobs= is deliberately outside
    // the request fingerprint, because results are byte-identical for any
    // value (see the determinism contract in protocol.hpp).
    req.jobs = support::parse_int(it->second, "jobs");
    RS_REQUIRE(req.jobs > 0, "jobs= must be positive");
  }

  op->parse_options(fields, &req);
  return req;
}

std::string render_response(const Response& resp) {
  RS_REQUIRE(resp.payload != nullptr, "response has no payload");
  const ResultPayload& p = *resp.payload;
  // The payload-derived tail comes from the shared codec
  // (render_payload_fields), the same source of truth the disk tier
  // round-trips through — which is what keeps result lines byte-identical
  // whether the payload was computed, served from memory, or re-read from
  // disk after a restart.
  std::ostringstream os;
  os << "result id=" << resp.id;
  if (!p.ok) {
    os << " status=error name=" << escape_field(resp.name)
       << render_payload_fields(p, false);
    return os.str();
  }
  os << " status=ok kind=" << p.op->name()
     << " name=" << escape_field(resp.name) << " fp=" << resp.fingerprint.hex()
     << " cached=" << (resp.cache_hit ? 1 : 0);
  char ms[32];
  std::snprintf(ms, sizeof ms, "%.3f", resp.millis);
  os << " ms=" << ms << render_payload_fields(p, resp.include_ddg);
  return os.str();
}

std::string render_cancel_ack(std::uint64_t id, bool found) {
  std::ostringstream os;
  os << "cancelled id=" << id << " found=" << (found ? 1 : 0);
  return os.str();
}

std::string render_drain_ack() { return "drained"; }

}  // namespace rs::service
