#include "service/codec.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <optional>
#include <sstream>
#include <utility>

#include "core/reduce.hpp"
#include "service/operation.hpp"
#include "service/protocol.hpp"
#include "support/parse.hpp"

namespace rs::service {

namespace {

std::optional<support::StopCause> stop_cause_from_token(
    const std::string& tok) {
  using support::StopCause;
  if (tok == "proven") return StopCause::Proven;
  if (tok == "limit") return StopCause::LimitHit;
  if (tok == "timeout") return StopCause::TimedOut;
  if (tok == "cancelled") return StopCause::Cancelled;
  return std::nullopt;
}

/// The value of a required integer field; throws when absent or malformed.
long long require_ll(const std::map<std::string, std::string>& fields,
                     std::string_view key) {
  const auto it = fields.find(std::string(key));
  RS_REQUIRE(it != fields.end(), "missing " + std::string(key) + "=");
  return support::parse_ll(it->second, std::string(key));
}

/// The value of a required 0|1 field; throws when absent or out of range.
bool require_flag(const std::map<std::string, std::string>& fields,
                  const char* key) {
  const long long v = require_ll(fields, key);
  RS_REQUIRE(v == 0 || v == 1, std::string(key) + "= must be 0 or 1");
  return v == 1;
}

// ---------------------------------------------------------------------------
// The field interpreter: every operation's result fields, laid out by its
// ResultSchema.

/// The figure-1 outcome vocabulary of CellKind::Status cells.
constexpr std::pair<core::ReduceStatus, std::string_view> kStatusTokens[] = {
    {core::ReduceStatus::AlreadyFits, "fits"},
    {core::ReduceStatus::Reduced, "reduced"},
    {core::ReduceStatus::SpillNeeded, "spill"},
    {core::ReduceStatus::LimitHit, "limit"},
};

void write_cell(std::ostream& os, CellKind kind, long long v) {
  if (kind != CellKind::Status) {
    os << v;
    return;
  }
  for (const auto& [status, token] : kStatusTokens) {
    if (static_cast<long long>(status) == v) {
      os << token;
      return;
    }
  }
  os << '?';
}

long long read_int(std::string_view text) {
  long long v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  RS_REQUIRE(ec == std::errc() && ptr == text.data() + text.size() &&
                 !text.empty(),
             "malformed entry cell '" + std::string(text) + "'");
  return v;
}

long long read_cell(CellKind kind, std::string_view text) {
  if (kind == CellKind::Status) {
    for (const auto& [status, token] : kStatusTokens) {
      if (token == text) return static_cast<long long>(status);
    }
    RS_REQUIRE(false, "unknown status '" + std::string(text) + "'");
  }
  const long long v = read_int(text);
  RS_REQUIRE(kind != CellKind::Flag || v == 0 || v == 1,
             "flag cell must be 0 or 1");
  return v;
}

/// Writes " <count_key>=N" then one " <prefix><i>=" token per row: the row
/// key and its cells, colon-joined. The count is what makes truncation of
/// the fixed-arity entry list detectable.
void encode_entries(std::ostream& os, const ResultSchema& s,
                    const OpData* d) {
  const std::size_t rows = d != nullptr ? d->rows() : 0;
  os << ' ' << s.count_key << '=' << rows;
  if (rows == 0) return;
  const std::size_t w = d->key_width();
  for (std::size_t r = 0; r < rows; ++r) {
    const long long* row = d->row(r);
    os << ' ' << s.entry_prefix << r << '=';
    for (std::size_t k = 0; k < w; ++k) os << row[k] << ':';
    for (std::size_t c = 0; c < s.columns.size(); ++c) {
      if (c > 0) os << ':';
      write_cell(os, s.columns[c].kind, row[w + c]);
    }
  }
}

/// Reads the entries back: validates the count (0..4096), looks up each
/// " <prefix><i>=" token and checks its arity and cells. Throws
/// support::PreconditionError on any violation (a miss to decode_payload()).
void decode_entries(const std::map<std::string, std::string>& fields,
                    const ResultSchema& s, OpData* d) {
  const long long n = require_ll(fields, s.count_key);
  RS_REQUIRE(n >= 0 && n <= 4096,
             "implausible " + std::string(s.count_key) + "=");
  const std::size_t w = d->key_width();
  const std::size_t stride = w + s.columns.size();
  d->cells.reserve(static_cast<std::size_t>(n) * stride);
  for (long long i = 0; i < n; ++i) {
    const auto it = fields.find(std::string(s.entry_prefix) + std::to_string(i));
    RS_REQUIRE(it != fields.end(), "missing entry");
    std::string_view rest = it->second;
    for (std::size_t k = 0; k < stride; ++k) {
      const std::size_t colon = rest.find(':');
      RS_REQUIRE((colon == std::string_view::npos) == (k + 1 == stride),
                 "malformed entry arity");
      const std::string_view part = rest.substr(0, colon);
      if (k < w) {
        const long long key = read_int(part);
        RS_REQUIRE(key >= INT_MIN && key <= INT_MAX, "row key out of range");
        d->cells.push_back(key);
      } else {
        d->cells.push_back(read_cell(s.columns[k - w].kind, part));
      }
      if (colon != std::string_view::npos) rest.remove_prefix(colon + 1);
    }
  }
}

void encode_fields(const ResultPayload& p, std::ostream& os) {
  const ResultSchema& s = p.op->spec().result;
  if (!s.zero_count_before.empty()) os << ' ' << s.zero_count_before << "=0";
  encode_entries(os, s, p.data.get());
  if (!s.zero_count_after.empty()) os << ' ' << s.zero_count_after << "=0";
  for (std::size_t i = 0; i < s.scalars.size(); ++i) {
    os << ' ' << s.scalars[i].codec_key << '='
       << (p.data != nullptr ? p.data->scalars[i] : 0);
  }
}

std::shared_ptr<const OpData> decode_fields(
    const std::map<std::string, std::string>& fields, const ResultSchema& s) {
  for (const std::string_view zero : {s.zero_count_before, s.zero_count_after}) {
    if (!zero.empty()) {
      RS_REQUIRE(require_ll(fields, zero) == 0, "nonzero legacy count");
    }
  }
  auto d = std::make_shared<OpData>(s);
  decode_entries(fields, s, d.get());
  for (std::size_t i = 0; i < s.scalars.size(); ++i) {
    d->scalars[i] = require_ll(fields, s.scalars[i].codec_key);
  }
  return d;
}

void render_scalars(std::ostream& os, const ResultSchema& s, const OpData& d,
                    bool before_rows) {
  for (std::size_t i = 0; i < s.scalars.size(); ++i) {
    if (s.scalars[i].before_rows == before_rows) {
      os << ' ' << s.scalars[i].line_key << '=' << d.scalars[i];
    }
  }
}

void render_fields(const ResultPayload& p, std::ostream& os) {
  const ResultSchema& s = p.op->spec().result;
  if (s.renders_success) os << " success=" << (p.success ? 1 : 0);
  // Data-free (cancelled-waiter) payloads carry no operation fields: a
  // fabricated cp=0 or blocks=0 would read as a computed result.
  if (p.data == nullptr) return;
  const OpData& d = *p.data;
  render_scalars(os, s, d, true);
  const std::size_t rows = d.rows();
  const bool blocks = s.row_key == RowKey::BlockType;
  if (blocks) {
    long long count = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      count = std::max(count, d.row(r)[0] + 1);
    }
    os << " blocks=" << count;
  }
  const std::size_t w = d.key_width();
  for (std::size_t r = 0; r < rows; ++r) {
    const long long* row = d.row(r);
    for (std::size_t c = 0; c < s.columns.size(); ++c) {
      os << ' ';
      if (blocks) os << 'b' << row[0] << '.';
      os << 't' << row[w - 1] << '.' << s.columns[c].key << '=';
      write_cell(os, s.columns[c].kind, row[w + c]);
    }
  }
  render_scalars(os, s, d, false);
  p.op->render_derived(d, os);
}

}  // namespace

void render_payload_fields(const ResultPayload& p, bool include_ddg,
                           std::ostream& os) {
  if (!p.ok) {
    os << " msg=" << escape_field(p.error);
    return;
  }
  RS_REQUIRE(p.op != nullptr, "payload names no operation");
  os << " stop=" << support::stop_cause_token(p.stats.stop)
     << " nodes=" << p.stats.nodes;
  render_fields(p, os);
  if (include_ddg && !p.out_ddg.empty()) {
    os << " ddg=" << escape_field(p.out_ddg);
  }
}

std::string render_payload_fields(const ResultPayload& p, bool include_ddg) {
  std::ostringstream os;
  render_payload_fields(p, include_ddg, os);
  return os.str();
}

std::string encode_payload(const ResultPayload& p) {
  RS_REQUIRE(p.op != nullptr, "payload names no operation");
  std::ostringstream os;
  os << "rsres v=" << kPayloadFormatVersion << " ok=" << (p.ok ? 1 : 0)
     << " kind=" << p.op->name() << " success=" << (p.success ? 1 : 0)
     << " stop=" << support::stop_cause_token(p.stats.stop)
     << " nodes=" << p.stats.nodes << " prunes=" << p.stats.prunes
     << " simplex=" << p.stats.simplex_iterations
     << " refine=" << p.stats.refine_passes << " solves=" << p.stats.solves;
  if (!p.error.empty()) os << " err=" << escape_field(p.error);
  encode_fields(p, os);
  if (!p.out_ddg.empty()) os << " ddg=" << escape_field(p.out_ddg);
  // End-of-record sentinel: entry counts cannot detect a truncation inside
  // the *last* variable-length value (a shortened ddg= is still a
  // well-formed token), so the decoder additionally requires this final
  // token. Its value is deliberately not "1": a truncation that leaves the
  // bare word "eol" would parse as eol=1 (bare tokens default to "1") and
  // slip through.
  os << " eol=2\n";
  return os.str();
}

std::shared_ptr<const ResultPayload> decode_payload(std::string_view text) {
  try {
    // One logical line; a trailing newline is the normal case. Reject
    // embedded newlines (a torn concatenation of two entries).
    std::string line(text);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    if (line.find('\n') != std::string::npos) return nullptr;

    // Every token after the header must be key=value: the writer never
    // emits bare tokens, so one is corruption (e.g. a key truncated off a
    // concatenated record), not a skippable unknown key — parse_fields
    // would otherwise default it to <token>=1 and mask the damage.
    const std::vector<std::string> tokens = support::split_ws(line);
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      if (tokens[i].find('=') == std::string::npos) return nullptr;
    }
    const std::map<std::string, std::string> fields = parse_fields(line);
    const auto head = fields.find("");
    if (head == fields.end() || head->second != "rsres") return nullptr;
    if (require_ll(fields, "v") != kPayloadFormatVersion) return nullptr;
    const auto eol = fields.find("eol");
    if (eol == fields.end() || eol->second != "2") return nullptr;  // truncated

    auto p = std::make_shared<ResultPayload>();
    p->ok = require_flag(fields, "ok");
    const auto kind_it = fields.find("kind");
    RS_REQUIRE(kind_it != fields.end(), "missing kind=");
    // An unregistered kind= is a miss, not corruption: an entry written by
    // a newer build with more operations must not crash this reader.
    p->op = find_operation(kind_it->second);
    if (p->op == nullptr) return nullptr;
    p->success = require_flag(fields, "success");
    const auto stop_it = fields.find("stop");
    RS_REQUIRE(stop_it != fields.end(), "missing stop=");
    const auto stop = stop_cause_from_token(stop_it->second);
    if (!stop.has_value()) return nullptr;
    p->stats.stop = *stop;
    p->stats.nodes = require_ll(fields, "nodes");
    p->stats.prunes = require_ll(fields, "prunes");
    p->stats.simplex_iterations = require_ll(fields, "simplex");
    p->stats.refine_passes = require_ll(fields, "refine");
    p->stats.solves = require_ll(fields, "solves");
    if (const auto it = fields.find("err"); it != fields.end()) {
      p->error = it->second;
    }
    if (const auto it = fields.find("ddg"); it != fields.end()) {
      p->out_ddg = it->second;
    }
    p->data = decode_fields(fields, p->op->spec().result);
    return p;
  } catch (const std::exception&) {
    // Malformed numbers, bad %XX escapes, duplicate keys, missing required
    // fields: all corruption, all a miss.
    return nullptr;
  }
}

}  // namespace rs::service
