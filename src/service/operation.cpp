#include "service/operation.hpp"

#include <algorithm>
#include <bit>

#include "core/saturation.hpp"
#include "service/engine.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"
#include "support/parse.hpp"

namespace rs::service {

void OptionDigest::add(std::uint64_t v) { h_ = support::hash_combine(h_, v); }

void OptionDigest::add_double(double v) {
  add(std::bit_cast<std::uint64_t>(v));
}

// --------------------------------------------------------------------------
// OpData

OpData::OpData(const ResultSchema& s)
    : schema(&s), scalars(s.scalars.size(), 0) {}

std::size_t OpData::key_width() const {
  return schema->row_key == RowKey::BlockType ? 2 : 1;
}

std::size_t OpData::rows() const {
  return cells.size() / (key_width() + schema->columns.size());
}

const long long* OpData::row(std::size_t r) const {
  return cells.data() + r * (key_width() + schema->columns.size());
}

void OpData::add_row(std::initializer_list<long long> key_and_cells) {
  RS_REQUIRE(key_and_cells.size() == key_width() + schema->columns.size(),
             "result row does not match its schema");
  cells.insert(cells.end(), key_and_cells);
}

long long OpData::type(std::size_t r) const {
  return row(r)[key_width() - 1];
}

long long OpData::cell(std::size_t r, std::string_view column) const {
  const auto& cols = schema->columns;
  const auto it = std::find_if(cols.begin(), cols.end(),
                               [&](const Column& c) { return c.key == column; });
  RS_REQUIRE(it != cols.end(), "no result column '" + std::string(column) + "'");
  return row(r)[key_width() + static_cast<std::size_t>(it - cols.begin())];
}

long long& OpData::scalar(std::string_view line_key) {
  const auto& sc = schema->scalars;
  const auto it = std::find_if(sc.begin(), sc.end(), [&](const Scalar& s) {
    return s.line_key == line_key;
  });
  RS_REQUIRE(it != sc.end(), "no result scalar '" + std::string(line_key) + "'");
  return scalars[static_cast<std::size_t>(it - sc.begin())];
}

std::size_t OpData::bytes() const {
  return sizeof(OpData) + (cells.capacity() + scalars.capacity()) *
                              sizeof(long long);
}

// --------------------------------------------------------------------------
// The option interpreter: every operation's options, read from its table

namespace {

std::string grammar(OptionKind kind) {
  switch (kind) {
    case OptionKind::Count: return "<n>";
    case OptionKind::Limits: return "<n>[,<n>...]";
    case OptionKind::Flag:
    case OptionKind::Emit: return "0|1";
    case OptionKind::Engine: return "greedy|exact|ilp";
    case OptionKind::ExactOnly: return "exact";
  }
  return "";
}

/// engine= token to RS engine. "portfolio" is an accepted alias of "exact",
/// kept so existing clients keep working: such a request shares exact's
/// result and cache key.
core::RsEngine engine_from_token(const std::string& e) {
  if (e == "greedy") return core::RsEngine::Greedy;
  if (e == "exact" || e == "portfolio") {
    return core::RsEngine::ExactCombinatorial;
  }
  if (e == "ilp") return core::RsEngine::ExactIlp;
  RS_REQUIRE(false, "unknown engine '" + e + "' (greedy|exact|ilp|portfolio)");
  return core::RsEngine::Greedy;
}

OptionValue parse_value(const Operation& op, const OptionSpec& o,
                        const std::string& text) {
  const std::string name(o.name);
  OptionValue v;
  switch (o.kind) {
    case OptionKind::Count:
      v.value = support::parse_ll(text, name);
      RS_REQUIRE(v.value <= o.max, name + ": value out of range: " + text);
      RS_REQUIRE(v.value >= o.min,
                 name + (o.min == 1 ? "= must be positive"
                                    : "= must be >= " + std::to_string(o.min)));
      break;
    case OptionKind::Limits:
      v.list = support::parse_int_list(text, ',', name);
      RS_REQUIRE(!v.list.empty(), name + "= must name at least one limit");
      break;
    case OptionKind::Flag:
    case OptionKind::Emit:
      RS_REQUIRE(text == "0" || text == "1",
                 name + "= must be 0 or 1, got '" + text + "'");
      v.value = text == "1";
      break;
    case OptionKind::Engine:
      v.value = static_cast<long long>(engine_from_token(text));
      break;
    case OptionKind::ExactOnly:
      // No other engine exists for this operation; reject rather than
      // silently run something other than what was asked for.
      RS_REQUIRE(text == "exact" || text == "portfolio",
                 std::string(op.name()) + " " + name +
                     "= must be exact or portfolio, got '" + text + "'");
      break;
  }
  return v;
}

/// The index of option `name` in req.op's table; throws when absent.
std::size_t option_index(const Request& req, std::string_view name) {
  RS_REQUIRE(req.op != nullptr, "request names no operation");
  const auto& opts = req.op->spec().options;
  for (std::size_t i = 0; i < opts.size(); ++i) {
    if (opts[i].name == name) return i;
  }
  RS_REQUIRE(false, std::string(req.op->name()) + " has no option '" +
                        std::string(name) + "'");
  return 0;
}

}  // namespace

Operation::Operation(OpSpec spec) : spec_(std::move(spec)) {
  std::vector<int> slots;
  for (const OptionSpec& o : spec_.options) {
    RS_REQUIRE(std::count_if(spec_.options.begin(), spec_.options.end(),
                             [&](const OptionSpec& p) {
                               return p.name == o.name;
                             }) == 1,
               "duplicate option '" + std::string(o.name) + "'");
    if (o.digest_slot != kNotDigested) slots.push_back(o.digest_slot);
    if (!synopsis_.empty()) synopsis_ += ' ';
    const std::string token = std::string(o.name) + "=" + grammar(o.kind);
    synopsis_ += o.required ? token : "[" + token + "]";
  }
  for (const DigestWord& w : spec_.digest_words) slots.push_back(w.slot);
  std::sort(slots.begin(), slots.end());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    RS_REQUIRE(slots[i] == static_cast<int>(i),
               std::string(spec_.name) + " digest slots must be 0..n-1, once");
  }
}

bool Operation::accepts_option(std::string_view key) const {
  return std::any_of(spec_.options.begin(), spec_.options.end(),
                     [&](const OptionSpec& o) { return o.name == key; });
}

void parse_options(const Operation& op,
                   const std::map<std::string, std::string>& fields,
                   Request* req) {
  std::vector<OptionValue> values;
  values.reserve(op.spec().options.size());
  for (const OptionSpec& o : op.spec().options) {
    const auto it = fields.find(std::string(o.name));
    if (it == fields.end()) {
      RS_REQUIRE(!o.required, std::string(op.name()) + " requires " +
                                  std::string(o.name) + "=" + grammar(o.kind));
      values.push_back(OptionValue{o.def, {}});
    } else {
      values.push_back(parse_value(op, o, it->second));
    }
    if (o.kind == OptionKind::Emit) req->want_ddg = values.back().value != 0;
  }
  req->options = std::move(values);
}

void digest_options(const Request& req, OptionDigest* d) {
  const OpSpec& spec = req.op->spec();
  for (int slot = 0;; ++slot) {
    const auto w = std::find_if(
        spec.digest_words.begin(), spec.digest_words.end(),
        [&](const DigestWord& dw) { return dw.slot == slot; });
    if (w != spec.digest_words.end()) {
      d->add(static_cast<std::uint64_t>(w->value));
      continue;
    }
    const auto o = std::find_if(
        spec.options.begin(), spec.options.end(),
        [&](const OptionSpec& os) { return os.digest_slot == slot; });
    if (o == spec.options.end()) return;  // slots are contiguous (ctor)
    if (o->kind == OptionKind::Limits) {
      const std::vector<int>& limits = option_list(req, o->name);
      d->add(limits.size());
      for (const int l : limits) d->add(static_cast<std::uint64_t>(l) + 1);
      continue;
    }
    const long long v = option_value(req, o->name);
    if (!o->digest_if_not_default) {
      d->add(static_cast<std::uint64_t>(v));
    } else if (v != o->def) {
      d->add(static_cast<std::uint64_t>(v) + 1);
    }
  }
}

long long option_value(const Request& req, std::string_view name) {
  const std::size_t i = option_index(req, name);
  return i < req.options.size() ? req.options[i].value
                                : req.op->spec().options[i].def;
}

const std::vector<int>& option_list(const Request& req, std::string_view name) {
  static const std::vector<int> kNone;
  const std::size_t i = option_index(req, name);
  return i < req.options.size() ? req.options[i].list : kNone;
}

// --------------------------------------------------------------------------
// The registry

namespace {

struct Registry {
  std::vector<const Operation*> ops;

  void add(const Operation* op) {
    RS_REQUIRE(op != nullptr, "cannot register a null operation");
    RS_REQUIRE(!op->name().empty(), "operation name must not be empty");
    for (const Operation* existing : ops) {
      RS_REQUIRE(existing->name() != op->name(),
                 "duplicate operation name '" + std::string(op->name()) + "'");
      RS_REQUIRE(existing->digest_tag() != op->digest_tag(),
                 "operation '" + std::string(op->name()) +
                     "' reuses digest tag of '" +
                     std::string(existing->name()) + "'");
    }
    ops.push_back(op);
  }
};

Registry& registry() {
  // Seeded once, thread-safely, with the built-in roster; extensions append
  // via register_operation() during startup.
  static Registry reg = [] {
    Registry r;
    for (const Operation* op : builtin_operations()) r.add(op);
    return r;
  }();
  return reg;
}

}  // namespace

const Operation* find_operation(std::string_view name) {
  for (const Operation* op : registry().ops) {
    if (op->name() == name) return op;
  }
  return nullptr;
}

const std::vector<const Operation*>& operations() { return registry().ops; }

std::string operation_names(std::string_view sep) {
  std::string out;
  for (const Operation* op : registry().ops) {
    if (!out.empty()) out += sep;
    out += op->name();
  }
  return out;
}

void register_operation(const Operation* op) { registry().add(op); }

}  // namespace rs::service
