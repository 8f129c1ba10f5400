// The operation registry: the service request API's extension point.
//
// A service::Operation packages one workload end-to-end behind one
// declarative table (OpSpec) plus its run(). The table declares, once each,
// the operation's request options (name, kind, default, bounds and cache-key
// digest slot) and its result schema (row key, typed columns, scalars). One
// shared interpreter serves every table: the option half (parse, digest,
// synopsis) lives in operation.cpp, the field half (rsres encode/decode and
// the result-line render) in codec.cpp. The protocol parser, the engine,
// the payload codec, and (through them) the batch/serve front ends consult
// the registry instead of switching on a request-kind enum, so the service
// spine is operation-agnostic: adding a workload means adding one
// src/service/ops/<name>.cpp (its table and its run()) and listing it in
// builtin_operations() (src/service/ops/register.cpp). engine.cpp,
// store.cpp and serve.cpp need no edits.
//
// Invariants every operation must keep:
//
//  * Payload data is renumbering-invariant: scalar metrics and emitted DDG
//    text only, never node-indexed witnesses. Cache keys are canonical DDG
//    fingerprints, so a cached payload is served to *isomorphic* inputs
//    (renumbered/renamed copies of the same DAG); a node index minted
//    against the first requester's numbering would be meaningless to them.
//  * The digest_tag and name are unique across the registry (checked at
//    registration), and the digest_tag and the option digest slots are
//    *stable across releases* — they are mixed into persistent cache keys,
//    so changing them orphans every disk entry the operation ever wrote.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ddg/ddg.hpp"
#include "support/solve_context.hpp"

namespace rs::support {
class ThreadPool;
}

namespace rs::service {

struct Request;        // service/engine.hpp
struct ResultPayload;  // service/engine.hpp

/// Execution resources the engine hands an operation's run(): the shared
/// worker pool (for per-block fan-out, via nested-task submission) plus the
/// request's jobs= concurrency cap. Null pool — the default — means "run
/// serially"; operations must produce byte-identical results either way.
struct RunEnv {
  support::ThreadPool* pool = nullptr;
  int jobs = 0;  // <= 0: pool thread count
};

/// What a request must carry as its input payload. Ddg operations consume
/// one normalized DAG (kernel= | file=<x>.ddg | ddg=); Program operations
/// consume a whole acyclic CFG (prog=<name> | file=<x>.prog) and are
/// fingerprinted with cfg::canon instead of ddg::canon. The protocol
/// parser enforces the match, so an operation's run() can rely on its
/// declared payload being present.
enum class PayloadKind { Ddg, Program };

// --------------------------------------------------------------------------
// Options

enum class OptionKind {
  Count,      // integer in [min, max]: "<n>"
  Limits,     // one or more per-type register limits: "<n>[,<n>...]"
  Flag,       // "0|1"
  Engine,     // RS engine "greedy|exact|ilp" (portfolio = exact), stored as
              // its core::RsEngine value
  ExactOnly,  // "exact" (or its alias portfolio); selects nothing
  Emit,       // "0|1" into Request::want_ddg; never digested
};

/// The option is not part of the cache key.
inline constexpr int kNotDigested = -1;

struct OptionSpec {
  std::string_view name{};
  OptionKind kind = OptionKind::Count;
  bool required = false;
  long long def = 0;  // value when absent (Count, Flag, Engine)
  long long min = 0;  // Count bounds
  long long max = std::numeric_limits<int>::max();
  /// Position in the digest sequence (kNotDigested: none). Scalars mix in
  /// their value; Limits mix in the count, then each limit + 1.
  int digest_slot = kNotDigested;
  /// Mix in value + 1, and only when the value differs from `def`: an
  /// option added after the cache format froze, so requests that leave it
  /// at its default keep their older keys.
  bool digest_if_not_default = false;
};

/// A constant word of the digest sequence: a core default or retired slot
/// the pre-table digest mixed in, kept so persisted keys stay addressable.
struct DigestWord {
  int slot = 0;
  long long value = 0;  // mixed in as its uint64_t bit pattern
};

/// One parsed option value, in OpSpec::options order.
struct OptionValue {
  long long value = 0;
  std::vector<int> list;  // Limits only
};

// --------------------------------------------------------------------------
// Result schema

/// A row is keyed `t<type>` or `b<block>.t<type>` in result lines.
enum class RowKey { Type, BlockType };

enum class CellKind {
  Int,
  Flag,    // 0|1
  Status,  // core::ReduceStatus value, spelled fits|reduced|spill|limit
};

/// One column: its result-line key. Its codec position is its index (after
/// the row key) in the colon-joined rsres entry.
struct Column {
  std::string_view key{};
  CellKind kind = CellKind::Int;
};

/// A per-payload integer: encoded as " <codec_key>=<v>" after the entries,
/// rendered as " <line_key>=<v>" before or after the rows.
struct Scalar {
  std::string_view codec_key{};
  std::string_view line_key{};
  bool before_rows = false;
};

struct ResultSchema {
  std::string_view count_key{};     // rsres entry count, e.g. "na"
  std::string_view entry_prefix{};  // rsres entry keys <prefix><i>, e.g. "a"
  RowKey row_key = RowKey::Type;
  std::vector<Column> columns{};
  std::vector<Scalar> scalars{};
  /// Grandfathered empty entry counts (" <key>=0") written before/after
  /// the entries and required to read 0, so records stay byte-identical to
  /// those of the writer that gave every kind both analyze/reduce counts.
  std::string_view zero_count_before{};
  std::string_view zero_count_after{};
  /// Render " success=0|1" first — even for data-free payloads, which
  /// render nothing else.
  bool renders_success = false;
};

/// An operation's declarative table.
struct OpSpec {
  /// Protocol command token, `kind=` token in result lines, and `kind=`
  /// value in encoded payloads. Lowercase, no whitespace.
  std::string_view name{};
  /// Stable 64-bit tag mixed into the cache fingerprint ahead of the
  /// option digest. Unique per operation, never reused, never changed.
  std::uint64_t digest_tag = 0;
  PayloadKind payload = PayloadKind::Ddg;
  /// Option tokens forming a valid request for any two-type corpus kernel,
  /// e.g. "limits=6,6". Drives the registry-contract tests.
  std::string_view example_options{};
  std::vector<OptionSpec> options{};  // synopsis order
  std::vector<DigestWord> digest_words{};
  ResultSchema result{};
};

/// An operation's result data (ResultPayload::data): rows laid out by the
/// schema — the row key (block, then type; or type alone), then one cell
/// per column — plus one value per schema scalar. Renumbering-invariant by
/// construction (see header comment).
struct OpData {
  explicit OpData(const ResultSchema& s);

  const ResultSchema* schema;
  std::vector<long long> cells;  // row-major, key_width() + columns per row
  std::vector<long long> scalars;

  std::size_t key_width() const;  // 2 for BlockType rows, else 1
  std::size_t rows() const;
  /// Row `r`: its key fields, then its cells in column order.
  const long long* row(std::size_t r) const;
  /// Appends one row: key fields, then the cells in column order.
  void add_row(std::initializer_list<long long> key_and_cells);
  long long type(std::size_t r) const;
  /// A row's cell by column key; throws on an unknown key.
  long long cell(std::size_t r, std::string_view column) const;
  /// A scalar by line key; throws on an unknown key.
  long long& scalar(std::string_view line_key);
  /// Approximate heap footprint, for cache byte accounting.
  std::size_t bytes() const;
};

/// Order-sensitive option digest mixed into the cache fingerprint. The
/// digest sequence (tag, budget, then digest_options) is part of the
/// persistent cache-key format — see request_key() in engine.hpp.
class OptionDigest {
 public:
  void add(std::uint64_t v);
  void add_double(double v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x524571446967ULL;  // the historical request-digest seed
};

class Operation {
 public:
  /// Validates the table (unique option names, contiguous digest slots).
  explicit Operation(OpSpec spec);
  virtual ~Operation() = default;

  const OpSpec& spec() const { return spec_; }
  std::string_view name() const { return spec_.name; }
  std::uint64_t digest_tag() const { return spec_.digest_tag; }
  PayloadKind payload_kind() const { return spec_.payload; }
  std::string_view example_options() const { return spec_.example_options; }
  /// One-line option grammar generated from the table, e.g.
  /// "limits=<n>[,<n>...] [exact=0|1] [verify=0|1] [emit=0|1]".
  std::string_view synopsis() const { return synopsis_; }
  /// True when `key` is one of this operation's options. The generic keys
  /// (id, name, budget, jobs, and the payload sources) are the protocol
  /// layer's and never reach this.
  bool accepts_option(std::string_view key) const;

  /// Executes the operation against the normalized DDG under `solve`
  /// (deadline + cancel token), with `env` supplying the pool/jobs for
  /// operations that fan out. Fills out->stats/success/out_ddg/data; a
  /// thrown exception becomes a status=error payload in the engine.
  virtual void run(const Request& req, const ddg::Ddg& normalized,
                   const RunEnv& env, const support::SolveContext& solve,
                   ResultPayload* out) const = 0;

  /// Result-line fields derived from the rows, appended after them
  /// (" key=value" tokens). Derived on every render, so they are never
  /// encoded. Only globalrs has any.
  virtual void render_derived(const OpData&, std::ostream&) const {}

 private:
  OpSpec spec_;
  std::string synopsis_;
};

/// Parses `op`'s options from a request line's key=value fields (values
/// already unescaped) into req->options / req->want_ddg. Keys that are not
/// `op`'s options are ignored: the caller validates the key set. Throws
/// support::PreconditionError on a missing, malformed or out-of-bounds
/// option.
void parse_options(const Operation& op,
                   const std::map<std::string, std::string>& fields,
                   Request* req);

/// Mixes req's options into the cache-key digest, in digest-slot order.
void digest_options(const Request& req, OptionDigest* d);

/// An option's parsed value (Count, Flag, Engine): its default when the
/// request carries no parsed options. Throws on an unknown name.
long long option_value(const Request& req, std::string_view name);

/// A Limits option's parsed list (empty when unparsed).
const std::vector<int>& option_list(const Request& req, std::string_view name);

/// Looks up a registered operation; nullptr when unknown.
const Operation* find_operation(std::string_view name);

/// All registered operations, registration order (stable for docs/usage).
const std::vector<const Operation*>& operations();

/// Registered operation names joined with `sep` — for usage() lines and
/// unknown-command diagnostics.
std::string operation_names(std::string_view sep);

/// Registers an extension operation (built-ins are seeded automatically).
/// Throws support::PreconditionError on a duplicate name or digest tag.
/// Call during startup, before concurrent registry lookups begin.
void register_operation(const Operation* op);

/// The built-in operation list, defined in src/service/ops/register.cpp so
/// the op roster lives with the ops. Seeds the registry on first access.
std::vector<const Operation*> builtin_operations();

}  // namespace rs::service
