// The operation registry: the service request API's extension point.
//
// A service::Operation packages one workload end-to-end — protocol option
// parsing, cache-fingerprint digesting, execution under a SolveContext,
// payload encoding for the disk tier, and result-line rendering — behind
// one interface, registered by name in a process-wide registry. The
// protocol parser, the engine, the payload codec, and (through them) the
// batch/serve front ends consult the registry instead of switching on a
// request-kind enum, so the service spine is operation-agnostic: adding a
// workload means adding one src/service/ops/<name>.cpp and listing it in
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
//  * encode_payload_fields()/decode_payload_fields() round-trip exactly:
//    decode(encode(p)) renders byte-identically to p, which is what keeps
//    result lines stable across the memory and disk store tiers.
//  * digest_tag() and name() are unique across the registry (checked at
//    registration), and digest_tag() is *stable across releases* — it is
//    mixed into persistent cache keys, so changing it orphans every disk
//    entry the operation ever wrote.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
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

/// Base of the per-operation request-options box (Request::options).
/// Operations define a subclass holding their parsed option values; a null
/// box means "this operation's defaults".
struct OpOptions {
  virtual ~OpOptions() = default;
};

/// Base of the per-operation result-data box (ResultPayload::data).
/// Subclasses hold only renumbering-invariant data (see header comment).
struct OpData {
  virtual ~OpData() = default;
  /// Approximate heap footprint, for cache byte accounting.
  virtual std::size_t bytes() const { return 0; }
};

/// Order-sensitive option digest mixed into the cache fingerprint. The
/// digest sequence (tag, budget, then Operation::digest_options) is part of
/// the persistent cache-key format — see request_key() in engine.hpp.
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
  virtual ~Operation() = default;

  /// Protocol command token, `kind=` token in result lines, and `kind=`
  /// value in encoded payloads. Lowercase, no whitespace.
  virtual std::string_view name() const = 0;

  /// Stable 64-bit tag mixed into the cache fingerprint ahead of the
  /// option digest. Unique per operation, never reused, never changed
  /// (analyze=0 and reduce=1 are grandfathered from the RequestKind enum,
  /// which is what keeps pre-registry disk caches addressable).
  virtual std::uint64_t digest_tag() const = 0;

  /// The payload this operation consumes; the protocol parser rejects
  /// mismatches. Defaults to Ddg so single-DAG operations need no
  /// override.
  virtual PayloadKind payload_kind() const { return PayloadKind::Ddg; }

  /// One-line option grammar for usage()/docs, e.g.
  /// "limits=<n>[,<n>...] [exact=0|1] [verify=0|1] [emit=0|1]".
  virtual std::string_view synopsis() const = 0;

  /// Option tokens forming a valid request for any two-type corpus kernel,
  /// e.g. "limits=6,6". Empty when no option is required. Drives the
  /// registry-contract tests and doc examples, so every registered
  /// operation is exercised without per-op test plumbing.
  virtual std::string_view example_options() const = 0;

  /// True when `key` is an option this operation accepts. The generic keys
  /// (id, name, budget, and the payload sources kernel/file/ddg/model) are
  /// handled by the protocol layer and never reach this.
  virtual bool accepts_option(std::string_view key) const = 0;

  /// Parses this operation's options from the request line's key=value
  /// fields (values already unescaped) into req->options / req->want_ddg.
  /// Throws support::PreconditionError on invalid or missing options.
  virtual void parse_options(const std::map<std::string, std::string>& fields,
                             Request* req) const = 0;

  /// Mixes the parsed options into the cache-key digest. Must cover every
  /// option that changes run()'s result.
  virtual void digest_options(const Request& req, OptionDigest* d) const = 0;

  /// Executes the operation against the normalized DDG under `solve`
  /// (deadline + cancel token), with `env` supplying the pool/jobs for
  /// operations that fan out. Fills out->stats/success/out_ddg/data; a
  /// thrown exception becomes a status=error payload in the engine.
  virtual void run(const Request& req, const ddg::Ddg& normalized,
                   const RunEnv& env, const support::SolveContext& solve,
                   ResultPayload* out) const = 0;

  /// Appends this operation's payload fields to an encoded record (storage
  /// codec, service/codec.hpp): " key=value" tokens, leading space each.
  /// The generic header (ok/kind/success/stop/counters/err) and trailer
  /// (ddg=, eol=) are written by encode_payload().
  virtual void encode_payload_fields(const ResultPayload& p,
                                     std::ostream& os) const = 0;

  /// Rebuilds ResultPayload::data (and any op-interpreted fields) from a
  /// decoded record's fields. Returns false on corruption (missing or
  /// malformed op fields); may also signal corruption by throwing
  /// support::PreconditionError, which decode_payload() treats the same.
  virtual bool decode_payload_fields(
      const std::map<std::string, std::string>& fields,
      ResultPayload* out) const = 0;

  /// Appends this operation's result-line fields (" key=value" tokens)
  /// after the generic " stop=... nodes=..." prefix. The trailing
  /// " ddg=..." (when the requester asked for it) is appended by the
  /// generic renderer.
  virtual void render_result_fields(const ResultPayload& p,
                                    std::ostream& os) const = 0;
};

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
