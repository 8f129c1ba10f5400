// Shared helpers for the service test suites.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cfg/cfg.hpp"
#include "ddg/ddg.hpp"
#include "service/operation.hpp"
#include "support/metrics.hpp"

namespace rs::test {

/// One registry counter by name, read from a snapshot; 0 when it was never
/// registered (reading never registers it).
inline std::uint64_t counter(const support::MetricsRegistry& metrics,
                             const std::string& name) {
  const std::map<std::string, std::uint64_t> snapshot = metrics.counters();
  const auto it = snapshot.find(name);
  return it == snapshot.end() ? 0 : it->second;
}

/// Rebuilds `d` with ops inserted in the order given by `order` (a
/// permutation of old node ids) and arcs inserted in reverse, optionally
/// renaming every op. The result describes the same scheduling problem —
/// the isomorphic-input fixture of the fingerprint/cache tests.
inline ddg::Ddg permuted_copy(const ddg::Ddg& d,
                              const std::vector<graph::NodeId>& order,
                              bool rename) {
  ddg::Ddg out(d.type_count(), d.name());
  std::vector<graph::NodeId> new_id(d.op_count(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    ddg::Operation op = d.op(order[i]);
    if (rename) op.name = "perm" + std::to_string(i);
    new_id[order[i]] = out.add_op(std::move(op));
  }
  const graph::Digraph& g = d.graph();
  for (graph::EdgeId e = g.edge_count() - 1; e >= 0; --e) {
    const graph::Edge& ed = g.edge(e);
    const ddg::EdgeAttr& a = d.edge_attr(e);
    if (a.kind == ddg::EdgeKind::Flow) {
      out.add_flow(new_id[ed.src], new_id[ed.dst], a.type, ed.latency);
    } else {
      out.add_serial(new_id[ed.src], new_id[ed.dst], ed.latency);
    }
  }
  if (d.bottom().has_value()) out.set_bottom(new_id[*d.bottom()]);
  return out;
}

inline std::vector<graph::NodeId> reversed_order(const ddg::Ddg& d) {
  std::vector<graph::NodeId> order(d.op_count());
  for (int i = 0; i < d.op_count(); ++i) order[i] = d.op_count() - 1 - i;
  return order;
}

/// Rebuilds `in`'s program with blocks inserted in reverse order and every
/// block and value renamed — the CFG analogue of permuted_copy, the
/// isomorphic-input fixture of the program-fingerprint/cache tests.
inline cfg::Cfg permuted_program(const cfg::Cfg& in) {
  cfg::Program out(in.machine(), in.name() + "-perm");
  const int n = in.block_count();
  std::vector<int> new_id(n);
  for (int i = n - 1; i >= 0; --i) {
    new_id[i] = out.add_block("pb" + std::to_string(n - 1 - i));
  }
  std::map<std::string, std::string> rename;
  const auto renamed = [&rename](const std::string& v) {
    return rename.emplace(v, "pv" + std::to_string(rename.size()))
        .first->second;
  };
  for (int b = 0; b < n; ++b) {
    for (const cfg::Statement& st : in.block(b).statements) {
      std::vector<std::string> operands;
      for (const std::string& o : st.operands) operands.push_back(renamed(o));
      if (st.result.empty()) {
        out.use(new_id[b], st.cls, std::move(operands));
      } else {
        out.def(new_id[b], renamed(st.result), st.cls, st.type,
                std::move(operands));
      }
    }
    for (const int s : in.block(b).successors) {
      out.add_edge(new_id[b], new_id[s]);
    }
  }
  return out.build();
}

/// A valid protocol request line for any registered operation:
/// "<op> kernel=<k> <example_options>" for DDG operations, the `diamond`
/// program kernel for program operations. The fixture every
/// registry-contract sweep (test_ops, test_serve) iterates.
inline std::string request_line(const service::Operation& op,
                                const std::string& kernel = "lin-ddot") {
  std::string line{op.name()};
  if (op.payload_kind() == service::PayloadKind::Program) {
    line += " prog=diamond";
  } else {
    line += " kernel=" + kernel;
  }
  if (!op.example_options().empty()) {
    line += " ";
    line += op.example_options();
  }
  return line;
}

/// The display name request_line's payload resolves to (assertions on the
/// rendered name= field).
inline std::string request_line_name(const service::Operation& op,
                                     const std::string& kernel = "lin-ddot") {
  return op.payload_kind() == service::PayloadKind::Program ? "diamond"
                                                            : kernel;
}

/// A rendered result line with the delivery-only fields (cached=, ms=)
/// removed, order preserved — the byte-identity comparator of the
/// cold/warm/disk acceptance criteria. Mirrors the sed expression in
/// tests/ops_cli_golden.sh; extend both together.
inline std::string strip_delivery(const std::string& line) {
  std::string out;
  std::size_t i = 0;
  while (i < line.size()) {
    std::size_t j = line.find(' ', i);
    if (j == std::string::npos) j = line.size();
    const std::string tok = line.substr(i, j - i);
    if (tok.rfind("cached=", 0) != 0 && tok.rfind("ms=", 0) != 0) {
      if (!out.empty()) out += ' ';
      out += tok;
    }
    i = j + 1;
  }
  return out;
}

}  // namespace rs::test
