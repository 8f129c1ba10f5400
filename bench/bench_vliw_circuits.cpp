// EXP-6 — Section 4's VLIW caveat: optimal RS reduction with visible
// read/write offsets may produce extensions with (non-positive) circuits,
// which "violate the DAG property" and must be eliminated by requiring a
// topological sort to exist.
//
// This binary measures, on the VLIW corpus, how often minimum-makespan
// witness schedules would induce a cyclic extension when the guard is OFF,
// and verifies that with the guard ON every produced extension is acyclic
// and positive-circuit-free.
#include <cstdio>
#include <string>

#include "core/reduce.hpp"
#include "core/rs_exact.hpp"
#include "core/src_solver.hpp"
#include "ddg/kernels.hpp"
#include "graph/topo.hpp"
#include "support/table.hpp"

int main() {
  const auto corpus = rs::ddg::kernel_corpus(rs::ddg::vliw_model());
  rs::support::Table table({"kernel", "RS", "R", "unguarded ext cyclic?",
                            "guarded status", "guarded DAG?",
                            "positive circuit?"});
  int cyclic_unguarded = 0, produced = 0, bad_guarded = 0, skipped = 0;

  for (const auto& [name, dag] : corpus) {
    const rs::core::TypeContext ctx(dag, rs::ddg::kFloatReg);
    const auto rs_res = rs::core::rs_exact(ctx, rs::core::RsExactOptions{},
                                           rs::support::SolveContext(10));
    if (!rs_res.proven || rs_res.rs < 3) {
      ++skipped;
      continue;
    }
    const int R = rs_res.rs - 1;

    // Unguarded: plain minimum-makespan witness, then raw extension.
    rs::core::SrcSolver solver(ctx, R);
    const auto src = solver.minimize_makespan(rs::core::SrcOptions{},
                                              rs::support::SolveContext(10));
    std::string unguarded = "n/a";
    if (src.feasible) {
      const auto ext = rs::core::extend_by_schedule(ctx, src.sigma);
      unguarded = ext.is_dag ? "no" : "YES";
      if (!ext.is_dag) ++cyclic_unguarded;
    }

    // Guarded: the library's reduce_optimal (SRC leaves must have an
    // acyclic extension).
    rs::core::ReduceOptions ropts;
    ropts.rs_upper = rs_res.rs;
    const auto red = rs::core::reduce_optimal(ctx, R, ropts,
                                              rs::support::SolveContext(10));
    std::string status = "limit";
    bool dag_ok = true, no_pos_circuit = true;
    if (red.status == rs::core::ReduceStatus::Reduced) {
      status = "reduced";
      ++produced;
      dag_ok = rs::graph::is_dag(red.extended->graph());
      no_pos_circuit = !rs::graph::has_positive_circuit(red.extended->graph());
      if (!dag_ok || !no_pos_circuit) ++bad_guarded;
    } else if (red.status == rs::core::ReduceStatus::SpillNeeded) {
      status = "spill";
    }
    table.add_row({name, std::to_string(rs_res.rs), std::to_string(R),
                   unguarded, status, dag_ok ? "yes" : "NO",
                   no_pos_circuit ? "no" : "YES"});
  }

  std::puts("EXP-6: VLIW non-positive circuits during RS reduction (section 4)");
  std::puts("------------------------------------------------------------------");
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("\nunguarded witnesses with cyclic extensions: %d\n",
              cyclic_unguarded);
  std::printf("guarded reductions produced: %d, of which invalid: %d "
              "(must be 0)\n",
              produced, bad_guarded);
  std::printf("instances skipped (tiny RS or budget): %d\n", skipped);
  return bad_guarded == 0 ? 0 : 1;
}
