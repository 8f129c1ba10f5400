// RS reduction (section 4): Theorem 4.2 construction, exact and heuristic
// reduction, the section-4 intLP, the SRC solver, and the minimization
// baseline of the section-6 discussion.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/min_reg.hpp"
#include "core/reduce.hpp"
#include "core/reduce_ilp.hpp"
#include "core/rs_exact.hpp"
#include "core/src_solver.hpp"
#include "ddg/builder.hpp"
#include "ddg/generators.hpp"
#include "ddg/kernels.hpp"
#include "graph/paths.hpp"
#include "graph/topo.hpp"
#include "sched/lifetime.hpp"
#include "support/random.hpp"

namespace rs::core {
namespace {

using ddg::kFloatReg;
using ddg::kIntReg;

// --------------------------------------------------------------- SRC ----

TEST(SrcSolver, AsapFeasibleAtCriticalPath) {
  const ddg::Ddg d = ddg::lin_ddot(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  const int rs = rs_exact(ctx).rs;
  SrcSolver solver(ctx, rs);  // R = RS: ASAP itself must fit
  const SrcResult r =
      solver.feasible(graph::critical_path(d.graph()), 0, SrcOptions{});
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(sched::is_valid(d, r.sigma));
  EXPECT_LE(r.rn, rs);
}

TEST(SrcSolver, TightRegisterBoundForcesLongerMakespan) {
  const ddg::Ddg d = ddg::matmul_unroll4(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  const RsExactResult rs = rs_exact(ctx);
  ASSERT_TRUE(rs.proven);
  ASSERT_GE(rs.rs, 4);
  const sched::Time cp = graph::critical_path(d.graph());
  SrcOptions opts;
  SrcSolver tight(ctx, rs.rs - 2);
  const SrcResult r = tight.minimize_makespan(opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.makespan, cp);
  EXPECT_LE(r.rn, rs.rs - 2);
}

TEST(SrcSolver, BinaryOperandsNeedTwoRegisters) {
  // Any schedule keeps both operands of an FpAdd alive at its read cycle,
  // so R = 1 is infeasible whatever the makespan budget.
  ddg::KernelBuilder kb(ddg::superscalar_model(), "two");
  const auto a = kb.live_in(kFloatReg, "a");
  const auto b = kb.live_in(kFloatReg, "b");
  kb.fadd("s", a, b);
  const ddg::Ddg d = kb.build();
  const TypeContext ctx(d, kFloatReg);
  SrcSolver solver(ctx, 1);
  SrcOptions opts;
  opts.slack_limit = 8;
  const SrcResult r = solver.minimize_makespan(opts);
  EXPECT_FALSE(r.feasible);
}

TEST(SrcSolver, LexicographicMaximizesRegisterUse) {
  const ddg::Ddg d = ddg::fir8(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  const RsExactResult rs = rs_exact(ctx);
  ASSERT_TRUE(rs.proven);
  const int R = rs.rs - 1;
  SrcSolver solver(ctx, R);
  const SrcResult r = solver.reduce_lexicographic(rs.rs, SrcOptions{},
                                                  support::SolveContext(30));
  ASSERT_TRUE(r.feasible);
  // The decrement loop fills the register file: RN == R is achievable here
  // because RS > R and fir8's pressure is smoothly tunable.
  EXPECT_EQ(r.rn, R);
}

// ------------------------------------------------- Theorem 4.2 arcs ----

struct ScheduledDag {
  ddg::Ddg ddg;
  sched::Schedule sigma;
};

/// Random 10-op superscalar DAGs, each with a random valid schedule (ASAP
/// plus jitter, then repaired along the arcs).
std::vector<ScheduledDag> random_scheduled_dags() {
  support::Rng rng(1234);
  const auto model = ddg::superscalar_model();
  std::vector<ScheduledDag> out;
  for (int trial = 0; trial < 12; ++trial) {
    ddg::RandomDagParams p;
    p.n_ops = 10;
    ddg::Ddg d = ddg::random_dag(rng, model, p);
    sched::Schedule s = sched::asap(d);
    for (auto& t : s.time) t += rng.next_int(0, 4);
    for (int round = 0; round < d.op_count(); ++round) {
      for (const graph::Edge& e : d.graph().edges()) {
        s.time[e.dst] = std::max(s.time[e.dst], s.time[e.src] + e.latency);
      }
    }
    out.push_back(ScheduledDag{std::move(d), std::move(s)});
  }
  return out;
}

TEST(Extension, PreservesScheduleAndBoundsRs) {
  const std::vector<ScheduledDag> cases = random_scheduled_dags();
  for (std::size_t trial = 0; trial < cases.size(); ++trial) {
    const ddg::Ddg& d = cases[trial].ddg;
    const sched::Schedule& s = cases[trial].sigma;
    const TypeContext ctx(d, kFloatReg);
    const int rn = sched::register_need(d, kFloatReg, s);
    const ExtensionResult ext = extend_by_schedule(ctx, s);
    // Read/write tie circuits are possible for arbitrary schedules (the
    // reduction engines reject such witnesses); skip those trials here.
    if (!ext.is_dag) continue;
    // sigma remains valid on G-bar.
    EXPECT_TRUE(sched::is_valid(ext.extended, s));
    // Theorem 4.2: RS(G-bar) == RN_sigma(G).
    const TypeContext ectx(ext.extended, kFloatReg);
    const RsExactResult after = rs_exact(ectx);
    ASSERT_TRUE(after.proven);
    EXPECT_EQ(after.rs, rn) << "trial " << trial;
  }
}

TEST(Extension, AcyclicityTestAgreesWithBuiltExtension) {
  // The SRC leaf guard decides acyclicity without building G-bar; it must
  // accept exactly the schedules whose built extension is a DAG.
  int cyclic = 0;
  for (const ScheduledDag& c : random_scheduled_dags()) {
    for (const ddg::RegType t : {kIntReg, kFloatReg}) {
      const TypeContext ctx(c.ddg, t);
      const bool is_dag = extend_by_schedule(ctx, c.sigma).is_dag;
      EXPECT_EQ(extension_is_acyclic(ctx, c.sigma), is_dag);
      if (!is_dag) ++cyclic;
    }
  }
  EXPECT_GT(cyclic, 0) << "no schedule exercises the reject path";
}

TEST(Extension, OriginalArcsAllPreserved) {
  const ddg::Ddg d = ddg::liv_loop1(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  const ExtensionResult ext = extend_by_schedule(ctx, sched::asap(d));
  EXPECT_GE(ext.extended.graph().edge_count(), d.graph().edge_count());
  for (graph::EdgeId e = 0; e < d.graph().edge_count(); ++e) {
    const graph::Edge& orig = d.graph().edge(e);
    const graph::Edge& kept = ext.extended.graph().edge(e);
    EXPECT_EQ(orig.src, kept.src);
    EXPECT_EQ(orig.dst, kept.dst);
    EXPECT_EQ(orig.latency, kept.latency);
  }
}

// --------------------------------------------------------- reduction ----

struct ReduceCase {
  const char* kernel;
  int r_offset;
};

class ReduceBothEngines : public ::testing::TestWithParam<ReduceCase> {};

TEST_P(ReduceBothEngines, OutputsFitAndOptimalDominates) {
  const auto [kernel, r_offset] = GetParam();
  const ddg::Ddg d = ddg::build_kernel(kernel, ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  const RsExactResult rs = rs_exact(ctx);
  ASSERT_TRUE(rs.proven);
  const int R = rs.rs - r_offset;
  if (R < 2) GTEST_SKIP() << "kernel too small for this offset";

  ReduceOptions opts;
  opts.rs_upper = rs.rs;

  const ReduceResult opt =
      reduce_optimal(ctx, R, opts, support::SolveContext(30));
  ASSERT_EQ(opt.status, ReduceStatus::Reduced) << kernel;
  const ReduceResult heur = reduce_greedy(ctx, R, opts);
  ASSERT_EQ(heur.status, ReduceStatus::Reduced) << kernel;

  for (const ReduceResult* r : {&opt, &heur}) {
    ASSERT_TRUE(r->extended.has_value());
    EXPECT_TRUE(graph::is_dag(r->extended->graph()));
    const TypeContext rctx(*r->extended, kFloatReg);
    const RsExactResult after = rs_exact(rctx);
    ASSERT_TRUE(after.proven);
    EXPECT_LE(after.rs, R) << kernel << " reduction left RS above the limit";
    EXPECT_GE(r->critical_path, r->original_cp);
  }
  // Optimality dominance: exact reduction keeps saturation at least as
  // high as any valid reduction, including the heuristic's.
  const TypeContext hctx(*heur.extended, kFloatReg);
  const int heur_rs = rs_exact(hctx).rs;
  EXPECT_GE(opt.achieved_rs, heur_rs);
}

// complex-mul2 (two fully independent complex products) is the known
// budget-buster — its symmetric search space is exactly the "many days"
// regime the paper reports for CPLEX; EXP-2 reports it as skipped.
INSTANTIATE_TEST_SUITE_P(
    Kernels, ReduceBothEngines,
    ::testing::Values(ReduceCase{"lin-ddot", 1}, ReduceCase{"lin-daxpy", 1},
                      ReduceCase{"liv-loop1", 1}, ReduceCase{"liv-loop1", 2},
                      ReduceCase{"liv-loop5", 1}, ReduceCase{"matmul-u4", 1},
                      ReduceCase{"matmul-u4", 2}, ReduceCase{"estrin8", 1},
                      ReduceCase{"spec-tomcatv", 1}));

TEST(Reduce, AlreadyFitsIsIdentity) {
  const ddg::Ddg d = ddg::lin_dscal(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  const int rs = rs_exact(ctx).rs;
  const ReduceResult r = reduce_optimal(ctx, rs + 3, ReduceOptions{});
  EXPECT_EQ(r.status, ReduceStatus::AlreadyFits);
  EXPECT_EQ(r.arcs_added, 0);
  EXPECT_EQ(r.critical_path, r.original_cp);
}

TEST(Reduce, SpillNeededWhenOneRegisterImpossible) {
  ddg::KernelBuilder kb(ddg::superscalar_model(), "two");
  const auto a = kb.live_in(kFloatReg, "a");
  const auto b = kb.live_in(kFloatReg, "b");
  kb.fadd("s", a, b);
  const ddg::Ddg d = kb.build();
  const TypeContext ctx(d, kFloatReg);
  ReduceOptions opts;
  opts.src.slack_limit = 8;
  const ReduceResult r = reduce_optimal(ctx, 1, opts);
  EXPECT_EQ(r.status, ReduceStatus::SpillNeeded);
  EXPECT_EQ(r.ilp_loss(), 0);  // G is left as it was
  // The heuristic reaches the same verdict (no candidate serialization can
  // separate two operands of one instruction).
  const ReduceResult h = reduce_greedy(ctx, 1, opts);
  EXPECT_EQ(h.status, ReduceStatus::SpillNeeded);
  EXPECT_EQ(h.ilp_loss(), 0);
}

TEST(Reduce, GreedyMatchesOptimalOnEasyCases) {
  // Independent loads: reduction is pure serialization, both engines land
  // on RS == R with zero ILP loss (long pole is the latency-17 divide).
  ddg::KernelBuilder kb(ddg::superscalar_model(), "indep");
  const auto p = kb.live_in(kIntReg, "p");
  const auto big = kb.fdiv("slow", kb.fload("x", p), kb.fload("y", p));
  (void)big;
  for (int i = 0; i < 4; ++i) kb.fload("v" + std::to_string(i), p);
  const ddg::Ddg d = kb.build();
  const TypeContext ctx(d, kFloatReg);
  const RsExactResult rs = rs_exact(ctx);
  ASSERT_TRUE(rs.proven);
  const int R = rs.rs - 1;
  ReduceOptions opts;
  opts.rs_upper = rs.rs;
  const ReduceResult opt = reduce_optimal(ctx, R, opts);
  const ReduceResult heur = reduce_greedy(ctx, R, opts);
  ASSERT_EQ(opt.status, ReduceStatus::Reduced);
  ASSERT_EQ(heur.status, ReduceStatus::Reduced);
  EXPECT_EQ(opt.ilp_loss(), 0);
  EXPECT_EQ(heur.ilp_loss(), 0);
}

// ----------------------------------------------------- section-4 intLP --

TEST(ReduceIlp, MatchesCombinatorialOptimalMakespan) {
  support::Rng rng(77);
  const auto model = ddg::superscalar_model();
  for (int trial = 0; trial < 6; ++trial) {
    ddg::RandomDagParams p;
    p.n_ops = 7;
    const ddg::Ddg d = ddg::random_dag(rng, model, p);
    const TypeContext ctx(d, kFloatReg);
    const RsExactResult rs = rs_exact(ctx);
    ASSERT_TRUE(rs.proven);
    if (rs.rs < 3) continue;
    const int R = rs.rs - 1;

    // Combinatorial minimum makespan subject to RN <= R.
    SrcOptions sopts;
    const SrcResult src = SrcSolver(ctx, R).minimize_makespan(sopts);
    if (src.status == SrcStatus::LimitHit) continue;

    ReduceIlpOptions iopts;
    iopts.require_all_colors_used = false;  // pure makespan objective
    const ReduceIlpResult ilp =
        reduce_ilp_fixed(ctx, R, iopts, support::SolveContext(120));
    if (!src.feasible) {
      // R below the minimal register need: both must agree on infeasibility
      // (the fixed-R intLP reports it as spill-at-this-R).
      EXPECT_EQ(ilp.status, ReduceStatus::SpillNeeded) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(ilp.status, ReduceStatus::Reduced) << "trial " << trial;
    EXPECT_TRUE(sched::is_valid(d, ilp.sigma));
    EXPECT_LE(sched::register_need(d, kFloatReg, ilp.sigma), R);
    EXPECT_EQ(ilp.makespan, src.makespan)
        << "intLP and SRC search disagree on the optimal makespan";
  }
}

TEST(ReduceIlp, DecrementLoopFindsFeasibleColorCount) {
  const ddg::Ddg d = ddg::lin_ddot(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  // Ask for more colors than values: the all-colors-used constraint is
  // unsatisfiable at first, the decrement loop must recover.
  const int nv = ctx.value_count();
  const ReduceIlpResult r =
      reduce_ilp(ctx, nv + 2, ReduceIlpOptions{}, support::SolveContext(120));
  ASSERT_EQ(r.status, ReduceStatus::Reduced);
  EXPECT_LE(r.colors_used, nv);
  EXPECT_TRUE(sched::is_valid(d, r.sigma));
}

TEST(ReduceIlp, ExtensionInheritsTheoremGuarantee) {
  const ddg::Ddg d = ddg::lin_daxpy(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  const RsExactResult rs = rs_exact(ctx);
  ASSERT_TRUE(rs.proven);
  ASSERT_GE(rs.rs, 3);
  const ReduceIlpResult r = reduce_ilp_fixed(
      ctx, rs.rs - 1, ReduceIlpOptions{}, support::SolveContext(120));
  ASSERT_EQ(r.status, ReduceStatus::Reduced);
  ASSERT_TRUE(r.extended.has_value());
  const TypeContext ectx(*r.extended, kFloatReg);
  const RsExactResult after = rs_exact(ectx);
  ASSERT_TRUE(after.proven);
  EXPECT_EQ(after.rs, r.achieved_rn);
  EXPECT_LE(after.rs, rs.rs - 1);
}

// ------------------------------------------- VLIW non-positive circuits --

TEST(ReduceVliw, ExtensionsStaySchedulableAndAcyclic) {
  for (const char* kernel : {"lin-ddot", "liv-loop5", "lin-daxpy"}) {
    SCOPED_TRACE(kernel);
    const ddg::Ddg d = ddg::build_kernel(kernel, ddg::vliw_model());
    const TypeContext ctx(d, kFloatReg);
    const RsExactResult rs = rs_exact(ctx);
    ASSERT_TRUE(rs.proven);
    if (rs.rs < 3) continue;
    ReduceOptions opts;
    opts.rs_upper = rs.rs;
    const ReduceResult r = reduce_optimal(ctx, rs.rs - 1, opts);
    ASSERT_EQ(r.status, ReduceStatus::Reduced);
    ASSERT_TRUE(r.extended.has_value());
    // The paper's requirement: the extended DDG admits a topological sort
    // (SrcOptions::acyclic_extension in the solver enforces it).
    EXPECT_TRUE(graph::is_dag(r.extended->graph()));
    EXPECT_FALSE(graph::has_positive_circuit(r.extended->graph()));
    const TypeContext ectx(*r.extended, kFloatReg);
    EXPECT_LE(rs_exact(ectx).rs, rs.rs - 1);
  }
}

// ------------------------------------------------- minimization (Fig 2) --

TEST(MinReg, FindsProvableMinimumUnderCpBudget) {
  const ddg::Ddg d = ddg::lin_ddot(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  SrcOptions opts;
  const MinRegResult r = minimize_register_need(ctx, 0, opts);
  ASSERT_TRUE(r.proven);
  EXPECT_GE(r.min_need, 2);  // a binary op exists: two operands co-alive
  EXPECT_EQ(sched::register_need(d, kFloatReg, r.sigma), r.min_need);
  // The minimal-need DAG freezes RS down to the minimum.
  ASSERT_TRUE(r.extended.has_value());
  const TypeContext ectx(*r.extended, kFloatReg);
  const RsExactResult after = rs_exact(ectx);
  ASSERT_TRUE(after.proven);
  EXPECT_EQ(after.rs, r.min_need);
}

TEST(MinReg, MinimizationIsMoreRestrictiveThanReduction) {
  // The section-6 argument: with R registers available, RS reduction keeps
  // RS(G-bar) near R while minimization pins it to the minimum need.
  const ddg::Ddg d = ddg::matmul_unroll4(ddg::superscalar_model());
  const TypeContext ctx(d, kFloatReg);
  const RsExactResult rs = rs_exact(ctx);
  ASSERT_TRUE(rs.proven);
  const int R = rs.rs - 1;
  ReduceOptions ropts;
  ropts.rs_upper = rs.rs;
  const ReduceResult red = reduce_optimal(ctx, R, ropts);
  ASSERT_EQ(red.status, ReduceStatus::Reduced);
  SrcOptions sopts;
  const MinRegResult min = minimize_register_need(ctx, red.critical_path, sopts);
  ASSERT_TRUE(min.proven);
  EXPECT_LT(min.min_need, red.achieved_rs)
      << "minimization should under-use the register file";
}

}  // namespace
}  // namespace rs::core
