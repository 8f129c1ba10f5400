// Global RS over acyclic CFGs (section 6): liveness, entry/exit value
// expansion, per-block saturation, the move-margin reduction, and the
// jobs= per-block fan-out of the program operations.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "cfg/cfg.hpp"
#include "cfg/generators.hpp"
#include "cfg/global_rs.hpp"
#include "core/rs_exact.hpp"
#include "service/engine.hpp"
#include "service/protocol.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"

namespace rs::cfg {
namespace {

using ddg::kFloatReg;
using ddg::kIntReg;
using ddg::OpClass;

/// Diamond CFG:
///   entry: x = load p ; y = x*x ;           branch
///   left : a = y + x                        (uses both)
///   right: b = y * y                        (x dead here)
///   join : r = phi-ish use of a/b via sum; store r
Program diamond_program() {
  Program p(ddg::superscalar_model());
  const int entry = p.add_block("entry");
  const int left = p.add_block("left");
  const int right = p.add_block("right");
  const int join = p.add_block("join");
  p.add_edge(entry, left);
  p.add_edge(entry, right);
  p.add_edge(left, join);
  p.add_edge(right, join);
  p.def(entry, "x", OpClass::Load, kFloatReg, {"p"});
  p.def(entry, "y", OpClass::FpMul, kFloatReg, {"x", "x"});
  p.def(left, "a", OpClass::FpAdd, kFloatReg, {"y", "x"});
  p.def(right, "b", OpClass::FpMul, kFloatReg, {"y", "y"});
  p.def(join, "r", OpClass::FpAdd, kFloatReg, {"a", "b"});
  p.use(join, OpClass::Store, {"r", "p"});
  return p;
}

TEST(Cfg, LivenessDiamond) {
  const Cfg cfg = diamond_program().build();
  const Block& entry = cfg.block(0);
  const Block& left = cfg.block(1);
  const Block& right = cfg.block(2);
  const Block& join = cfg.block(3);

  // p is a program input, live into entry.
  EXPECT_TRUE(std::count(entry.live_in.begin(), entry.live_in.end(), "p"));
  // x and y live out of entry (x still read in left).
  EXPECT_TRUE(std::count(entry.live_out.begin(), entry.live_out.end(), "x"));
  EXPECT_TRUE(std::count(entry.live_out.begin(), entry.live_out.end(), "y"));
  // left consumes x and y, defines a; a live-out.
  EXPECT_TRUE(std::count(left.live_in.begin(), left.live_in.end(), "x"));
  EXPECT_TRUE(std::count(left.live_out.begin(), left.live_out.end(), "a"));
  EXPECT_FALSE(std::count(left.live_out.begin(), left.live_out.end(), "x"));
  // right never reads x.
  EXPECT_FALSE(std::count(right.live_in.begin(), right.live_in.end(), "x"));
  // join reads a, b, p (for the store): all live-in, nothing live-out.
  EXPECT_TRUE(std::count(join.live_in.begin(), join.live_in.end(), "a"));
  EXPECT_TRUE(std::count(join.live_in.begin(), join.live_in.end(), "b"));
  EXPECT_TRUE(join.live_out.empty());
}

TEST(Cfg, PassThroughValueOccupiesRegister) {
  // v defined in A, only used in C; B is a pass-through block — v must
  // still appear in B's expanded DAG (entry + exit value) and push its RS.
  Program p(ddg::superscalar_model());
  const int a = p.add_block("A");
  const int b = p.add_block("B");
  const int c = p.add_block("C");
  p.add_edge(a, b);
  p.add_edge(b, c);
  p.def(a, "v", OpClass::Load, kFloatReg, {"p"});
  p.def(b, "w", OpClass::FpAdd, kFloatReg, {"q"});  // unrelated float work
  p.use(b, OpClass::Store, {"w"});
  p.use(c, OpClass::Store, {"v"});
  const Cfg cfg = p.build();
  EXPECT_TRUE(std::count(cfg.block(b).live_in.begin(),
                         cfg.block(b).live_in.end(), "v"));
  const ddg::Ddg expanded = cfg.expand_block(b);
  const core::TypeContext ctx(expanded, kFloatReg);
  const auto rs = core::rs_exact(ctx);
  ASSERT_TRUE(rs.proven);
  // v (pass-through) and w (local) can be simultaneously alive: RS >= 2.
  EXPECT_GE(rs.rs, 2);
}

TEST(Cfg, ExpandedBlocksAreValidNormalizedDags) {
  const Cfg cfg = diamond_program().build();
  for (int b = 0; b < cfg.block_count(); ++b) {
    const ddg::Ddg dag = cfg.expand_block(b);
    EXPECT_NO_THROW(dag.validate());
    EXPECT_TRUE(dag.bottom().has_value());
    // Entry values materialized for every live-in.
    for (const std::string& v : cfg.block(b).live_in) {
      bool found = false;
      for (ddg::NodeId n = 0; n < dag.op_count(); ++n) {
        if (dag.op(n).name == "in." + v) found = true;
      }
      EXPECT_TRUE(found) << "missing entry value " << v;
    }
  }
}

TEST(Cfg, GlobalAnalyzeTakesBlockMaximum) {
  const Cfg cfg = diamond_program().build();
  const GlobalReport rep = analyze(cfg);
  ASSERT_EQ(rep.blocks.size(), 4u);
  EXPECT_TRUE(rep.all_proven);
  for (int t = 0; t < cfg.type_count(); ++t) {
    int max_block = 0;
    for (const auto& bs : rep.blocks) {
      max_block = std::max(max_block, bs.per_type[t].rs);
    }
    EXPECT_EQ(rep.global_rs[t], max_block);
  }
  EXPECT_GE(rep.global_rs[kFloatReg], 2);
}

TEST(Cfg, EnsureLimitsAppliesMoveMargin) {
  const Cfg cfg = diamond_program().build();
  const GlobalReport rep = analyze(cfg);
  const int rs_f = rep.global_rs[kFloatReg];
  ASSERT_GE(rs_f, 2);
  // Budget exactly rs_f with margin 1: blocks must be reduced to rs_f - 1.
  const GlobalReduceResult red =
      ensure_limits(cfg, {8, rs_f}, /*move_margin=*/1);
  ASSERT_TRUE(red.success) << red.note;
  for (const auto& block : red.blocks) {
    const core::TypeContext ctx(block, kFloatReg);
    const auto rs = core::rs_exact(ctx);
    ASSERT_TRUE(rs.proven);
    EXPECT_LE(rs.rs, rs_f - 1);
  }
}

TEST(Cfg, ValueDefinedInSeveralPredecessorsMerges) {
  // Non-SSA diamond merge: both arms define v (same type), join reads it.
  // Liveness must show v flowing out of each arm into the join — and not
  // upward past its definitions into the entry.
  Program p(ddg::superscalar_model());
  const int entry = p.add_block("entry");
  const int left = p.add_block("left");
  const int right = p.add_block("right");
  const int join = p.add_block("join");
  p.add_edge(entry, left);
  p.add_edge(entry, right);
  p.add_edge(left, join);
  p.add_edge(right, join);
  p.def(entry, "x", OpClass::Load, kFloatReg, {"p"});
  p.def(left, "v", OpClass::FpAdd, kFloatReg, {"x", "x"});
  p.def(right, "v", OpClass::FpMul, kFloatReg, {"x", "x"});
  p.use(join, OpClass::Store, {"v", "p"});
  const Cfg cfg = p.build();
  EXPECT_EQ(cfg.type_of("v"), kFloatReg);
  for (const int arm : {left, right}) {
    EXPECT_TRUE(std::count(cfg.block(arm).live_out.begin(),
                           cfg.block(arm).live_out.end(), "v"));
    EXPECT_FALSE(std::count(cfg.block(arm).live_in.begin(),
                            cfg.block(arm).live_in.end(), "v"));
  }
  EXPECT_TRUE(std::count(cfg.block(join).live_in.begin(),
                         cfg.block(join).live_in.end(), "v"));
  EXPECT_FALSE(std::count(cfg.block(entry).live_in.begin(),
                          cfg.block(entry).live_in.end(), "v"));
  // Every expanded block stays a valid normalized DAG.
  for (int b = 0; b < cfg.block_count(); ++b) {
    EXPECT_NO_THROW(cfg.expand_block(b).validate());
  }
}

TEST(Cfg, ConflictingCrossBlockDefinitionTypesRejected) {
  Program p(ddg::superscalar_model());
  const int a = p.add_block("A");
  const int b = p.add_block("B");
  p.add_edge(a, b);
  p.def(a, "v", OpClass::IntAlu, kIntReg, {});
  p.def(b, "v", OpClass::FpAdd, kFloatReg, {"v"});
  EXPECT_THROW(p.build(), support::PreconditionError);
}

TEST(Cfg, ProgramInputsTypedByFirstConsumption) {
  // w is only ever an operand: its first consumer (program order) is an
  // FpMul, so it enters as a *float* value and occupies a float register;
  // p stays int (first consumed by a load).
  Program prog(ddg::superscalar_model());
  const int a = prog.add_block("A");
  prog.def(a, "x", OpClass::Load, kFloatReg, {"p"});
  prog.def(a, "m", OpClass::FpMul, kFloatReg, {"x", "w"});
  prog.use(a, OpClass::Store, {"m", "p"});
  const Cfg cfg = prog.build();
  EXPECT_EQ(cfg.type_of("w"), kFloatReg);
  EXPECT_EQ(cfg.type_of("p"), kIntReg);
  const ddg::Ddg dag = cfg.expand_block(0);
  // Entry values are typed accordingly: in.w defines a float value.
  bool found = false;
  for (ddg::NodeId n = 0; n < dag.op_count(); ++n) {
    if (dag.op(n).name == "in.w") {
      found = true;
      EXPECT_TRUE(dag.op(n).writes_type(kFloatReg));
    }
  }
  EXPECT_TRUE(found);
}

TEST(Cfg, ExitConsumerKeepsValueLiveThroughTheBlock) {
  // v passes through B untouched; its expanded DAG must carry the entry
  // definition in.v, the exit consumer out.v, and a flow arc between them
  // — that consumer is what stretches v's lifetime across the whole block.
  Program p(ddg::superscalar_model());
  const int a = p.add_block("A");
  const int b = p.add_block("B");
  const int c = p.add_block("C");
  p.add_edge(a, b);
  p.add_edge(b, c);
  p.def(a, "v", OpClass::Load, kFloatReg, {"p"});
  p.def(b, "w", OpClass::FpAdd, kFloatReg, {"q"});
  p.use(b, OpClass::Store, {"w"});
  p.use(c, OpClass::Store, {"v"});
  const Cfg cfg = p.build();
  const ddg::Ddg dag = cfg.expand_block(b);
  ddg::NodeId in_v = -1, out_v = -1;
  for (ddg::NodeId n = 0; n < dag.op_count(); ++n) {
    if (dag.op(n).name == "in.v") in_v = n;
    if (dag.op(n).name == "out.v") out_v = n;
  }
  ASSERT_GE(in_v, 0);
  ASSERT_GE(out_v, 0);
  const auto consumers = dag.consumers(in_v, kFloatReg);
  EXPECT_TRUE(std::count(consumers.begin(), consumers.end(), out_v));
}

TEST(Cfg, ExhaustedBudgetReportsPerBlockStopCauses) {
  // A many-block program under an already-exhausted budget: analyze must
  // return one row per block with the stop cause, without running the
  // solver stack on the starved tail (zero nodes there).
  support::Rng rng(11);
  const Cfg cfg = random_chain(rng, ddg::superscalar_model(), 8);
  const GlobalReport rep =
      analyze(cfg, {}, support::SolveContext(1e-9));
  ASSERT_EQ(rep.blocks.size(), 8u);
  EXPECT_FALSE(rep.all_proven);
  for (const auto& bs : rep.blocks) {
    ASSERT_EQ(static_cast<int>(bs.per_type.size()), cfg.type_count());
    EXPECT_EQ(bs.stats.stop, support::StopCause::TimedOut) << bs.block;
    for (const auto& ts : bs.per_type) {
      // Value counts stay real even for skipped blocks (they cost one
      // expansion, no search).
      EXPECT_GT(ts.value_count, 0);
    }
  }
  // The tail was skipped outright, not solved against a dead deadline.
  EXPECT_EQ(rep.blocks.back().stats.nodes, 0);
  // With no budget pressure the same program proves every block — and
  // fast blocks donating slack means the report is fully proven well
  // within one generous budget rather than one budget-slice per block.
  const GlobalReport full = analyze(cfg, {}, support::SolveContext(30.0));
  EXPECT_TRUE(full.all_proven);
}

TEST(Cfg, CyclicCfgRejected) {
  Program p(ddg::superscalar_model());
  const int a = p.add_block("A");
  const int b = p.add_block("B");
  p.add_edge(a, b);
  p.add_edge(b, a);  // loop: out of scope for acyclic global RS
  p.def(a, "x", OpClass::IntAlu, kIntReg, {});
  EXPECT_THROW(p.build(), support::PreconditionError);
}

TEST(Cfg, DoubleDefinitionRejected) {
  Program p(ddg::superscalar_model());
  const int a = p.add_block("A");
  p.def(a, "x", OpClass::IntAlu, kIntReg, {});
  p.def(a, "x", OpClass::IntAlu, kIntReg, {});
  EXPECT_THROW(p.build(), support::PreconditionError);
}

TEST(Cfg, StraightLineMatchesPlainDag) {
  // A single-block program's expanded DAG analyzes like a hand-built one.
  Program p(ddg::superscalar_model());
  const int a = p.add_block("body");
  p.def(a, "x", OpClass::Load, kFloatReg, {"ptr"});
  p.def(a, "y", OpClass::Load, kFloatReg, {"ptr"});
  p.def(a, "m", OpClass::FpMul, kFloatReg, {"x", "y"});
  p.use(a, OpClass::Store, {"m", "ptr"});
  const Cfg cfg = p.build();
  const GlobalReport rep = analyze(cfg);
  // x and y overlap at the multiply: RS(float) >= 2; m short-lived.
  EXPECT_GE(rep.global_rs[kFloatReg], 2);
  EXPECT_LE(rep.global_rs[kFloatReg], 3);
}

// ---- jobs= fan-out through the service engine. The determinism contract:
// result lines are byte-identical for any thread count, so jobs= stays out
// of the fingerprint. Who ran in parallel is visible only through the
// op.*.parallel_blocks counter.

/// Rendered result line minus the delivery metadata (ms=, cached=).
std::map<std::string, std::string> stable_fields(
    const service::Response& resp) {
  auto f = service::parse_fields(service::render_response(resp));
  f.erase("ms");
  f.erase("cached");
  return f;
}

service::EngineConfig four_threads() {
  service::EngineConfig cfg;
  cfg.threads = 4;
  return cfg;
}

const std::string kDiamondLine = "globalrs prog=diamond id=4";

TEST(CfgFanout, JobsIsOutsideTheFingerprint) {
  service::AnalysisEngine serial(four_threads());
  service::AnalysisEngine parallel(four_threads());
  const service::Response r1 =
      serial.run(service::parse_request_line(kDiamondLine + " jobs=1", 4));
  const service::Response r4 =
      parallel.run(service::parse_request_line(kDiamondLine + " jobs=4", 4));
  EXPECT_EQ(stable_fields(r1), stable_fields(r4));
  // Cross-jobs cache hit: the second spelling is served the first's bytes.
  const service::Response hit =
      parallel.run(service::parse_request_line(kDiamondLine + " jobs=1", 4));
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(stable_fields(hit), stable_fields(r4));
}

TEST(CfgFanout, ParallelBlocksFollowJobs) {
  service::AnalysisEngine serial(four_threads());
  service::AnalysisEngine parallel(four_threads());
  serial.run(service::parse_request_line(kDiamondLine + " jobs=1", 4));
  parallel.run(service::parse_request_line(kDiamondLine + " jobs=4", 4));
  // jobs=4 on a 4-block program fans every block onto the pool...
  EXPECT_EQ(
      parallel.metrics().counter("op.globalrs.parallel_blocks").value(), 4u);
  // ...while jobs=1 stays sequential.
  EXPECT_EQ(serial.metrics().counter("op.globalrs.parallel_blocks").value(),
            0u);
}

TEST(CfgFanout, ColdParallelIterationsByteIdentical) {
  // Many independent cold engines, each fanning blocks onto real threads,
  // must render byte-identical result lines.
  const std::string line = kDiamondLine + " jobs=4";
  std::map<std::string, std::string> want;
  {
    service::AnalysisEngine first(four_threads());
    want = stable_fields(first.run(service::parse_request_line(line, 4)));
  }
  for (int iter = 0; iter < 50; ++iter) {
    service::AnalysisEngine engine(four_threads());
    EXPECT_EQ(stable_fields(engine.run(service::parse_request_line(line, 4))),
              want)
        << "iter " << iter;
  }
}

}  // namespace
}  // namespace rs::cfg
