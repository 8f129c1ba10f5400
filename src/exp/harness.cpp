#include "exp/harness.hpp"

#include <algorithm>

#include "core/greedy_k.hpp"
#include "core/rs_exact.hpp"
#include "ddg/generators.hpp"
#include "ddg/kernels.hpp"
#include "graph/paths.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace rs::exp {

std::vector<Instance> standard_corpus(const CorpusOptions& opts) {
  std::vector<Instance> corpus;
  if (opts.superscalar_kernels) {
    const ddg::MachineModel model = ddg::superscalar_model();
    for (auto& k : ddg::kernel_corpus(model)) {
      corpus.push_back(Instance{k.name + "/ss", std::move(k.ddg)});
    }
  }
  if (opts.vliw_kernels) {
    const ddg::MachineModel model = ddg::vliw_model();
    for (auto& k : ddg::kernel_corpus(model)) {
      corpus.push_back(Instance{k.name + "/vliw", std::move(k.ddg)});
    }
  }
  const ddg::MachineModel model = ddg::superscalar_model();
  support::Rng rng(opts.seed);
  for (const int size : opts.random_sizes) {
    for (int i = 0; i < opts.random_count; ++i) {
      ddg::RandomDagParams params;
      params.n_ops = size;
      ddg::Ddg dag = ddg::random_dag(rng, model, params);
      dag.set_name("rand" + std::to_string(size) + "-" + std::to_string(i));
      corpus.push_back(Instance{dag.name(), std::move(dag)});
    }
  }
  return corpus;
}

std::vector<RsComparison> compare_rs(const std::vector<Instance>& corpus,
                                     const RsSweepOptions& opts) {
  std::vector<RsComparison> rows(corpus.size());
  support::ThreadPool pool(opts.threads);
  pool.parallel_for(corpus.size(), [&](std::size_t idx) {
    const Instance& inst = corpus[idx];
    RsComparison row;
    row.name = inst.name;
    row.n_ops = inst.ddg.op_count();
    row.n_arcs = inst.ddg.graph().edge_count();
    const core::TypeContext ctx(inst.ddg, opts.type);
    row.n_values = ctx.value_count();

    support::Timer t1;
    const core::RsEstimate heur = core::greedy_k(ctx);
    row.heuristic_ms = t1.millis();
    row.rs_heuristic = heur.rs;

    support::Timer t2;
    const core::RsExactResult exact =
        core::rs_exact(ctx, core::RsExactOptions{},
                       support::SolveContext(opts.exact_time_limit));
    row.exact_ms = t2.millis();
    row.rs_exact = exact.rs;
    row.proven = exact.proven;
    row.exact_nodes = exact.nodes;
    rows[idx] = std::move(row);
  });
  return rows;
}

const char* category_label(ReductionCategory c) {
  switch (c) {
    case ReductionCategory::OptimalRsOptimalIlp: return "(i)(a)  RS=RS* ILP=ILP*";
    case ReductionCategory::OptimalRsSubIlp: return "(i)(b)  RS=RS* ILP<ILP*";
    case ReductionCategory::OptimalRsSuperIlp: return "(i)(c)  RS=RS* ILP>ILP*";
    case ReductionCategory::SubRsOptimalIlp: return "(ii)(a) RS>RS* ILP=ILP*";
    case ReductionCategory::SubRsSubIlp: return "(ii)(b) RS>RS* ILP<ILP*";
    case ReductionCategory::SubRsSuperIlp: return "(ii)(c) RS>RS* ILP>ILP*";
    case ReductionCategory::HeuristicAboveOptimal: return "(iii)   RS<RS*";
  }
  return "?";
}

namespace {

ReductionCategory classify(int rs_opt, int rs_heur, sched::Time ilp_opt,
                           sched::Time ilp_heur) {
  if (rs_opt < rs_heur) return ReductionCategory::HeuristicAboveOptimal;
  if (rs_opt == rs_heur) {
    if (ilp_opt == ilp_heur) return ReductionCategory::OptimalRsOptimalIlp;
    if (ilp_opt < ilp_heur) return ReductionCategory::OptimalRsSubIlp;
    return ReductionCategory::OptimalRsSuperIlp;
  }
  if (ilp_opt == ilp_heur) return ReductionCategory::SubRsOptimalIlp;
  if (ilp_opt < ilp_heur) return ReductionCategory::SubRsSubIlp;
  return ReductionCategory::SubRsSuperIlp;
}

}  // namespace

std::vector<ReductionComparison> compare_reduction(
    const std::vector<Instance>& corpus, const ReductionSweepOptions& opts) {
  // Expand to (instance, R) pairs; RS is computed per instance first.
  struct Task {
    const Instance* inst;
    int rs_exact;
    int R;
  };
  std::vector<Task> tasks;
  {
    std::vector<int> rs_values(corpus.size(), -1);
    support::ThreadPool pool(opts.threads);
    pool.parallel_for(corpus.size(), [&](std::size_t idx) {
      const core::TypeContext ctx(corpus[idx].ddg, opts.type);
      const core::RsExactResult r =
          core::rs_exact(ctx, core::RsExactOptions{},
                         support::SolveContext(opts.time_limit));
      rs_values[idx] = r.proven ? r.rs : -1;
    });
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      if (rs_values[i] < 0) continue;
      for (const int off : opts.r_offsets) {
        const int R = rs_values[i] - off;
        if (R >= opts.min_r && R < rs_values[i]) {
          tasks.push_back(Task{&corpus[i], rs_values[i], R});
        }
      }
    }
  }

  std::vector<ReductionComparison> rows(tasks.size());
  support::ThreadPool pool(opts.threads);
  pool.parallel_for(tasks.size(), [&](std::size_t idx) {
    const Task& task = tasks[idx];
    ReductionComparison row;
    row.name = task.inst->name;
    row.R = task.R;
    const core::TypeContext ctx(task.inst->ddg, opts.type);

    core::ReduceOptions ropts;
    ropts.rs_upper = task.rs_exact;

    // The paper's two optimal intLP programs (section 5 uses both): the
    // decrement loop maximizing the reduced saturation, and the minimum
    // critical path over valid extended DDGs. For the latter we take the
    // best *certified* reduction: the minimum over the DAG-guarded
    // minimum-makespan witness and both produced graphs.
    const core::ReduceResult opt = core::reduce_optimal(
        ctx, task.R, ropts, support::SolveContext(opts.time_limit));
    core::SrcOptions msopts = ropts.src;
    msopts.acyclic_extension = true;
    const core::SrcResult ms = core::SrcSolver(ctx, task.R).minimize_makespan(
        msopts, support::SolveContext(opts.time_limit));
    const core::ReduceResult heur = core::reduce_greedy(
        ctx, task.R, ropts, support::SolveContext(opts.time_limit));

    if (opt.status == core::ReduceStatus::LimitHit ||
        ms.status == core::SrcStatus::LimitHit) {
      row.skip_reason = "optimal: budget";
    } else if (heur.status == core::ReduceStatus::LimitHit) {
      row.skip_reason = "heuristic: budget";
    } else if (opt.status == core::ReduceStatus::SpillNeeded &&
               heur.status == core::ReduceStatus::SpillNeeded) {
      row.skip_reason = "spill unavoidable";
    } else if (heur.status == core::ReduceStatus::SpillNeeded) {
      row.skip_reason = "heuristic: spill (optimal reduced)";
    } else if (opt.status == core::ReduceStatus::SpillNeeded) {
      row.skip_reason = "optimal: spill (heuristic reduced!)";
    } else {
      // Both produced extended DDGs. For fairness, RS* is the exact RS of
      // the heuristic's output (its own estimate is a lower bound).
      const core::TypeContext hctx(*heur.extended, opts.type);
      const core::RsExactResult heur_rs =
          core::rs_exact(hctx, core::RsExactOptions{},
                         support::SolveContext(opts.time_limit));
      if (!heur_rs.proven) {
        row.skip_reason = "verify: budget";
      } else if (heur_rs.rs > task.R) {
        row.skip_reason = "heuristic: under-reduced (RS above limit)";
      } else if (!ms.feasible) {
        row.skip_reason = "optimal: spill (min-makespan)";
      } else {
        const sched::Time cp_original =
            graph::critical_path(task.inst->ddg.graph());
        row.usable = true;
        row.rs_optimal = opt.achieved_rs;
        row.rs_heuristic = heur_rs.rs;
        // Best certified reduction CP; ms.makespan bounds it from above
        // (its witness extension is a DAG) and every produced graph
        // certifies its own critical path.
        row.ilp_optimal =
            std::min({ms.makespan - cp_original, opt.ilp_loss(),
                      heur.ilp_loss()});
        row.ilp_heuristic = heur.ilp_loss();
        row.arcs_optimal = opt.arcs_added;
        row.arcs_heuristic = heur.arcs_added;
        row.category = classify(row.rs_optimal, row.rs_heuristic,
                                row.ilp_optimal, row.ilp_heuristic);
      }
    }
    rows[idx] = std::move(row);
  });
  return rows;
}

CategoryBreakdown summarize(const std::vector<ReductionComparison>& rows) {
  CategoryBreakdown b;
  for (const ReductionComparison& row : rows) {
    if (!row.usable) {
      ++b.skipped;
      continue;
    }
    ++b.usable;
    ++b.count[static_cast<int>(row.category)];
  }
  return b;
}

}  // namespace rs::exp
