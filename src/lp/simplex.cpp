#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace rs::lp {

namespace {

constexpr double kEpsCost = 1e-7;     // reduced-cost optimality tolerance
constexpr double kEpsPivot = 1e-9;    // minimum acceptable pivot magnitude
constexpr double kEpsRatio = 1e-9;    // ratio-test tie window
constexpr double kEpsFeas = 1e-7;     // primal feasibility tolerance
constexpr double kInfStep = 1e100;    // "effectively infinite" step
constexpr int kBlandTrigger = 60;     // degenerate pivots before Bland's rule
constexpr int kRefactorPeriod = 256;  // pivots between refactorizations

enum class ColStatus : unsigned char { Basic, AtLower, AtUpper, FreeAtZero };

struct Entry {
  int row;
  double coef;
};

enum class IterOutcome { Optimal, Unbounded, IterLimit };

/// One solve's mutable state. Columns: structural | slacks | artificials.
struct Tableau {
  int m = 0;
  std::vector<std::vector<Entry>> cols;
  std::vector<double> lo, hi;
  std::vector<double> rhs;

  std::vector<ColStatus> status;   // per column
  std::vector<int> basis;          // row -> column
  std::vector<double> binv;        // m*m dense row-major
  std::vector<double> xb;          // basic values, per row
  std::vector<double> phase_cost;  // active cost vector

  double nb_value(int j) const {
    switch (status[j]) {
      case ColStatus::AtLower: return lo[j];
      case ColStatus::AtUpper: return hi[j];
      case ColStatus::FreeAtZero: return 0.0;
      case ColStatus::Basic: break;
    }
    RS_CHECK(false);
    return 0.0;
  }

  /// xb = Binv * (rhs - sum over nonbasic columns of A_j * value_j).
  void recompute_xb() {
    std::vector<double> r = rhs;
    for (int j = 0; j < static_cast<int>(cols.size()); ++j) {
      if (status[j] == ColStatus::Basic) continue;
      const double v = nb_value(j);
      if (v == 0.0) continue;
      for (const Entry& e : cols[j]) r[e.row] -= e.coef * v;
    }
    for (int i = 0; i < m; ++i) {
      double acc = 0.0;
      const double* row = &binv[static_cast<std::size_t>(i) * m];
      for (int k = 0; k < m; ++k) acc += row[k] * r[k];
      xb[i] = acc;
    }
  }

  /// Rebuilds Binv from the basis by Gauss-Jordan with partial pivoting.
  /// Returns false if the basis matrix is numerically singular.
  bool refactorize() {
    std::vector<double> a(static_cast<std::size_t>(m) * m, 0.0);
    std::vector<double> inv(static_cast<std::size_t>(m) * m, 0.0);
    for (int i = 0; i < m; ++i) inv[static_cast<std::size_t>(i) * m + i] = 1.0;
    for (int col = 0; col < m; ++col) {
      for (const Entry& e : cols[basis[col]]) {
        a[static_cast<std::size_t>(e.row) * m + col] = e.coef;
      }
    }
    for (int piv = 0; piv < m; ++piv) {
      int best = -1;
      double best_mag = kEpsPivot;
      for (int i = piv; i < m; ++i) {
        const double mag = std::abs(a[static_cast<std::size_t>(i) * m + piv]);
        if (mag > best_mag) {
          best_mag = mag;
          best = i;
        }
      }
      if (best < 0) return false;
      if (best != piv) {
        for (int k = 0; k < m; ++k) {
          std::swap(a[static_cast<std::size_t>(best) * m + k],
                    a[static_cast<std::size_t>(piv) * m + k]);
          std::swap(inv[static_cast<std::size_t>(best) * m + k],
                    inv[static_cast<std::size_t>(piv) * m + k]);
        }
        // Row swap in the elimination corresponds to swapping equations;
        // Binv's rows must track basis order, handled by using `inv` rows
        // aligned with `a` rows throughout.
      }
      const double d = a[static_cast<std::size_t>(piv) * m + piv];
      for (int k = 0; k < m; ++k) {
        a[static_cast<std::size_t>(piv) * m + k] /= d;
        inv[static_cast<std::size_t>(piv) * m + k] /= d;
      }
      for (int i = 0; i < m; ++i) {
        if (i == piv) continue;
        const double f = a[static_cast<std::size_t>(i) * m + piv];
        if (f == 0.0) continue;
        for (int k = 0; k < m; ++k) {
          a[static_cast<std::size_t>(i) * m + k] -=
              f * a[static_cast<std::size_t>(piv) * m + k];
          inv[static_cast<std::size_t>(i) * m + k] -=
              f * inv[static_cast<std::size_t>(piv) * m + k];
        }
      }
    }
    binv = std::move(inv);
    recompute_xb();
    return true;
  }
};

/// Primal simplex loop under `phase_cost` (minimization).
IterOutcome iterate(Tableau& t, int& iter_budget,
                    const std::function<bool()>& stop) {
  const int ncols = static_cast<int>(t.cols.size());
  std::vector<double> y(t.m), w(t.m);
  int degenerate_run = 0;
  int since_refactor = 0;

  while (iter_budget > 0) {
    // Every pivot is O(m^2) dense work, so a 64-pivot poll cadence makes
    // the check (atomic load + clock) invisible while keeping cancellation
    // latency far below one branch-and-bound node.
    if ((iter_budget & 63) == 0 && stop && stop()) return IterOutcome::IterLimit;
    --iter_budget;
    // y = c_B Binv (skip zero basic costs).
    std::fill(y.begin(), y.end(), 0.0);
    for (int k = 0; k < t.m; ++k) {
      const double cb = t.phase_cost[t.basis[k]];
      if (cb == 0.0) continue;
      const double* row = &t.binv[static_cast<std::size_t>(k) * t.m];
      for (int i = 0; i < t.m; ++i) y[i] += cb * row[i];
    }

    // Pricing: Dantzig normally, Bland when cycling is suspected.
    const bool bland = degenerate_run >= kBlandTrigger;
    int q = -1;
    double best_merit = kEpsCost;
    bool q_increase = true;
    for (int j = 0; j < ncols; ++j) {
      if (t.status[j] == ColStatus::Basic) continue;
      if (t.lo[j] == t.hi[j]) continue;  // fixed column can never improve
      double dj = t.phase_cost[j];
      for (const Entry& e : t.cols[j]) dj -= y[e.row] * e.coef;
      bool inc = false, dec = false;
      switch (t.status[j]) {
        case ColStatus::AtLower: inc = dj < -kEpsCost; break;
        case ColStatus::AtUpper: dec = dj > kEpsCost; break;
        case ColStatus::FreeAtZero:
          inc = dj < -kEpsCost;
          dec = dj > kEpsCost;
          break;
        case ColStatus::Basic: break;
      }
      if (!inc && !dec) continue;
      if (bland) {
        q = j;
        q_increase = inc;
        break;
      }
      const double merit = std::abs(dj);
      if (merit > best_merit) {
        best_merit = merit;
        q = j;
        q_increase = inc;
      }
    }
    if (q < 0) return IterOutcome::Optimal;

    // w = Binv * A_q.
    std::fill(w.begin(), w.end(), 0.0);
    for (const Entry& e : t.cols[q]) {
      const double c = e.coef;
      const int r = e.row;
      for (int i = 0; i < t.m; ++i) {
        w[i] += t.binv[static_cast<std::size_t>(i) * t.m + r] * c;
      }
    }

    const double dir = q_increase ? 1.0 : -1.0;
    double step = kInfStep;
    int leave_row = -1;
    bool leave_at_lower = true;
    if (t.lo[q] > -kInfStep && t.hi[q] < kInfStep) {
      step = t.hi[q] - t.lo[q];  // bound-flip candidate
    }
    double best_pivot_mag = 0.0;
    for (int i = 0; i < t.m; ++i) {
      const double coef = w[i] * dir;  // xb_i changes by -coef * step
      const int bj = t.basis[i];
      double limit = kInfStep;
      bool hits_lower = true;
      if (coef > kEpsPivot) {
        if (t.lo[bj] <= -kInfStep) continue;
        limit = (t.xb[i] - t.lo[bj]) / coef;
        hits_lower = true;
      } else if (coef < -kEpsPivot) {
        if (t.hi[bj] >= kInfStep) continue;
        limit = (t.hi[bj] - t.xb[i]) / (-coef);
        hits_lower = false;
      } else {
        continue;
      }
      limit = std::max(limit, 0.0);
      const bool strictly_better = limit < step - kEpsRatio;
      const bool tie_better = limit < step + kEpsRatio &&
                              std::abs(w[i]) > best_pivot_mag;
      if (strictly_better || (tie_better && leave_row >= 0) ||
          (limit < step && leave_row < 0)) {
        step = limit;
        leave_row = i;
        leave_at_lower = hits_lower;
        best_pivot_mag = std::abs(w[i]);
      }
    }
    if (step >= kInfStep) return IterOutcome::Unbounded;
    degenerate_run = (step <= kEpsRatio) ? degenerate_run + 1 : 0;

    if (leave_row < 0) {
      // Bound flip: the entering variable crosses to its opposite bound.
      for (int i = 0; i < t.m; ++i) t.xb[i] -= w[i] * dir * step;
      t.status[q] = q_increase ? ColStatus::AtUpper : ColStatus::AtLower;
      continue;
    }

    // Basis change: q enters at leave_row.
    const double entering_value = t.nb_value(q) + dir * step;
    const int leaving_col = t.basis[leave_row];
    for (int i = 0; i < t.m; ++i) {
      if (i != leave_row) t.xb[i] -= w[i] * dir * step;
    }
    const double piv = w[leave_row];
    RS_CHECK(std::abs(piv) > kEpsPivot);
    double* prow = &t.binv[static_cast<std::size_t>(leave_row) * t.m];
    for (int k = 0; k < t.m; ++k) prow[k] /= piv;
    for (int i = 0; i < t.m; ++i) {
      if (i == leave_row || w[i] == 0.0) continue;
      const double f = w[i];
      double* row = &t.binv[static_cast<std::size_t>(i) * t.m];
      for (int k = 0; k < t.m; ++k) row[k] -= f * prow[k];
    }
    t.basis[leave_row] = q;
    t.status[q] = ColStatus::Basic;
    t.xb[leave_row] = entering_value;
    t.status[leaving_col] =
        leave_at_lower ? ColStatus::AtLower : ColStatus::AtUpper;

    if (++since_refactor >= kRefactorPeriod) {
      since_refactor = 0;
      // A numerically singular basis ends this LP only: every solve builds
      // a fresh tableau, and the caller treats a non-optimal LP as an
      // unproven subtree.
      if (!t.refactorize()) return IterOutcome::IterLimit;
    }
  }
  return IterOutcome::IterLimit;
}

}  // namespace

SimplexSolver::SimplexSolver(const Model& model)
    : n_(model.var_count()),
      m_(model.constraint_count()),
      maximize_(model.maximize()) {
  cols_.resize(n_);
  for (int r = 0; r < m_; ++r) {
    const ConstraintInfo& c = model.constraints()[r];
    for (std::size_t i = 0; i < c.expr.vars().size(); ++i) {
      cols_[c.expr.vars()[i]].push_back(ColEntry{r, c.expr.coefs()[i]});
    }
    rhs_.push_back(c.rhs);
    switch (c.sense) {
      case Sense::LE:
        slack_lo_.push_back(0.0);
        slack_hi_.push_back(kInf);
        break;
      case Sense::GE:
        slack_lo_.push_back(-kInf);
        slack_hi_.push_back(0.0);
        break;
      case Sense::EQ:
        slack_lo_.push_back(0.0);
        slack_hi_.push_back(0.0);
        break;
    }
  }
  cost_.assign(n_, 0.0);
  const LinExpr& obj = model.objective();
  const double sign = maximize_ ? -1.0 : 1.0;  // internal sense: minimize
  for (std::size_t i = 0; i < obj.vars().size(); ++i) {
    cost_[obj.vars()[i]] += sign * obj.coefs()[i];
  }
  cost_const_ = sign * obj.constant();
  lo_default_.resize(n_);
  hi_default_.resize(n_);
  for (int j = 0; j < n_; ++j) {
    lo_default_[j] = model.var(j).lo;
    hi_default_[j] = model.var(j).hi;
  }
}

LpResult SimplexSolver::solve(int max_iterations,
                              const std::function<bool()>& stop) const {
  return solve_with_bounds(lo_default_, hi_default_, max_iterations, stop);
}

LpResult SimplexSolver::solve_with_bounds(const std::vector<double>& lo,
                                          const std::vector<double>& hi,
                                          int max_iterations,
                                          const std::function<bool()>& stop)
    const {
  RS_REQUIRE(static_cast<int>(lo.size()) == n_ &&
                 static_cast<int>(hi.size()) == n_,
             "bound override size mismatch");
  Tableau t;
  t.m = m_;
  t.rhs = rhs_;
  const int base_cols = n_ + m_;
  t.cols.resize(base_cols);
  t.lo.resize(base_cols);
  t.hi.resize(base_cols);
  for (int j = 0; j < n_; ++j) {
    for (const ColEntry& e : cols_[j]) t.cols[j].push_back(Entry{e.row, e.coef});
    t.lo[j] = lo[j];
    t.hi[j] = hi[j];
    if (t.lo[j] > t.hi[j]) {  // empty domain: trivially infeasible node
      LpResult res;
      res.status = LpStatus::Infeasible;
      return res;
    }
  }
  for (int r = 0; r < m_; ++r) {
    const int j = n_ + r;
    t.cols[j].push_back(Entry{r, 1.0});
    t.lo[j] = slack_lo_[r];
    t.hi[j] = slack_hi_[r];
  }

  // Initial point: structural nonbasic at a finite bound, slacks basic.
  t.status.assign(base_cols, ColStatus::AtLower);
  for (int j = 0; j < n_; ++j) {
    if (t.lo[j] > -kInfStep) {
      t.status[j] = ColStatus::AtLower;
    } else if (t.hi[j] < kInfStep) {
      t.status[j] = ColStatus::AtUpper;
    } else {
      t.status[j] = ColStatus::FreeAtZero;
    }
  }
  t.basis.resize(m_);
  t.binv.assign(static_cast<std::size_t>(m_) * m_, 0.0);
  t.xb.assign(m_, 0.0);
  for (int r = 0; r < m_; ++r) {
    t.basis[r] = n_ + r;
    t.status[n_ + r] = ColStatus::Basic;
    t.binv[static_cast<std::size_t>(r) * m_ + r] = 1.0;
  }
  t.recompute_xb();

  // Phase 1: cover infeasible basic slacks with artificials.
  bool need_phase1 = false;
  for (int r = 0; r < m_; ++r) {
    const int sj = n_ + r;
    const double v = t.xb[r];
    if (v >= t.lo[sj] - kEpsFeas && v <= t.hi[sj] + kEpsFeas) continue;
    need_phase1 = true;
    // Park the slack at the violated bound; a fresh artificial column takes
    // its basic slot carrying the (nonnegative) residual.
    const bool below = v < t.lo[sj];
    const double target = below ? t.lo[sj] : t.hi[sj];
    const double resid = v - target;
    const int aj = static_cast<int>(t.cols.size());
    t.cols.push_back({Entry{r, resid >= 0 ? 1.0 : -1.0}});
    t.lo.push_back(0.0);
    t.hi.push_back(kInf);
    t.status.push_back(ColStatus::Basic);
    t.status[sj] = below ? ColStatus::AtLower : ColStatus::AtUpper;
    t.basis[r] = aj;
  }
  int phase1_used = 0;
  if (need_phase1) {
    // Basis changed structurally; rebuild the inverse and values.
    if (!t.refactorize()) {
      LpResult res;
      res.status = LpStatus::IterLimit;
      return res;
    }
    t.phase_cost.assign(t.cols.size(), 0.0);
    for (int j = base_cols; j < static_cast<int>(t.cols.size()); ++j) {
      t.phase_cost[j] = 1.0;
    }
    int budget = max_iterations;
    const IterOutcome outcome = iterate(t, budget, stop);
    phase1_used = max_iterations - budget;
    if (outcome == IterOutcome::IterLimit) {
      LpResult res;
      res.status = LpStatus::IterLimit;
      res.phase1_iterations = phase1_used;
      return res;
    }
    RS_CHECK(outcome != IterOutcome::Unbounded);  // phase-1 cost bounded below
    double infeas = 0.0;
    for (int r = 0; r < m_; ++r) {
      if (t.basis[r] >= base_cols) infeas += std::abs(t.xb[r]);
    }
    if (infeas > 1e-6) {
      LpResult res;
      res.status = LpStatus::Infeasible;
      res.phase1_iterations = phase1_used;
      return res;
    }
    // Freeze artificials at zero for phase 2.
    for (int j = base_cols; j < static_cast<int>(t.cols.size()); ++j) {
      t.hi[j] = 0.0;
    }
  }

  // Phase 2.
  t.phase_cost.assign(t.cols.size(), 0.0);
  for (int j = 0; j < n_; ++j) t.phase_cost[j] = cost_[j];
  int budget = max_iterations;
  const IterOutcome outcome = iterate(t, budget, stop);
  LpResult res;
  res.iterations = max_iterations - budget;
  res.phase1_iterations = phase1_used;
  switch (outcome) {
    case IterOutcome::Unbounded:
      res.status = LpStatus::Unbounded;
      return res;
    case IterOutcome::IterLimit:
      res.status = LpStatus::IterLimit;
      return res;
    case IterOutcome::Optimal:
      break;
  }
  res.status = LpStatus::Optimal;
  res.x.assign(n_, 0.0);
  for (int j = 0; j < n_; ++j) {
    if (t.status[j] != ColStatus::Basic) res.x[j] = t.nb_value(j);
  }
  for (int r = 0; r < m_; ++r) {
    if (t.basis[r] < n_) res.x[t.basis[r]] = t.xb[r];
  }
  double obj = cost_const_;
  for (int j = 0; j < n_; ++j) obj += cost_[j] * res.x[j];
  res.objective = maximize_ ? -obj : obj;
  return res;
}

}  // namespace rs::lp
