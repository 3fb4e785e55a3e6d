#include "solver/nnls.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "common/trace.h"

namespace sel {
namespace {

/// A column whose Gram–Schmidt residual is at most this fraction of its
/// own norm lies in the span of the passive columns (duplicate bucket
/// columns are the common case): it gets a zero diagonal, hence a zero
/// coefficient, instead of a roundoff-sized pivot.
constexpr double kRankTol = 1e-12;

/// Thin QR factorization A_P = Q R of the passive columns of A, with
/// Q^T b kept alongside. Columns enter by two-pass modified Gram–Schmidt
/// and leave by Givens rotations, so each passive-set least-squares
/// solve is a back-substitution instead of a fresh factorization. Q is
/// stored by column, R by column (column k holds rows 0..k).
class PassiveQr {
 public:
  PassiveQr(const DenseMatrix& a, const Vector& b) : a_(a), b_(b) {}

  int size() const { return static_cast<int>(cols_.size()); }

  /// Passive column indices in factorization order.
  const std::vector<int>& cols() const { return cols_; }

  /// Appends column j of A: one new R column and one new Q^T b entry.
  void Append(int j) {
    const int m = a_.rows();
    const int k = size();
    const SimdOps& ops = Simd();
    Vector q(m);
    for (int i = 0; i < m; ++i) q[i] = a_.at(i, j);
    const double norm = std::sqrt(ops.squared_norm(q.data(), m));
    Vector r(k + 1, 0.0);
    for (int pass = 0; pass < 2; ++pass) {
      for (int c = 0; c < k; ++c) {
        const double proj = ops.dot(q_[c].data(), q.data(), m);
        r[c] += proj;
        ops.axpy(-proj, q_[c].data(), q.data(), m);
      }
    }
    const double rho = std::sqrt(ops.squared_norm(q.data(), m));
    double qtb = 0.0;
    if (k < m && rho > kRankTol * norm) {
      for (double& v : q) v /= rho;
      r[k] = rho;
      qtb = ops.dot(q.data(), b_.data(), m);
    } else {
      std::fill(q.begin(), q.end(), 0.0);  // dependent: zero diagonal
    }
    cols_.push_back(j);
    q_.push_back(std::move(q));
    r_.push_back(std::move(r));
    qtb_.push_back(qtb);
  }

  /// Removes the column at factorization position p and restores the
  /// triangle with Givens rotations on R's rows, Q's columns and Q^T b.
  void Remove(int p) {
    SEL_DCHECK(p >= 0 && p < size());
    cols_.erase(cols_.begin() + p);
    r_.erase(r_.begin() + p);
    // R is now upper Hessenberg from column p on: column i carries a
    // subdiagonal entry at row i + 1, which rotation i annihilates.
    const int k = size();
    const size_t m = static_cast<size_t>(a_.rows());
    for (int i = p; i < k; ++i) {
      Vector& ri = r_[i];
      const double h = std::hypot(ri[i], ri[i + 1]);
      if (h == 0.0) {
        ri.pop_back();
        continue;
      }
      const double c = ri[i] / h;
      const double s = ri[i + 1] / h;
      ri[i] = h;
      ri.pop_back();
      for (int col = i + 1; col < k; ++col) {
        Rotate(c, s, &r_[col][i], &r_[col][i + 1]);
      }
      double* qi = q_[i].data();
      double* qn = q_[i + 1].data();
      for (size_t t = 0; t < m; ++t) Rotate(c, s, &qi[t], &qn[t]);
      Rotate(c, s, &qtb_[i], &qtb_[i + 1]);
    }
    q_.pop_back();
    qtb_.pop_back();
  }

  /// Least-squares coefficients on the passive columns, in
  /// factorization order: back-substitution R z = Q^T b. A zero
  /// diagonal (dependent column) yields a zero coefficient.
  Vector Solve() const {
    const int k = size();
    const SimdOps& ops = Simd();
    Vector rhs = qtb_;
    Vector z(k, 0.0);
    for (int i = k - 1; i >= 0; --i) {
      const double diag = r_[i][i];
      if (diag == 0.0) continue;
      z[i] = rhs[i] / diag;
      ops.axpy(-z[i], r_[i].data(), rhs.data(), static_cast<size_t>(i));
    }
    return z;
  }

 private:
  /// (x, y) <- (c x + s y, -s x + c y).
  static void Rotate(double c, double s, double* x, double* y) {
    const double u = *x;
    const double v = *y;
    *x = c * u + s * v;
    *y = c * v - s * u;
  }

  const DenseMatrix& a_;
  const Vector& b_;
  std::vector<int> cols_;
  std::vector<Vector> q_;
  std::vector<Vector> r_;
  Vector qtb_;
};

}  // namespace

Result<NnlsResult> SolveNnls(const DenseMatrix& a, const Vector& b,
                             const NnlsOptions& options) {
  const int m = a.rows();
  const int n = a.cols();
  if (static_cast<int>(b.size()) != m) {
    return Status::InvalidArgument("NNLS: rhs size does not match rows");
  }
  if (n == 0) {
    return NnlsResult{Vector{}, std::sqrt(SquaredNorm(b)), 0};
  }
  SEL_TRACE_SPAN("solver.nnls");
  SEL_METRIC_COUNTER_INC("solver.nnls.attempts");
  if (SEL_FAULT_POINT("nnls.fail")) {
    return Status::Internal("injected fault: nnls.fail");
  }
  // Injected limit: zero outer budget leaves x = 0, a feasible iterate
  // with the KKT conditions unchecked — the real cap-exhausted state.
  const int max_iter =
      SEL_FAULT_POINT("nnls.force_iteration_limit")
          ? 0
          : (options.max_iterations > 0 ? options.max_iterations
                                        : 3 * n + 30);
  const double tol = options.tolerance;

  Vector x(n, 0.0);
  std::vector<bool> passive(n, false);
  PassiveQr qr(a, b);
  bool kkt_satisfied = false;
  Vector w = a.ApplyTranspose(b);  // gradient of -0.5||Ax-b||^2 at x=0

  int iterations = 0;
  bool deadline_hit = false;
  while (iterations < max_iter) {
    // Cooperative cancellation at the outer-pass boundary: x is a
    // feasible (nonnegative) active-set iterate here, so stopping early
    // degrades to an iteration-limit-style exit instead of an abort.
    if (DeadlineExpired()) {
      deadline_hit = true;
      break;
    }
    // Select the most violated dual coordinate among the active set.
    int best = -1;
    double best_w = tol;
    for (int j = 0; j < n; ++j) {
      if (!passive[j] && w[j] > best_w) {
        best_w = w[j];
        best = j;
      }
    }
    if (best < 0) {
      kkt_satisfied = true;
      break;
    }
    ++iterations;

    // Entering-column test (Lawson–Hanson): a candidate whose trial
    // coefficient is not positive would be dropped again at step zero,
    // leaving the dual unchanged — so reject it until the next dual
    // refresh instead of reselecting it forever.
    qr.Append(best);
    Vector z = qr.Solve();
    if (z.back() <= tol) {
      qr.Remove(qr.size() - 1);
      w[best] = 0.0;
      continue;
    }
    passive[best] = true;

    // Inner loop: walk back along the segment while any passive
    // coordinate of the least-squares solution is not positive.
    for (int inner = 0; inner < max_iter; ++inner) {
      const std::vector<int>& cols = qr.cols();
      bool all_positive = true;
      for (double zj : z) {
        if (zj <= tol) {
          all_positive = false;
          break;
        }
      }
      if (all_positive) {
        for (size_t p = 0; p < cols.size(); ++p) x[cols[p]] = z[p];
        break;
      }
      // Step length: largest alpha in (0,1] keeping x + alpha (z - x) >= 0.
      double alpha = 1.0;
      for (size_t p = 0; p < cols.size(); ++p) {
        if (z[p] <= tol) {
          const double xj = x[cols[p]];
          if (xj - z[p] > 0.0) {
            alpha = std::min(alpha, xj / (xj - z[p]));
          } else {
            alpha = 0.0;
          }
        }
      }
      // Step, then drop every coordinate that reached zero (back to
      // front, so earlier factorization positions stay valid).
      for (size_t p = 0; p < cols.size(); ++p) {
        const int col = cols[p];
        x[col] += alpha * (z[p] - x[col]);
      }
      for (int p = qr.size() - 1; p >= 0; --p) {
        const int col = qr.cols()[p];
        if (x[col] <= tol) {
          x[col] = 0.0;
          passive[col] = false;
          qr.Remove(p);
        }
      }
      z = qr.Solve();
    }

    // Refresh the dual vector w = A^T (b - A x).
    Vector r = a.Apply(x);
    for (int i = 0; i < m; ++i) r[i] = b[i] - r[i];
    w = a.ApplyTranspose(r);
    for (int j = 0; j < n; ++j) {
      if (passive[j]) w[j] = 0.0;  // already in the basis
    }
  }

  NnlsResult out;
  out.x = std::move(x);
  out.residual_norm = std::sqrt(SquaredNorm(Residual(a, out.x, b)));
  out.iterations = iterations;
  out.converged = kkt_satisfied;
  out.termination = kkt_satisfied  ? SolverTermination::kConverged
                    : deadline_hit ? SolverTermination::kDeadlineExceeded
                                   : SolverTermination::kIterationLimit;
  return out;
}

}  // namespace sel
