// Non-negative least squares, the optimizer the paper uses for weight
// estimation (§3.1 cites scipy.optimize.nnls, which wraps Lawson–Hanson).
//
// Like scipy's routine, the solver keeps one thin QR factorization of
// the passive columns, A_P = Q R, with Q^T b alongside, and updates it
// as the passive set changes: an entering column is orthogonalized
// against Q by two Gram–Schmidt passes (O(m |P|)), a column dropped by
// the walk-back is deleted from R and the triangle restored with Givens
// rotations on R, Q and Q^T b. Each passive-set least-squares solve is
// then a back-substitution, O(|P|^2). A candidate column whose trial
// coefficient is not positive fails Lawson–Hanson's entering-column
// test: it is rejected until the next dual refresh rather than
// reselected, which would otherwise cycle to the iteration cap.
#ifndef SEL_SOLVER_NNLS_H_
#define SEL_SOLVER_NNLS_H_

#include "common/status.h"
#include "solver/dense.h"
#include "solver/termination.h"

namespace sel {

/// Options for the Lawson–Hanson active-set iteration.
struct NnlsOptions {
  /// Maximum outer iterations; 0 means 3 * cols + 30. A rejected
  /// entering candidate counts as an iteration.
  int max_iterations = 0;
  /// Dual-feasibility tolerance on the gradient.
  double tolerance = 1e-10;
};

/// Result of an NNLS solve. `x` is feasible (nonnegative) even when
/// `converged` is false — it is the active-set iterate at the budget.
struct NnlsResult {
  Vector x;               ///< Solution with x >= 0.
  double residual_norm;   ///< ||A x - b||_2.
  int iterations;         ///< Outer iterations used.
  bool converged = true;  ///< False iff the outer loop hit its cap.
  SolverTermination termination = SolverTermination::kConverged;
};

/// Solves min_x ||A x - b||_2 subject to x >= 0 with the Lawson–Hanson
/// active-set algorithm (least-squares subproblems on the incrementally
/// updated passive-set QR). A candidate numerically dependent on the
/// passive columns gets a zero trial coefficient and is rejected.
Result<NnlsResult> SolveNnls(const DenseMatrix& a, const Vector& b,
                             const NnlsOptions& options = {});

}  // namespace sel

#endif  // SEL_SOLVER_NNLS_H_
