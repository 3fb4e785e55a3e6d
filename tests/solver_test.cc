// Tests for the solver substrate: dense/sparse linear algebra, QR least
// squares, Lawson–Hanson NNLS, simplex projection, the Eq. (8) QP, the
// two-phase simplex LP, and the §4.6 Chebyshev (L∞) fit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/simd.h"
#include "geometry/point.h"
#include "solver/lp.h"
#include "solver/nnls.h"
#include "solver/qp.h"
#include "solver/simplex_projection.h"
#include "solver/sparse.h"

namespace sel {
namespace {

// ---------- Dense / sparse linear algebra ----------

TEST(DenseMatrixTest, ApplyAndTranspose) {
  DenseMatrix a(2, 3);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(0, 2) = 3;
  a.at(1, 0) = 4;
  a.at(1, 1) = 5;
  a.at(1, 2) = 6;
  const Vector y = a.Apply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  const Vector z = a.ApplyTranspose({1.0, 1.0});
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[1], 7.0);
  EXPECT_DOUBLE_EQ(z[2], 9.0);
}

TEST(SparseMatrixTest, FromTripletsSumsDuplicates) {
  auto m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.0}, {1, 1, 5.0}});
  const auto d = m.ToDense();
  EXPECT_DOUBLE_EQ(d.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(d.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(d.at(1, 1), 5.0);
  EXPECT_EQ(m.nnz(), 2u);
}

TEST(SparseMatrixTest, ApplyMatchesDense) {
  Rng rng(21);
  std::vector<Triplet> t;
  const int rows = 13, cols = 17;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (rng.NextDouble() < 0.3) {
        t.push_back({i, j, rng.Uniform(-1.0, 1.0)});
      }
    }
  }
  const auto sp = SparseMatrix::FromTriplets(rows, cols, t);
  const auto de = sp.ToDense();
  Vector x(cols), y(rows);
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  for (auto& v : y) v = rng.Uniform(-1.0, 1.0);
  const Vector ax1 = sp.Apply(x), ax2 = de.Apply(x);
  const Vector aty1 = sp.ApplyTranspose(y), aty2 = de.ApplyTranspose(y);
  for (int i = 0; i < rows; ++i) EXPECT_NEAR(ax1[i], ax2[i], 1e-12);
  for (int j = 0; j < cols; ++j) EXPECT_NEAR(aty1[j], aty2[j], 1e-12);
}

TEST(SparseMatrixTest, FromRowsLayout) {
  std::vector<std::vector<std::pair<int, double>>> rows(2);
  rows[0] = {{1, 2.0}};
  rows[1] = {{0, 3.0}, {2, 4.0}};
  const auto m = SparseMatrix::FromRows(3, rows);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  const Vector y = m.Apply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

// ---------- QR least squares ----------

// From-scratch Householder QR least squares, min ||A x - b|| (no column
// pivoting; a tiny pivot zeroes its component). The reference oracle
// for the incrementally updated passive-set QR inside SolveNnls.
Vector SolveLeastSquaresQr(const DenseMatrix& a, const Vector& b) {
  const int m = a.rows();
  const int n = a.cols();
  SEL_CHECK(static_cast<int>(b.size()) == m);
  SEL_CHECK(n <= m);

  DenseMatrix r = a;
  Vector qtb = b;
  for (int k = 0; k < n; ++k) {
    // Householder reflector for column k below the diagonal.
    double norm = 0.0;
    for (int i = k; i < m; ++i) norm += r.at(i, k) * r.at(i, k);
    norm = std::sqrt(norm);
    if (norm < 1e-14) continue;  // (near-)rank-deficient column
    const double alpha = r.at(k, k) >= 0.0 ? -norm : norm;
    Vector v(m - k);
    v[0] = r.at(k, k) - alpha;
    for (int i = k + 1; i < m; ++i) v[i - k] = r.at(i, k);
    double vtv = 0.0;
    for (double x : v) vtv += x * x;
    if (vtv < 1e-28) continue;
    // Apply I - 2 v v^T / (v^T v) to the remaining columns and to qtb.
    for (int j = k; j < n; ++j) {
      double dot = 0.0;
      for (int i = k; i < m; ++i) dot += v[i - k] * r.at(i, j);
      const double f = 2.0 * dot / vtv;
      for (int i = k; i < m; ++i) r.at(i, j) -= f * v[i - k];
    }
    double dot = 0.0;
    for (int i = k; i < m; ++i) dot += v[i - k] * qtb[i];
    const double f = 2.0 * dot / vtv;
    for (int i = k; i < m; ++i) qtb[i] -= f * v[i - k];
  }

  Vector x(n, 0.0);
  for (int k = n - 1; k >= 0; --k) {
    double s = qtb[k];
    for (int j = k + 1; j < n; ++j) s -= r.at(k, j) * x[j];
    const double diag = r.at(k, k);
    x[k] = std::abs(diag) < 1e-12 ? 0.0 : s / diag;
  }
  return x;
}

TEST(QrLeastSquaresTest, ExactSquareSystem) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 2;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 3;
  const Vector x = SolveLeastSquaresQr(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
}

TEST(QrLeastSquaresTest, OverdeterminedRecoversPlantedSolution) {
  Rng rng(22);
  const int m = 30, n = 6;
  DenseMatrix a(m, n);
  Vector truth(n);
  for (auto& v : truth) v = rng.Uniform(-2.0, 2.0);
  Vector b(m, 0.0);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      a.at(i, j) = rng.Uniform(-1.0, 1.0);
      b[i] += a.at(i, j) * truth[j];
    }
  }
  const Vector x = SolveLeastSquaresQr(a, b);
  for (int j = 0; j < n; ++j) EXPECT_NEAR(x[j], truth[j], 1e-8);
}

TEST(QrLeastSquaresTest, ResidualOrthogonalToColumns) {
  Rng rng(23);
  const int m = 20, n = 5;
  DenseMatrix a(m, n);
  Vector b(m);
  for (int i = 0; i < m; ++i) {
    b[i] = rng.Uniform(-1.0, 1.0);
    for (int j = 0; j < n; ++j) a.at(i, j) = rng.Uniform(-1.0, 1.0);
  }
  const Vector x = SolveLeastSquaresQr(a, b);
  const Vector r = Residual(a, x, b);
  const Vector atr = a.ApplyTranspose(r);
  for (int j = 0; j < n; ++j) EXPECT_NEAR(atr[j], 0.0, 1e-8);
}

// ---------- NNLS ----------

TEST(NnlsTest, UnconstrainedOptimumAlreadyNonnegative) {
  DenseMatrix a(3, 2);
  a.at(0, 0) = 1;
  a.at(1, 1) = 1;
  a.at(2, 0) = 1;
  a.at(2, 1) = 1;
  const Vector b = {1.0, 2.0, 3.0};
  auto res = SolveNnls(a, b);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res.value().x[0], 1.0, 1e-8);
  EXPECT_NEAR(res.value().x[1], 2.0, 1e-8);
}

TEST(NnlsTest, ClampsNegativeComponent) {
  // min (x0 - (-1))^2 + (x1 - 2)^2 over x >= 0: x0 = 0, x1 = 2.
  DenseMatrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(1, 1) = 1;
  auto res = SolveNnls(a, {-1.0, 2.0});
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res.value().x[0], 0.0, 1e-10);
  EXPECT_NEAR(res.value().x[1], 2.0, 1e-10);
  EXPECT_NEAR(res.value().residual_norm, 1.0, 1e-10);
}

TEST(NnlsTest, MatchesProjectedGradientOnRandomProblems) {
  Rng rng(24);
  for (int t = 0; t < 10; ++t) {
    const int m = 12, n = 6;
    DenseMatrix a(m, n);
    Vector b(m);
    for (int i = 0; i < m; ++i) {
      b[i] = rng.NextDouble();
      for (int j = 0; j < n; ++j) a.at(i, j) = rng.NextDouble();
    }
    auto nnls = SolveNnls(a, b);
    ASSERT_TRUE(nnls.ok());
    // KKT: gradient must be >= -tol on active coordinates, ~0 on passive.
    const Vector r = Residual(a, nnls.value().x, b);
    const Vector g = a.ApplyTranspose(r);  // gradient of 0.5||Ax-b||^2
    for (int j = 0; j < n; ++j) {
      if (nnls.value().x[j] > 1e-9) {
        EXPECT_NEAR(g[j], 0.0, 1e-7);
      } else {
        EXPECT_GE(g[j], -1e-7);
      }
    }
  }
}

TEST(NnlsTest, RhsSizeMismatchRejected) {
  DenseMatrix a(2, 2);
  auto res = SolveNnls(a, {1.0});
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

// ---------- NNLS properties ----------

// Seeded dense problem with signed entries, so a fair share of the
// unconstrained optimum is negative and the bounds bind.
void MakeDenseProblem(uint64_t seed, int m, int n, DenseMatrix* a,
                      Vector* b) {
  Rng rng(seed);
  *a = DenseMatrix(m, n);
  b->assign(m, 0.0);
  for (int i = 0; i < m; ++i) {
    (*b)[i] = rng.Uniform(-1.0, 1.0);
    for (int j = 0; j < n; ++j) a->at(i, j) = rng.Uniform(-1.0, 1.0);
  }
}

// A PtsHist-shaped Eq. (8) system as SolveSimplexLeastSquares hands it to
// NNLS: one 0/1 column per point (1 where the point lies in the query
// box), points mostly drawn inside the queries, every eighth column an
// exact duplicate of an earlier one, rhs the queries' selectivities on a
// clustered hidden sample, and the 1e3 sum-to-one penalty row last.
void MakePtsHistProblem(uint64_t seed, int queries, int points, int dim,
                        DenseMatrix* a, Vector* b) {
  Rng rng(seed);
  std::vector<Point> data(2000, Point(dim));
  for (auto& p : data) {
    const double center = rng.NextDouble() < 0.5 ? 0.3 : 0.7;
    for (auto& v : p) v = std::clamp(rng.Gaussian(center, 0.15), 0.0, 1.0);
  }
  std::vector<Point> lo(queries, Point(dim)), hi(queries, Point(dim));
  for (int i = 0; i < queries; ++i) {
    const Point& c = data[rng.UniformInt(data.size())];
    for (int d = 0; d < dim; ++d) {
      const double half = rng.Uniform(0.05, 0.4);
      lo[i][d] = std::max(0.0, c[d] - half);
      hi[i][d] = std::min(1.0, c[d] + half);
    }
  }
  auto inside = [&](const Point& p, int i) {
    for (int d = 0; d < dim; ++d) {
      if (p[d] < lo[i][d] || p[d] > hi[i][d]) return false;
    }
    return true;
  };
  std::vector<Point> buckets;
  for (int j = 0; j < points; ++j) {
    if (j % 8 == 7) {
      buckets.push_back(buckets[rng.UniformInt(buckets.size())]);
      continue;
    }
    Point p(dim);
    const int q = static_cast<int>(rng.UniformInt(queries));
    for (int d = 0; d < dim; ++d) {
      p[d] = rng.NextDouble() < 0.9 ? rng.Uniform(lo[q][d], hi[q][d])
                                    : rng.NextDouble();
    }
    buckets.push_back(std::move(p));
  }
  constexpr double kPenalty = 1e3;
  *a = DenseMatrix(queries + 1, points);
  b->assign(queries + 1, 0.0);
  for (int i = 0; i < queries; ++i) {
    int hits = 0;
    for (const Point& p : data) hits += inside(p, i) ? 1 : 0;
    (*b)[i] = static_cast<double>(hits) / data.size();
    for (int j = 0; j < points; ++j) {
      a->at(i, j) = inside(buckets[j], i) ? 1.0 : 0.0;
    }
  }
  for (int j = 0; j < points; ++j) a->at(queries, j) = kPenalty;
  (*b)[queries] = kPenalty;
}

// Checks a converged NNLS result: x >= 0, the KKT conditions (gradient
// zero on the support, nonnegative off it), and agreement on the final
// passive set with the from-scratch Householder oracle.
void ExpectNnlsOptimal(const DenseMatrix& a, const Vector& b,
                       const NnlsResult& res) {
  const int m = a.rows();
  const int n = a.cols();
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.termination, SolverTermination::kConverged);
  ASSERT_EQ(static_cast<int>(res.x.size()), n);
  for (double v : res.x) ASSERT_GE(v, 0.0);

  // Gradient of 0.5||Ax-b||^2, judged on the scale of ||a_j|| ||b||.
  const Vector g = a.ApplyTranspose(Residual(a, res.x, b));
  double max_col = 0.0;
  for (int j = 0; j < n; ++j) {
    double c = 0.0;
    for (int i = 0; i < m; ++i) c += a.at(i, j) * a.at(i, j);
    max_col = std::max(max_col, std::sqrt(c));
  }
  const double kkt_tol = 1e-9 * max_col * std::sqrt(SquaredNorm(b));
  std::vector<int> support;
  for (int j = 0; j < n; ++j) {
    if (res.x[j] > 0.0) {
      support.push_back(j);
      EXPECT_NEAR(g[j], 0.0, kkt_tol) << "support column " << j;
    } else {
      EXPECT_GE(g[j], -kkt_tol) << "bound column " << j;
    }
  }

  DenseMatrix sub(m, static_cast<int>(support.size()));
  for (int i = 0; i < m; ++i) {
    for (size_t k = 0; k < support.size(); ++k) {
      sub.at(i, static_cast<int>(k)) = a.at(i, support[k]);
    }
  }
  const Vector z = SolveLeastSquaresQr(sub, b);
  double diff = 0.0, ref = 0.0;
  for (size_t k = 0; k < support.size(); ++k) {
    diff += (res.x[support[k]] - z[k]) * (res.x[support[k]] - z[k]);
    ref += z[k] * z[k];
  }
  EXPECT_LE(std::sqrt(diff), 1e-9 * std::sqrt(ref));
}

TEST(NnlsPropertyTest, RandomDenseProblems) {
  const struct {
    int m, n;
  } kShapes[] = {{30, 10}, {20, 40}, {60, 60}, {120, 40}};
  uint64_t seed = 100;
  for (const auto& shape : kShapes) {
    for (int t = 0; t < 5; ++t) {
      SCOPED_TRACE(testing::Message() << shape.m << "x" << shape.n
                                      << " seed " << seed);
      DenseMatrix a;
      Vector b;
      MakeDenseProblem(seed++, shape.m, shape.n, &a, &b);
      auto res = SolveNnls(a, b);
      ASSERT_TRUE(res.ok());
      ExpectNnlsOptimal(a, b, res.value());
    }
  }
}

TEST(NnlsPropertyTest, PtsHistShapedProblems) {
  const struct {
    int queries, points, dim;
  } kShapes[] = {{48, 190, 2}, {100, 400, 3}, {300, 1200, 4}};
  uint64_t seed = 200;
  for (const auto& shape : kShapes) {
    for (int t = 0; t < 3; ++t) {
      SCOPED_TRACE(testing::Message() << shape.queries + 1 << "x"
                                      << shape.points << " seed " << seed);
      DenseMatrix a;
      Vector b;
      MakePtsHistProblem(seed++, shape.queries, shape.points, shape.dim, &a,
                         &b);
      auto res = SolveNnls(a, b);
      ASSERT_TRUE(res.ok());
      ExpectNnlsOptimal(a, b, res.value());
    }
  }
}

TEST(NnlsPropertyTest, DependentCandidateIsRejectedNotReselected) {
  // A 49x190 PtsHist-shaped system (the size of an online polish solve).
  // Some candidates lie in the span of the passive columns, so their
  // trial coefficient is zero while roundoff on the 1e3-scaled columns
  // leaves their dual just above the tolerance. Without the entering-
  // column test such a candidate is dropped at step zero, the dual does
  // not change, and the same column is selected again until the
  // 3n + 30 cap; with it the solve converges in a few hundred passes.
  DenseMatrix a;
  Vector b;
  MakePtsHistProblem(200, 48, 190, 2, &a, &b);
  auto res = SolveNnls(a, b);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().termination, SolverTermination::kConverged);
  EXPECT_LT(res.value().iterations, 3 * a.cols() + 30);
  ExpectNnlsOptimal(a, b, res.value());
}

TEST(NnlsPropertyTest, WalkBackDropsSeveralColumnsInOnePass) {
  // Columns e_1..e_k and t*1, rhs (1, ..., 1, c). The unit columns enter
  // first, one per pass (dual 1 against t(k + c) < 1). The dense column
  // then enters with dual t*c, and the least-squares solve on all k+1
  // columns gives it c/t while every unit column drops to 1 - c < 0:
  // the walk-back must delete all k passive columns within that one
  // pass, leaving the dense column alone at its 1-D optimum.
  constexpr int k = 5;
  constexpr double t = 0.1, c = 2.0;
  DenseMatrix a(k + 1, k + 1);
  Vector b(k + 1, 1.0);
  b[k] = c;
  for (int i = 0; i <= k; ++i) {
    if (i < k) a.at(i, i) = 1.0;
    a.at(i, k) = t;
  }
  auto res = SolveNnls(a, b);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().iterations, k + 1);  // no pass after the drop
  for (int j = 0; j < k; ++j) EXPECT_EQ(res.value().x[j], 0.0);
  EXPECT_NEAR(res.value().x[k], (k + c) / (t * (k + 1)), 1e-12);
  ExpectNnlsOptimal(a, b, res.value());
}

TEST(NnlsPropertyTest, BitIdenticalAcrossSimdLevels) {
  // The column work runs through the blocked-order SIMD kernels, so the
  // iterate must not depend on the dispatch level (levels above what the
  // host supports clamp down).
  DenseMatrix a;
  Vector b;
  MakePtsHistProblem(210, 100, 400, 3, &a, &b);
  const SimdLevel prev = ActiveSimdLevel();
  SetSimdLevel(SimdLevel::kScalar);
  auto ref = SolveNnls(a, b);
  ASSERT_TRUE(ref.ok());
  for (SimdLevel level : {SimdLevel::kSse2, SimdLevel::kAvx2}) {
    SetSimdLevel(level);
    auto res = SolveNnls(a, b);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.value().iterations, ref.value().iterations);
    EXPECT_EQ(res.value().x, ref.value().x) << SimdLevelName(level);
  }
  SetSimdLevel(prev);
}

// ---------- Simplex projection ----------

TEST(SimplexProjectionTest, AlreadyOnSimplexIsFixed) {
  Vector v = {0.2, 0.3, 0.5};
  ProjectToSimplex(&v);
  EXPECT_NEAR(v[0], 0.2, 1e-12);
  EXPECT_NEAR(v[1], 0.3, 1e-12);
  EXPECT_NEAR(v[2], 0.5, 1e-12);
}

TEST(SimplexProjectionTest, UniformFromZero) {
  Vector v = {0.0, 0.0, 0.0, 0.0};
  ProjectToSimplex(&v);
  for (double x : v) EXPECT_NEAR(x, 0.25, 1e-12);
}

TEST(SimplexProjectionTest, DominantCoordinateSaturates) {
  Vector v = {10.0, 0.0, 0.0};
  ProjectToSimplex(&v);
  EXPECT_NEAR(v[0], 1.0, 1e-12);
  EXPECT_NEAR(v[1], 0.0, 1e-12);
}

TEST(SimplexProjectionTest, ResultAlwaysFeasibleAndClosest) {
  Rng rng(25);
  for (int t = 0; t < 50; ++t) {
    const int n = 2 + static_cast<int>(rng.UniformInt(8));
    Vector v(n);
    for (auto& x : v) x = rng.Uniform(-2.0, 2.0);
    const Vector p = SimplexProjection(v);
    double sum = 0.0;
    for (double x : p) {
      EXPECT_GE(x, -1e-12);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // Optimality: projection is no farther than random feasible points.
    const double dp = SquaredDistance(p, v);
    for (int k = 0; k < 20; ++k) {
      Vector q(n);
      double qs = 0.0;
      for (auto& x : q) {
        x = rng.NextDouble();
        qs += x;
      }
      for (auto& x : q) x /= qs;
      EXPECT_LE(dp, SquaredDistance(q, v) + 1e-9);
    }
  }
}

TEST(SimplexProjectionTest, CustomTotalMass) {
  Vector v = {1.0, 2.0, 3.0};
  ProjectToSimplex(&v, 2.0);
  double sum = 0.0;
  for (double x : v) sum += x;
  EXPECT_NEAR(sum, 2.0, 1e-9);
}

// ---------- Eq. (8): simplex-constrained least squares ----------

TEST(SimplexLsqTest, RecoversPlantedSimplexWeights) {
  Rng rng(26);
  const int n = 40, m = 5;
  Vector truth = {0.1, 0.4, 0.2, 0.05, 0.25};
  DenseMatrix a(n, m);
  Vector s(n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      a.at(i, j) = rng.NextDouble();
      s[i] += a.at(i, j) * truth[j];
    }
  }
  auto res = SolveSimplexLeastSquares(a, s);
  ASSERT_TRUE(res.ok());
  EXPECT_LT(res.value().loss, 1e-10);
  for (int j = 0; j < m; ++j) EXPECT_NEAR(res.value().w[j], truth[j], 1e-3);
}

TEST(SimplexLsqTest, NnlsModeMatchesProjectedGradient) {
  Rng rng(27);
  const int n = 30, m = 6;
  DenseMatrix a(n, m);
  Vector s(n);
  for (int i = 0; i < n; ++i) {
    s[i] = rng.NextDouble() * 0.5;
    for (int j = 0; j < m; ++j) a.at(i, j) = rng.NextDouble();
  }
  SimplexLsqOptions pg;
  SimplexLsqOptions nn;
  nn.method = SimplexLsqOptions::Method::kNnls;
  auto r1 = SolveSimplexLeastSquares(a, s, pg);
  auto r2 = SolveSimplexLeastSquares(a, s, nn);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // Same convex objective: losses agree even if weights differ.
  EXPECT_NEAR(r1.value().loss, r2.value().loss, 2e-3);
}

TEST(SimplexLsqTest, SparseMatchesDense) {
  Rng rng(28);
  const int n = 25, m = 10;
  std::vector<Triplet> t;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      if (rng.NextDouble() < 0.4) t.push_back({i, j, rng.NextDouble()});
    }
  }
  const auto sp = SparseMatrix::FromTriplets(n, m, t);
  const auto de = sp.ToDense();
  Vector s(n);
  for (auto& v : s) v = rng.NextDouble() * 0.3;
  auto r1 = SolveSimplexLeastSquares(de, s);
  auto r2 = SolveSimplexLeastSquares(sp, s);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_NEAR(r1.value().loss, r2.value().loss, 1e-6);
}

TEST(SimplexLsqTest, WeightsAlwaysOnSimplex) {
  Rng rng(29);
  const int n = 15, m = 8;
  DenseMatrix a(n, m);
  Vector s(n);
  for (int i = 0; i < n; ++i) {
    s[i] = rng.NextDouble();
    for (int j = 0; j < m; ++j) a.at(i, j) = rng.NextDouble() * 0.1;
  }
  auto res = SolveSimplexLeastSquares(a, s);
  ASSERT_TRUE(res.ok());
  double sum = 0.0;
  for (double w : res.value().w) {
    EXPECT_GE(w, -1e-12);
    sum += w;
  }
  EXPECT_NEAR(sum, 1.0, 1e-8);
}

TEST(SimplexLsqTest, RidgeFlattensWeights) {
  // Two identical columns: ridge prefers splitting the mass evenly.
  DenseMatrix a(4, 2);
  for (int i = 0; i < 4; ++i) {
    a.at(i, 0) = 0.5;
    a.at(i, 1) = 0.5;
  }
  const Vector s(4, 0.5);
  SimplexLsqOptions opts;
  opts.ridge = 1.0;
  auto res = SolveSimplexLeastSquares(a, s, opts);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res.value().w[0], 0.5, 1e-6);
  EXPECT_NEAR(res.value().w[1], 0.5, 1e-6);
}

TEST(SimplexLsqTest, ZeroColumnsRejected) {
  DenseMatrix a(2, 0);
  auto res = SolveSimplexLeastSquares(a, {0.0, 0.0});
  EXPECT_FALSE(res.ok());
}

TEST(EstimateLipschitzTest, MatchesKnownSpectralNorm) {
  // Diagonal matrix: largest eigenvalue of A^T A is max diag^2.
  DenseMatrix a(3, 3);
  a.at(0, 0) = 1.0;
  a.at(1, 1) = 3.0;
  a.at(2, 2) = 2.0;
  EXPECT_NEAR(EstimateLipschitz(a), 9.0, 1e-6);
}

// ---------- LP ----------

TEST(LpTest, SimpleMaximizationViaMinimization) {
  // min -x0 - x1 s.t. x0 + x1 <= 1, x >= 0 -> objective -1.
  LinearProgram lp;
  lp.objective = {-1.0, -1.0};
  lp.constraint_matrix = DenseMatrix(1, 2);
  lp.constraint_matrix.at(0, 0) = 1.0;
  lp.constraint_matrix.at(0, 1) = 1.0;
  lp.rhs = {1.0};
  lp.senses = {ConstraintSense::kLessEqual};
  const LpResult r = SolveLinearProgram(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-9);
}

TEST(LpTest, EqualityAndGreaterConstraints) {
  // min x0 + 2 x1 s.t. x0 + x1 = 1, x0 >= 0.25 -> x = (1, 0) obj 1.
  LinearProgram lp;
  lp.objective = {1.0, 2.0};
  lp.constraint_matrix = DenseMatrix(2, 2);
  lp.constraint_matrix.at(0, 0) = 1.0;
  lp.constraint_matrix.at(0, 1) = 1.0;
  lp.constraint_matrix.at(1, 0) = 1.0;
  lp.rhs = {1.0, 0.25};
  lp.senses = {ConstraintSense::kEqual, ConstraintSense::kGreaterEqual};
  const LpResult r = SolveLinearProgram(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 0.0, 1e-9);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
}

TEST(LpTest, DetectsInfeasible) {
  // x0 <= 1 and x0 >= 2 simultaneously.
  LinearProgram lp;
  lp.objective = {1.0};
  lp.constraint_matrix = DenseMatrix(2, 1);
  lp.constraint_matrix.at(0, 0) = 1.0;
  lp.constraint_matrix.at(1, 0) = 1.0;
  lp.rhs = {1.0, 2.0};
  lp.senses = {ConstraintSense::kLessEqual, ConstraintSense::kGreaterEqual};
  EXPECT_EQ(SolveLinearProgram(lp).status, LpStatus::kInfeasible);
}

TEST(LpTest, DetectsUnbounded) {
  // min -x0 with only x0 >= 1.
  LinearProgram lp;
  lp.objective = {-1.0};
  lp.constraint_matrix = DenseMatrix(1, 1);
  lp.constraint_matrix.at(0, 0) = 1.0;
  lp.rhs = {1.0};
  lp.senses = {ConstraintSense::kGreaterEqual};
  EXPECT_EQ(SolveLinearProgram(lp).status, LpStatus::kUnbounded);
}

TEST(LpTest, NegativeRhsNormalized) {
  // -x0 <= -2  <=>  x0 >= 2; min x0 -> 2.
  LinearProgram lp;
  lp.objective = {1.0};
  lp.constraint_matrix = DenseMatrix(1, 1);
  lp.constraint_matrix.at(0, 0) = -1.0;
  lp.rhs = {-2.0};
  lp.senses = {ConstraintSense::kLessEqual};
  const LpResult r = SolveLinearProgram(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-9);
}

TEST(LpTest, RandomFeasibleProblemsSatisfyConstraints) {
  Rng rng(30);
  for (int t = 0; t < 20; ++t) {
    const int n = 3, m = 4;
    LinearProgram lp;
    lp.objective.assign(n, 0.0);
    for (auto& c : lp.objective) c = rng.Uniform(0.0, 1.0);
    lp.constraint_matrix = DenseMatrix(m, n);
    lp.rhs.assign(m, 0.0);
    lp.senses.assign(m, ConstraintSense::kLessEqual);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        lp.constraint_matrix.at(i, j) = rng.Uniform(0.0, 1.0);
      }
      lp.rhs[i] = rng.Uniform(0.5, 2.0);
    }
    const LpResult r = SolveLinearProgram(lp);
    ASSERT_EQ(r.status, LpStatus::kOptimal);  // x=0 is always feasible
    for (int i = 0; i < m; ++i) {
      double lhs = 0.0;
      for (int j = 0; j < n; ++j) {
        lhs += lp.constraint_matrix.at(i, j) * r.x[j];
      }
      EXPECT_LE(lhs, lp.rhs[i] + 1e-7);
    }
  }
}

// ---------- Chebyshev (L∞) fit ----------

TEST(ChebyshevTest, ExactFitHasZeroError) {
  // Identity-like system with a consistent simplex solution.
  DenseMatrix a(3, 3);
  a.at(0, 0) = 1.0;
  a.at(1, 1) = 1.0;
  a.at(2, 2) = 1.0;
  const Vector s = {0.2, 0.3, 0.5};
  auto res = SolveSimplexChebyshev(a, s);
  ASSERT_TRUE(res.ok());
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(res.value()[j], s[j], 1e-7);
}

TEST(ChebyshevTest, MinimizesMaxResidualBelowL2Fit) {
  Rng rng(31);
  const int n = 25, m = 6;
  DenseMatrix a(n, m);
  Vector s(n);
  for (int i = 0; i < n; ++i) {
    s[i] = rng.NextDouble() * 0.4;
    for (int j = 0; j < m; ++j) a.at(i, j) = rng.NextDouble();
  }
  auto linf = SolveSimplexChebyshev(a, s);
  ASSERT_TRUE(linf.ok());
  auto l2 = SolveSimplexLeastSquares(a, s);
  ASSERT_TRUE(l2.ok());
  auto max_resid = [&](const Vector& w) {
    double worst = 0.0;
    const Vector r = Residual(a, w, s);
    for (double x : r) worst = std::max(worst, std::abs(x));
    return worst;
  };
  EXPECT_LE(max_resid(linf.value()), max_resid(l2.value().w) + 1e-6);
}

TEST(ChebyshevTest, SolutionOnSimplex) {
  Rng rng(32);
  const int n = 12, m = 5;
  DenseMatrix a(n, m);
  Vector s(n);
  for (int i = 0; i < n; ++i) {
    s[i] = rng.NextDouble();
    for (int j = 0; j < m; ++j) a.at(i, j) = rng.NextDouble();
  }
  auto res = SolveSimplexChebyshev(a, s);
  ASSERT_TRUE(res.ok());
  double sum = 0.0;
  for (double w : res.value()) {
    EXPECT_GE(w, -1e-9);
    sum += w;
  }
  EXPECT_NEAR(sum, 1.0, 1e-7);
}

}  // namespace
}  // namespace sel
