// Microbenchmarks (google-benchmark) for the hot kernels: intersection
// volumes, kd-tree counting, NNLS/QP weight solving, QuadHist
// training/estimation, and the EstimateBatch wire codec.
#include <benchmark/benchmark.h>

#include "sel/sel.h"

namespace sel {
namespace {

void BM_BoxBoxVolume(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Rng rng(1);
  Point lo1(d), hi1(d), lo2(d), hi2(d);
  for (int j = 0; j < d; ++j) {
    lo1[j] = 0.1;
    hi1[j] = 0.7;
    lo2[j] = rng.Uniform(0.0, 0.5);
    hi2[j] = lo2[j] + 0.4;
  }
  const Box a(lo1, hi1), b(lo2, hi2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoxBoxIntersectionVolume(a, b));
  }
}
BENCHMARK(BM_BoxBoxVolume)->Arg(2)->Arg(6)->Arg(10);

void BM_BoxHalfspaceVolumeExact(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Rng rng(2);
  Point c(d, 0.5);
  const Halfspace h = Halfspace::ThroughPoint(c, rng.UnitVector(d));
  const Box box = Box::Unit(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoxHalfspaceIntersectionVolume(box, h));
  }
}
BENCHMARK(BM_BoxHalfspaceVolumeExact)->Arg(2)->Arg(6)->Arg(10)->Arg(14);

void BM_DiscRectangleArea(benchmark::State& state) {
  const Ball disc({0.4, 0.6}, 0.35);
  const Box rect({0.2, 0.3}, {0.7, 0.9});
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiscRectangleArea(disc, rect));
  }
}
BENCHMARK(BM_DiscRectangleArea);

void BM_BoxBallVolumeQmc(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const Ball ball(Point(d, 0.5), 0.4);
  const Box box = Box::Unit(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoxBallIntersectionVolume(box, ball));
  }
}
BENCHMARK(BM_BoxBallVolumeQmc)->Arg(3)->Arg(6);

void BM_KdTreeCount(benchmark::State& state) {
  const int d = 2;
  const Dataset data = MakePowerLike(100000, 3).Project({0, 1});
  CountingKdTree tree(data.rows());
  Rng rng(4);
  std::vector<Query> queries;
  for (int i = 0; i < 64; ++i) {
    Point c = data.row(rng.UniformInt(data.num_rows()));
    Point w(d);
    for (auto& x : w) x = rng.NextDouble();
    queries.push_back(Box::FromCenterAndWidths(c, w, Box::Unit(d)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Count(queries[i++ % queries.size()]));
  }
}
BENCHMARK(BM_KdTreeCount);

void BM_SimplexLsqSparse(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int m = 4 * n;
  Rng rng(5);
  std::vector<Triplet> trips;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      if (rng.NextDouble() < 0.1) trips.push_back({i, j, rng.NextDouble()});
    }
  }
  const auto a = SparseMatrix::FromTriplets(n, m, trips);
  Vector s(n);
  for (auto& v : s) v = rng.NextDouble() * 0.3;
  for (auto _ : state) {
    auto res = SolveSimplexLeastSquares(a, s);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_SimplexLsqSparse)->Arg(50)->Arg(200);

/// The NNLS system a PtsHist train hands to the solver: one 0/1 indicator
/// row per query (4-D Power-like data, 4 bucket points per query drawn
/// inside the queries), then the sum-to-one penalty row. 300 queries
/// give the 301x1200 system of the wire_batch benchmark workload.
DenseMatrix PtsHistNnlsSystem(int queries, Vector* b) {
  const Dataset data = MakePowerLike(20000, 11).Project({0, 1, 2, 3});
  CountingKdTree index(data.rows());
  WorkloadOptions opts;
  opts.seed = 12;
  WorkloadGenerator gen(&data, &index, opts);
  const Workload train = gen.Generate(queries);
  Rng rng(13);
  std::vector<Point> points;
  for (int j = 0; j < 4 * queries; ++j) {
    const Query& q = train[rng.UniformInt(train.size())].query;
    points.push_back(SampleQueryInteriorOrFallback(q, data.Domain(), &rng));
  }
  const DenseMatrix ind = BuildPointIndicatorMatrix(train, points).ToDense();
  const double penalty = SimplexLsqOptions{}.nnls_sum_penalty;
  DenseMatrix a(queries + 1, ind.cols(), penalty);
  b->assign(queries + 1, penalty);
  for (int i = 0; i < queries; ++i) {
    for (int j = 0; j < ind.cols(); ++j) a.at(i, j) = ind.at(i, j);
    (*b)[i] = train[i].selectivity;
  }
  return a;
}

/// Args: rows, and whether the system is PtsHist-shaped (rows queries
/// plus the penalty row, 4 * rows point columns) or random dense
/// (rows x rows/2).
void BM_NnlsDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DenseMatrix a;
  Vector b;
  if (state.range(1) != 0) {
    a = PtsHistNnlsSystem(n, &b);
  } else {
    const int m = n / 2;
    Rng rng(6);
    a = DenseMatrix(n, m);
    b.resize(n);
    for (int i = 0; i < n; ++i) {
      b[i] = rng.NextDouble();
      for (int j = 0; j < m; ++j) a.at(i, j) = rng.NextDouble();
    }
  }
  for (auto _ : state) {
    auto res = SolveNnls(a, b);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_NnlsDense)
    ->ArgNames({"rows", "ptshist"})
    ->Args({40, 0})
    ->Args({120, 0})
    ->Args({300, 1});

void BM_QuadHistTrain(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset data = MakePowerLike(50000, 7).Project({0, 1});
  CountingKdTree index(data.rows());
  WorkloadOptions opts;
  opts.seed = 8;
  WorkloadGenerator gen(&data, &index, opts);
  const Workload train = gen.Generate(n);
  for (auto _ : state) {
    auto model = EstimatorRegistry::Build("quadhist:tau=0.002", 2, n);
    SEL_CHECK(model.ok());
    benchmark::DoNotOptimize(model.value()->Train(train));
  }
}
BENCHMARK(BM_QuadHistTrain)->Arg(50)->Arg(200);

void BM_QuadHistEstimate(benchmark::State& state) {
  const Dataset data = MakePowerLike(50000, 9).Project({0, 1});
  CountingKdTree index(data.rows());
  WorkloadOptions opts;
  opts.seed = 10;
  WorkloadGenerator gen(&data, &index, opts);
  const Workload train = gen.Generate(200);
  auto built =
      EstimatorRegistry::Build("quadhist:tau=0.002,budget=800", 2, 200);
  SEL_CHECK(built.ok());
  auto& model = *built.value();
  SEL_CHECK(model.Train(train).ok());
  const Workload test = gen.Generate(64);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Estimate(test[i++ % test.size()].query));
  }
}
BENCHMARK(BM_QuadHistEstimate);

void BM_PtsHistEstimate(benchmark::State& state) {
  const Dataset data = MakeForestLike(20000, 11).Project({0, 1, 2, 3});
  CountingKdTree index(data.rows());
  WorkloadOptions opts;
  opts.seed = 12;
  WorkloadGenerator gen(&data, &index, opts);
  const Workload train = gen.Generate(200);
  auto built = EstimatorRegistry::Build("ptshist", 4, 200);
  SEL_CHECK(built.ok());
  auto& model = *built.value();
  SEL_CHECK(model.Train(train).ok());
  const Workload test = gen.Generate(64);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Estimate(test[i++ % test.size()].query));
  }
}
BENCHMARK(BM_PtsHistEstimate);

// EstimateBatch payload codec over a 256-query 4-D box batch: Arg(0)
// times EncodeQueryBatch, Arg(1) DecodeQueryBatch (items = queries).
void BM_QueryBatchCodec(benchmark::State& state) {
  const bool decode = state.range(0) == 1;
  Rng rng(13);
  std::vector<Query> queries;
  for (int i = 0; i < 256; ++i) {
    Point lo(4), hi(4);
    for (int j = 0; j < 4; ++j) {
      lo[j] = rng.Uniform(0.0, 0.5);
      hi[j] = lo[j] + rng.Uniform(0.0, 0.5);
    }
    queries.emplace_back(Box(std::move(lo), std::move(hi)));
  }
  std::string payload;
  SEL_CHECK(EncodeQueryBatch(queries, &payload).ok());
  std::vector<Query> decoded;
  for (auto _ : state) {
    if (decode) {
      SEL_CHECK(DecodeQueryBatch(payload, 4, &decoded).ok());
      benchmark::DoNotOptimize(decoded.data());
    } else {
      std::string out;
      SEL_CHECK(EncodeQueryBatch(queries, &out).ok());
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetLabel(decode ? "decode" : "encode");
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_QueryBatchCodec)->Arg(0)->Arg(1);

}  // namespace
}  // namespace sel

BENCHMARK_MAIN();
