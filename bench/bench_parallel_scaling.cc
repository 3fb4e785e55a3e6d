// Parallel-scaling microbench for the thread-pool substrate: times
// design-matrix assembly (box-fraction and point-indicator) and batched
// prediction under explicit 1/2/4/8-thread pools, verifying that every
// parallel result is bit-identical to the 1-thread reference.
//
//   SEL_BENCH_REPS=N   timing repetitions per cell (default 3, min taken)
#include <cstdio>
#include <vector>

#include "bench_common.h"

namespace sel {
namespace {

// Exact structural + value equality of two sparse matrices.
bool SameMatrix(const SparseMatrix& a, const SparseMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols() || a.nnz() != b.nnz()) {
    return false;
  }
  for (int i = 0; i < a.rows(); ++i) {
    if (a.RowSize(i) != b.RowSize(i)) return false;
    for (size_t k = 0; k < a.RowSize(i); ++k) {
      if (a.RowCols(i)[k] != b.RowCols(i)[k] ||
          a.RowVals(i)[k] != b.RowVals(i)[k]) {
        return false;
      }
    }
  }
  return true;
}

// Minimum wall-clock over `reps` runs of fn().
template <typename Fn>
double MinSeconds(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    const double s = timer.Seconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

int Main() {
  const int reps = static_cast<int>(GetEnvInt("SEL_BENCH_REPS", 3));
  const int d = 3;
  const size_t n = ScaledCount(600, 150);      // training queries
  const size_t m = ScaledCount(2400, 600);     // buckets / points

  // Mixed box + ball workload: balls in d=3 exercise the QMC kernel.
  Rng rng(20220612);
  Workload workload;
  workload.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Point c(d), w(d);
    for (int j = 0; j < d; ++j) {
      c[j] = rng.NextDouble();
      w[j] = rng.Uniform(0.05, 0.6);
    }
    if (i % 2 == 0) {
      workload.push_back(
          {Query(Box::FromCenterAndWidths(c, w, Box::Unit(d))), 0.1});
    } else {
      workload.push_back({Query(Ball(c, rng.Uniform(0.05, 0.4))), 0.1});
    }
  }

  // Bucket boxes: random sub-boxes of the unit cube; bucket points:
  // uniform. Both independent of thread count by construction.
  std::vector<Box> boxes;
  std::vector<Point> points;
  boxes.reserve(m);
  points.reserve(m);
  for (size_t j = 0; j < m; ++j) {
    Point c(d), w(d);
    for (int k = 0; k < d; ++k) {
      c[k] = rng.NextDouble();
      w[k] = rng.Uniform(0.02, 0.25);
    }
    boxes.push_back(Box::FromCenterAndWidths(c, w, Box::Unit(d)));
    points.push_back(SampleBox(Box::Unit(d), &rng));
  }

  std::printf("== bench_parallel_scaling ==\n");
  std::printf("workload: %zu queries (box+ball, d=%d) | %zu buckets | "
              "REPRO_SCALE=%.2f | hardware threads=%d\n\n",
              n, d, m, ReproScale(), SelThreads());

  const VolumeOptions vopts;
  ThreadPool serial_pool(1);
  SparseMatrix ref_frac, ref_ind;
  std::vector<double> ref_est;

  // Reference model for batched prediction.
  auto ref_model = StaticPointModel::Create(
      points, Vector(points.size(), 1.0 / points.size()));
  SEL_CHECK(ref_model.ok());

  TablePrinter t({"task", "threads", "seconds", "speedup", "identical"});
  CsvWriter csv("bench_parallel_scaling.csv");
  csv.WriteRow(std::vector<std::string>{"task", "threads", "seconds",
                                        "speedup", "identical"});
  double base_frac = 0.0, base_ind = 0.0, base_est = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    ScopedPoolOverride scope(threads == 1 ? &serial_pool : &pool);

    SparseMatrix frac, ind;
    std::vector<double> est;
    const double frac_s = MinSeconds(reps, [&] {
      frac = BuildBoxFractionMatrix(workload, boxes, vopts);
    });
    const double ind_s = MinSeconds(reps, [&] {
      ind = BuildPointIndicatorMatrix(workload, points);
    });
    const double est_s = MinSeconds(reps, [&] {
      est = EstimateBatch(*ref_model.value(), workload);
    });

    if (threads == 1) {
      ref_frac = frac;
      ref_ind = ind;
      ref_est = est;
      base_frac = frac_s;
      base_ind = ind_s;
      base_est = est_s;
    }
    const bool same_frac = SameMatrix(frac, ref_frac);
    const bool same_ind = SameMatrix(ind, ref_ind);
    const bool same_est = est == ref_est;

    struct Row {
      const char* task;
      double seconds;
      double base;
      bool same;
    };
    for (const Row& row : {Row{"box_fraction_matrix", frac_s, base_frac,
                               same_frac},
                           Row{"point_indicator_matrix", ind_s, base_ind,
                               same_ind},
                           Row{"estimate_batch", est_s, base_est,
                               same_est}}) {
      const double speedup = row.seconds > 0.0 ? row.base / row.seconds
                                               : 0.0;
      t.AddRow({row.task, std::to_string(threads),
                FormatDouble(row.seconds, 4), FormatDouble(speedup, 2),
                row.same ? "yes" : "NO"});
      csv.WriteRow(std::vector<std::string>{
          row.task, std::to_string(threads), FormatDouble(row.seconds),
          FormatDouble(speedup), row.same ? "1" : "0"});
      SEL_CHECK_MSG(row.same,
                    "%s output differs from the 1-thread reference",
                    row.task);
    }
  }
  t.Print();
  csv.Close();
  std::printf("\ncsv: bench_parallel_scaling.csv\n");
  return 0;
}

}  // namespace
}  // namespace sel

int main() { return sel::Main(); }
