// Prediction time (§4.1's closing remark): all the compared models
// estimate by aggregating per-bucket computations, so prediction time is
// dictated by model complexity. This bench makes that relationship
// explicit — per-query estimation latency vs bucket count per model —
// and measures two arms side by side: the model's own Estimate, which
// serves its lowered CompiledPlan (DESIGN.md §11), and the brute-force
// Eq. (6)/(7) oracle (tests/bucket_sum_oracle.h), a flat scan over every
// bucket. tools/check_serve_speedup.sh parses the CSV and enforces the
// plan's speedup floor over the oracle in CI.
//
// Methodology mirrors check_metrics_overhead.sh: alternating
// oracle/plan rounds through one harness with a min-statistic per arm,
// so one-sided cache warmup or a scheduler hiccup cannot fake (or hide)
// a speedup.
#include "bench_common.h"
#include "bucket_sum_oracle.h"

using namespace sel;
using namespace sel::bench;

namespace {

/// Microseconds per query of one pass of `estimate` over `probes`, with
/// the pool fan-out EstimateBatch uses. `sink` keeps the work alive.
template <typename Estimate>
double TimeArm(const Workload& probes, const Estimate& estimate,
               double* sink) {
  std::vector<double> out(probes.size());
  WallTimer timer;
  ParallelFor(0, static_cast<int64_t>(probes.size()), 4, [&](int64_t i) {
    out[i] = estimate(probes[i].query);
  });
  const double us = timer.Seconds() * 1e6 / static_cast<double>(probes.size());
  *sink += out[0];
  return us;
}

}  // namespace

int main() {
  const PreparedData prep = Prepare("power", 2100000, {0, 1});
  WorkloadOptions wopts;
  wopts.seed = 6100;
  Banner("Prediction time vs model complexity (§4.1)", prep, wopts);

  const std::vector<size_t> sizes = ScaledSizes({50, 200, 500, 1000});
  const size_t probe_count = 2000;
  const int rounds = 3;
  WorkloadOptions probe_opts = wopts;
  probe_opts.seed = wopts.seed + 1;
  WorkloadGenerator probe_gen(&prep.data, prep.index.get(), probe_opts);
  const Workload probes = probe_gen.Generate(probe_count);

  TablePrinter t({"model", "buckets", "path", "simd", "us_per_estimate"});
  CsvWriter csv("bench_prediction_time.csv");
  csv.WriteRow(std::vector<std::string>{"model", "buckets", "path", "simd",
                                        "us_per_est"});
  for (size_t n : sizes) {
    WorkloadOptions train_opts = wopts;
    train_opts.seed = wopts.seed + n;
    WorkloadGenerator train_gen(&prep.data, prep.index.get(), train_opts);
    const Workload train = train_gen.Generate(n);
    for (const char* kind : {"quadhist", "ptshist", "quicksel"}) {
      auto built = EstimatorRegistry::Build(kind, prep.data.dim(), n);
      SEL_CHECK_MSG(built.ok(), "%s", built.status().ToString().c_str());
      auto& model = built.value();
      SEL_CHECK(model->Train(train).ok());
      const BucketSumOracle oracle(*model);
      const auto plan_arm = [&](const Query& q) { return model->Estimate(q); };
      const auto oracle_arm = [&](const Query& q) {
        return oracle.Estimate(q);
      };

      // The simd axis pins the kernel dispatch the way SEL_SIMD would.
      // Rounds alternate oracle/plan with a min-statistic so one-sided
      // warmup cannot bias either side.
      for (const char* simd : {"auto", "scalar"}) {
        SetSimdLevel(std::string(simd) == "scalar"
                         ? SimdLevel::kScalar
                         : MaxSupportedSimdLevel());
        double best_oracle_us = 0.0, best_plan_us = 0.0;
        double sink = 0.0;
        for (int r = 0; r < rounds; ++r) {
          const double oracle_us = TimeArm(probes, oracle_arm, &sink);
          const double plan_us = TimeArm(probes, plan_arm, &sink);
          if (r == 0 || oracle_us < best_oracle_us) best_oracle_us = oracle_us;
          if (r == 0 || plan_us < best_plan_us) best_plan_us = plan_us;
        }
        SEL_CHECK(sink >= 0.0);
        const std::string buckets = std::to_string(model->NumBuckets());
        t.AddRow({model->Name(), buckets, "oracle", simd,
                  FormatDouble(best_oracle_us, 2)});
        t.AddRow({model->Name(), buckets, "plan", simd,
                  FormatDouble(best_plan_us, 2)});
        csv.WriteRow(std::vector<std::string>{model->Name(), buckets,
                                              "oracle", simd,
                                              FormatDouble(best_oracle_us)});
        csv.WriteRow(std::vector<std::string>{model->Name(), buckets, "plan",
                                              simd,
                                              FormatDouble(best_plan_us)});
      }
      SetSimdLevel(MaxSupportedSimdLevel());
    }
  }
  csv.Close();
  t.Print();
  std::printf("\nExpected: oracle latency grows ~linearly in bucket "
              "count (it scans every bucket); plan latency grows "
              "sublinearly, because its pruning tree skips subtrees "
              "outside the query and absorbs subtrees inside it. The plan "
              "should beat the oracle in every cell: same Eq. (6)/(7) "
              "sums, but over a pruned SoA layout with precomputed "
              "1/vol.\n");
  return 0;
}
