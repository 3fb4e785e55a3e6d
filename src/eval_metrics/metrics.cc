#include "eval_metrics/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"

namespace sel {

double QError(double estimate, double truth, double floor) {
  const double a = std::max(estimate, floor);
  const double b = std::max(truth, floor);
  return std::max(a, b) / std::min(a, b);
}

double Quantile(std::vector<double> values, double p) {
  SEL_CHECK(!values.empty());
  SEL_CHECK(p >= 0.0 && p <= 1.0);
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

ErrorReport ComputeErrors(const std::vector<double>& estimates,
                          const std::vector<double>& truths,
                          double q_floor) {
  SEL_CHECK(estimates.size() == truths.size());
  ErrorReport r;
  r.num_queries = estimates.size();
  if (estimates.empty()) return r;

  double sq = 0.0, abs_sum = 0.0;
  std::vector<double> qerrs;
  qerrs.reserve(estimates.size());
  for (size_t i = 0; i < estimates.size(); ++i) {
    const double d = estimates[i] - truths[i];
    sq += d * d;
    abs_sum += std::abs(d);
    r.linf = std::max(r.linf, std::abs(d));
    qerrs.push_back(QError(estimates[i], truths[i], q_floor));
  }
  r.rms = std::sqrt(sq / static_cast<double>(estimates.size()));
  r.mae = abs_sum / static_cast<double>(estimates.size());
  r.q50 = Quantile(qerrs, 0.50);
  r.q95 = Quantile(qerrs, 0.95);
  r.q99 = Quantile(qerrs, 0.99);
  r.qmax = *std::max_element(qerrs.begin(), qerrs.end());
  return r;
}

std::vector<double> EstimateBatch(const SelectivityModel& model,
                                  const Workload& queries) {
  return EstimateBatch(model, queries, nullptr);
}

std::vector<double> EstimateBatch(const SelectivityModel& model,
                                  const Workload& queries,
                                  std::vector<double>* latencies_us) {
  SEL_TRACE_SPAN("predict.batch");
  SEL_METRIC_SCOPED_LATENCY("predict.batch_us");
  SEL_METRIC_COUNTER_ADD("predict.queries_total", queries.size());
  std::vector<double> est(queries.size());
  if (latencies_us != nullptr) latencies_us->assign(queries.size(), 0.0);
  // Per-query clocks run only when someone consumes them; the plain
  // batched path stays two clock calls total.
  const bool time_queries = latencies_us != nullptr || MetricsEnabled();
  ParallelFor(0, static_cast<int64_t>(queries.size()), 4, [&](int64_t i) {
    if (!time_queries) {
      est[i] = model.Estimate(queries[i].query);
      return;
    }
    WallTimer timer;
    est[i] = model.Estimate(queries[i].query);
    const double us = timer.Seconds() * 1e6;
    if (latencies_us != nullptr) (*latencies_us)[i] = us;
    SEL_METRIC_HIST_RECORD("predict.query_us", us);
  });
  return est;
}

ErrorReport EvaluateModel(const SelectivityModel& model,
                          const Workload& test, double q_floor) {
  const std::vector<double> est = EstimateBatch(model, test);
  std::vector<double> truth;
  truth.reserve(test.size());
  for (const auto& z : test) truth.push_back(z.selectivity);
  return ComputeErrors(est, truth, q_floor);
}

}  // namespace sel
