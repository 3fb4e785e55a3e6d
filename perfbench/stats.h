// The benchmark's own arithmetic, kept free of the library so its unit
// test (stats_test.cc) builds without it: percentiles under the "at
// least ten samples beyond" rule, open-loop due-time accounting, the
// offered-rate ladder with its backlog check, and failure counting.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr size_t kTailSamplesBeyond = 10;

/// Nearest-rank percentile (p in (0, 100]) of unsorted samples: the
/// smallest sample with at least p% of the samples at or below it.
/// Returns NaN for an empty input.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t k = std::clamp<size_t>(static_cast<size_t>(rank), 1,
                                      samples.size());
  return samples[k - 1];
}

/// The highest of the standard tail percentiles (99.9, 99, 90, 50) that
/// leaves at least kTailSamplesBeyond samples above it in a sample of
/// `n`; 0 when even the median has fewer beyond it.
inline double TailPercentileFor(size_t n) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
    if (beyond + 1e-9 >= static_cast<double>(kTailSamplesBeyond)) return p;
  }
  return 0.0;
}

/// One open-loop request as the load generator saw it. Times are in
/// microseconds from a common origin; `due_us` is when the arrival
/// schedule said to send it.
struct OpenLoopSample {
  double due_us = 0.0;
  double sent_us = 0.0;
  double done_us = 0.0;
  bool ok = false;
};

/// Latency charged to a request: completion minus its due time, so a
/// stall that delays later sends is counted against them. A failed or
/// refused request misses every latency limit: +infinity.
inline double ChargedLatencyUs(const OpenLoopSample& s) {
  if (!s.ok) return std::numeric_limits<double>::infinity();
  return s.done_us - s.due_us;
}

/// How late the generator sent a request (never negative).
inline double LagUs(const OpenLoopSample& s) {
  return std::max(0.0, s.sent_us - s.due_us);
}

/// Request counts of one phase. Refusals (RESOURCE_EXHAUSTED,
/// DEADLINE_EXCEEDED) and IO errors all count as failed attempts.
struct Tally {
  uint64_t sent = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;

  void Add(bool ok) {
    ++sent;
    if (ok) {
      ++succeeded;
    } else {
      ++failed;
    }
  }
  void Merge(const Tally& o) {
    sent += o.sent;
    succeeded += o.succeeded;
    failed += o.failed;
  }
  /// failed / sent; 0 for an empty tally.
  double FailFrac() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(failed) / static_cast<double>(sent);
  }
};

/// Summary of one open-loop phase at one offered rate.
struct RungResult {
  double rate_qps = 0.0;
  size_t samples = 0;
  double tail_pct = 0.0;   ///< percentile reported as tail_us (<= 99)
  double p50_us = 0.0;
  double tail_us = 0.0;
  double lag_p99_us = 0.0;
  bool backlog_growing = false;
  Tally tally;
};

/// True when the generator fell steadily behind its schedule: the median
/// lag of the last quarter of sends (in due order) exceeds that of the
/// first quarter by more than `limit_us`. A stable system keeps the lag
/// bounded; an overloaded one lets it grow with time.
inline bool BacklogGrowing(const std::vector<OpenLoopSample>& in_due_order,
                           double limit_us) {
  const size_t n = in_due_order.size();
  if (n < 8) return false;
  const size_t q = n / 4;
  std::vector<double> first, last;
  for (size_t i = 0; i < q; ++i) first.push_back(LagUs(in_due_order[i]));
  for (size_t i = n - q; i < n; ++i) last.push_back(LagUs(in_due_order[i]));
  return Percentile(last, 50) - Percentile(first, 50) > limit_us;
}

/// Summarizes one rung's samples (in due order).
inline RungResult SummarizeRung(double rate_qps,
                                const std::vector<OpenLoopSample>& samples,
                                double limit_us) {
  RungResult r;
  r.rate_qps = rate_qps;
  r.samples = samples.size();
  std::vector<double> lat, lag;
  lat.reserve(samples.size());
  lag.reserve(samples.size());
  for (const OpenLoopSample& s : samples) {
    r.tally.Add(s.ok);
    lat.push_back(ChargedLatencyUs(s));
    lag.push_back(LagUs(s));
  }
  // The limit applies to p99; a rung too short to support p99 reports
  // the highest percentile it does support.
  r.tail_pct = std::min(99.0, TailPercentileFor(samples.size()));
  r.p50_us = Percentile(lat, 50);
  r.tail_us = r.tail_pct > 0 ? Percentile(lat, r.tail_pct)
                             : std::numeric_limits<double>::infinity();
  r.lag_p99_us = Percentile(lag, r.tail_pct > 0 ? r.tail_pct : 50);
  r.backlog_growing = BacklogGrowing(samples, limit_us);
  return r;
}

/// A rung meets the limit when its tail latency, with failures counted
/// as misses, is within `limit_us` and the backlog is not growing.
inline bool RungMeetsLimit(const RungResult& r, double limit_us) {
  return r.tally.sent > 0 && !r.backlog_growing && r.tail_us <= limit_us;
}

/// The highest offered rate on the ladder whose rung meets the limit;
/// 0 when no rung does.
inline double MaxRateMeetingLimit(const std::vector<RungResult>& ladder,
                                  double limit_us) {
  double best = 0.0;
  for (const RungResult& r : ladder) {
    if (RungMeetsLimit(r, limit_us)) best = std::max(best, r.rate_qps);
  }
  return best;
}

/// True once the two most recent rungs both missed the limit: the ladder
/// is past its knee and higher rungs only grow the backlog further.
inline bool LadderExhausted(const std::vector<RungResult>& ladder,
                            double limit_us) {
  if (ladder.size() < 2) return false;
  return std::none_of(ladder.end() - 2, ladder.end(),
                      [limit_us](const RungResult& r) {
                        return RungMeetsLimit(r, limit_us);
                      });
}

/// Latency of a phase reported as medians over consecutive windows:
/// each window's p50, p90 and tail (p99, or the highest percentile the
/// window supports) and the median of each across windows. A stall of
/// the host that ruins one window moves the result by one rank.
struct WindowedLatency {
  double p50_us = 0.0;
  double p90_us = 0.0;
  double tail_us = 0.0;
  double tail_pct = 0.0;
  size_t windows = 0;
  size_t samples = 0;
  std::vector<double> window_tails_us;  ///< each window's tail, in order
};

/// `latencies_us` in time order; failures as +infinity.
inline WindowedLatency Windowed(const std::vector<double>& latencies_us,
                                size_t windows) {
  WindowedLatency out;
  out.samples = latencies_us.size();
  windows = std::max<size_t>(1, std::min(windows, latencies_us.size()));
  out.windows = windows;
  if (latencies_us.empty()) return out;
  std::vector<double> p50s, p90s, tails;
  const size_t per = latencies_us.size() / windows;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = w * per;
    const size_t end = w + 1 == windows ? latencies_us.size() : begin + per;
    std::vector<double> chunk(latencies_us.begin() + begin,
                              latencies_us.begin() + end);
    const double pct = std::min(99.0, TailPercentileFor(chunk.size()));
    p50s.push_back(Percentile(chunk, 50));
    p90s.push_back(Percentile(chunk, 90));
    tails.push_back(pct > 0 ? Percentile(chunk, pct)
                            : std::numeric_limits<double>::infinity());
    out.tail_pct = w == 0 ? pct : std::min(out.tail_pct, pct);
  }
  out.p50_us = Percentile(p50s, 50);
  out.p90_us = Percentile(p90s, 50);
  out.tail_us = Percentile(tails, 50);
  out.window_tails_us = tails;
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
