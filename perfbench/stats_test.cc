// Unit tests of the benchmark's arithmetic (stats.h).
#include "stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile({7.0}, 99), 7.0);
  EXPECT_TRUE(std::isnan(Percentile({}, 50)));
}

TEST(TailPercentileTest, AtLeastTenSamplesBeyond) {
  EXPECT_EQ(TailPercentileFor(0), 0.0);
  EXPECT_EQ(TailPercentileFor(19), 0.0);  // median leaves 9.5 beyond
  EXPECT_EQ(TailPercentileFor(20), 50.0);
  EXPECT_EQ(TailPercentileFor(99), 50.0);
  EXPECT_EQ(TailPercentileFor(100), 90.0);
  EXPECT_EQ(TailPercentileFor(999), 90.0);
  EXPECT_EQ(TailPercentileFor(1000), 99.0);
  EXPECT_EQ(TailPercentileFor(9999), 99.0);
  EXPECT_EQ(TailPercentileFor(10000), 99.9);
}

TEST(OpenLoopTest, LatencyIsChargedFromDueTime) {
  // Due at 100, sent late at 130 (a stall), answered at 180: the
  // request is charged 80, not the 50 the round trip took.
  const OpenLoopSample s{100.0, 130.0, 180.0, true};
  EXPECT_DOUBLE_EQ(ChargedLatencyUs(s), 80.0);
  EXPECT_DOUBLE_EQ(LagUs(s), 30.0);
  // Sent early (spin overshoot) never yields a negative lag.
  EXPECT_DOUBLE_EQ(LagUs(OpenLoopSample{100.0, 99.0, 150.0, true}), 0.0);
}

TEST(OpenLoopTest, FailureMissesEveryLimit) {
  const OpenLoopSample refused{0.0, 0.0, 5.0, false};
  EXPECT_TRUE(std::isinf(ChargedLatencyUs(refused)));
}

TEST(TallyTest, RefusalsCountAsAttempts) {
  Tally t;
  t.Add(true);
  t.Add(true);
  t.Add(false);  // RESOURCE_EXHAUSTED
  t.Add(false);  // DEADLINE_EXCEEDED
  EXPECT_EQ(t.sent, 4u);
  EXPECT_EQ(t.succeeded, 2u);
  EXPECT_EQ(t.failed, 2u);
  EXPECT_DOUBLE_EQ(t.FailFrac(), 0.5);
  Tally other;
  other.Add(true);
  t.Merge(other);
  EXPECT_EQ(t.sent, 5u);
  EXPECT_DOUBLE_EQ(t.FailFrac(), 0.4);
  EXPECT_DOUBLE_EQ(Tally{}.FailFrac(), 0.0);
}

std::vector<OpenLoopSample> Steady(size_t n, double lag, double rtt) {
  std::vector<OpenLoopSample> out;
  for (size_t i = 0; i < n; ++i) {
    const double due = 100.0 * static_cast<double>(i);
    out.push_back({due, due + lag, due + lag + rtt, true});
  }
  return out;
}

TEST(BacklogTest, SteadyLagIsNotABacklog) {
  EXPECT_FALSE(BacklogGrowing(Steady(1000, 40.0, 50.0), 500.0));
}

TEST(BacklogTest, LinearlyGrowingLagIsABacklog) {
  // Service takes 150 per request but arrivals come every 100: each
  // send slips a further 50 behind.
  std::vector<OpenLoopSample> v;
  for (size_t i = 0; i < 1000; ++i) {
    const double due = 100.0 * static_cast<double>(i);
    const double sent = 150.0 * static_cast<double>(i);
    v.push_back({due, sent, sent + 150.0, true});
  }
  EXPECT_TRUE(BacklogGrowing(v, 500.0));
}

TEST(RungTest, SummaryUsesTheSampleSupportedPercentile) {
  const RungResult r = SummarizeRung(1000.0, Steady(1000, 10.0, 90.0), 500.0);
  EXPECT_EQ(r.samples, 1000u);
  EXPECT_EQ(r.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(r.p50_us, 100.0);
  EXPECT_DOUBLE_EQ(r.tail_us, 100.0);
  EXPECT_DOUBLE_EQ(r.lag_p99_us, 10.0);
  EXPECT_FALSE(r.backlog_growing);
  EXPECT_TRUE(RungMeetsLimit(r, 500.0));
  EXPECT_FALSE(RungMeetsLimit(r, 99.0));
}

TEST(RungTest, RefusalsBeyondTheTailMissTheLimit) {
  std::vector<OpenLoopSample> v = Steady(1000, 10.0, 90.0);
  for (size_t i = 0; i < 11; ++i) v[i * 50].ok = false;  // > 1% refused
  const RungResult r = SummarizeRung(1000.0, v, 500.0);
  EXPECT_EQ(r.tally.failed, 11u);
  EXPECT_TRUE(std::isinf(r.tail_us));
  EXPECT_FALSE(RungMeetsLimit(r, 500.0));
}

TEST(LadderTest, MaxRateIsTheHighestPassingRung) {
  auto rung = [](double rate, double tail, bool backlog) {
    RungResult r;
    r.rate_qps = rate;
    r.tail_us = tail;
    r.backlog_growing = backlog;
    r.tally.Add(true);
    return r;
  };
  const double limit = 1000.0;
  EXPECT_EQ(MaxRateMeetingLimit({rung(1e3, 200, false), rung(2e3, 400, false),
                                 rung(4e3, 900, false),
                                 rung(8e3, 5000, true)},
                                limit),
            4e3);
  // A backlog disqualifies a rung even when its tail looks fine (the
  // samples were cut before the queue drained).
  EXPECT_EQ(MaxRateMeetingLimit({rung(1e3, 200, false), rung(2e3, 300, true)},
                                limit),
            1e3);
  // One noisy low rung does not cap the capacity found above it.
  EXPECT_EQ(MaxRateMeetingLimit({rung(1e3, 1500, false), rung(2e3, 300, false)},
                                limit),
            2e3);
  EXPECT_EQ(MaxRateMeetingLimit({rung(1e3, 1500, false)}, limit), 0.0);
  EXPECT_EQ(MaxRateMeetingLimit({}, limit), 0.0);
}

TEST(LadderTest, ExhaustedAfterTwoConsecutiveMisses) {
  auto rung = [](double tail) {
    RungResult r;
    r.tail_us = tail;
    r.tally.Add(true);
    return r;
  };
  const double limit = 1000.0;
  EXPECT_FALSE(LadderExhausted({}, limit));
  EXPECT_FALSE(LadderExhausted({rung(5000)}, limit));
  EXPECT_FALSE(LadderExhausted({rung(5000), rung(100)}, limit));
  EXPECT_FALSE(LadderExhausted({rung(100), rung(5000)}, limit));
  EXPECT_TRUE(LadderExhausted({rung(100), rung(5000), rung(7000)}, limit));
}

TEST(WindowedTest, OneStalledWindowMovesTheMedianByOneRank) {
  std::vector<double> lat;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 1000; ++i) {
      // Window 2 is stalled: every sample is 100x slower.
      lat.push_back((w == 2 ? 100.0 : 1.0) * (100.0 + i % 100));
    }
  }
  const WindowedLatency r = Windowed(lat, 5);
  EXPECT_EQ(r.windows, 5u);
  EXPECT_EQ(r.samples, 5000u);
  EXPECT_EQ(r.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(r.p50_us, 149.0);
  EXPECT_DOUBLE_EQ(r.p90_us, 189.0);
  EXPECT_DOUBLE_EQ(r.tail_us, 198.0);
  // Pooled, the same samples put p99 inside the stall.
  EXPECT_GT(Percentile(lat, 99), 10000.0);
}

TEST(WindowedTest, ShortWindowsReportTheSupportedPercentile) {
  std::vector<double> lat(300, 5.0);
  const WindowedLatency r = Windowed(lat, 3);  // 100 samples each
  EXPECT_EQ(r.tail_pct, 90.0);
  EXPECT_DOUBLE_EQ(r.tail_us, 5.0);
  EXPECT_EQ(Windowed({}, 4).samples, 0u);
}

}  // namespace
}  // namespace perfbench
