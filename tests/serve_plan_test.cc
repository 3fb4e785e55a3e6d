// Plan-correctness suite for the serving layer (DESIGN.md §11): every
// lowerable estimator's CompiledPlan — which is its Estimate — must
// reproduce the brute-force Eq. (6)/(7) oracle (bucket_sum_oracle.h)
// within 1e-12 across query shapes, seeds, and thread counts; plans
// must survive the model_io round-trip bit-identically; and
// OnlineEstimator's plan hand-off must keep serving during a retrain
// (the TSAN lane checks the hand-off is race-free).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "bucket_sum_oracle.h"
#include "sel/sel.h"

namespace sel {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

SemiAlgebraicSet Disc(double cx, double cy, double r) {
  const int d = 2;
  const Polynomial x = Polynomial::Variable(d, 0);
  const Polynomial y = Polynomial::Variable(d, 1);
  const Polynomial p = (x - Polynomial::Constant(d, cx)) *
                           (x - Polynomial::Constant(d, cx)) +
                       (y - Polynomial::Constant(d, cy)) *
                           (y - Polynomial::Constant(d, cy)) -
                       Polynomial::Constant(d, r * r);
  return SemiAlgebraicSet::Atom(p);
}

struct Fixture {
  Fixture()
      : data(MakePowerLike(3000, 1300).Project({0, 1})),
        index(data.rows()) {}

  Workload MakeTrain(size_t n, uint64_t seed) const {
    WorkloadOptions opts;
    opts.seed = seed;
    WorkloadGenerator gen(&data, &index, opts);
    return gen.Generate(n);
  }

  std::vector<Query> MakeProbes(QueryType type, size_t n,
                                uint64_t seed) const {
    if (type == QueryType::kSemiAlgebraic) {
      Rng rng(seed);
      std::vector<Query> qs;
      for (size_t i = 0; i < n; ++i) {
        const double cx = rng.Uniform(0.2, 0.8);
        const double cy = rng.Uniform(0.2, 0.8);
        const double r = rng.Uniform(0.15, 0.45);
        qs.push_back(SemiAlgebraicSet::And(
            Disc(cx, cy, r),
            SemiAlgebraicSet::Not(Disc(cx + r / 2, cy, r * 0.7))));
      }
      return qs;
    }
    WorkloadOptions opts;
    opts.query_type = type;
    opts.seed = seed;
    WorkloadGenerator gen(&data, &index, opts);
    std::vector<Query> qs;
    for (const auto& z : gen.Generate(n)) qs.push_back(z.query);
    return qs;
  }

  Dataset data;
  CountingKdTree index;
};

const std::vector<QueryType> kAllShapes = {
    QueryType::kBox, QueryType::kHalfspace, QueryType::kBall,
    QueryType::kSemiAlgebraic};

// Checks one trained model: its plan against the brute-force oracle
// (<= 1e-12 per query), Estimate against the plan bit for bit, and the
// batch kernel against EstimateOne bit for bit at 1 and 8 threads.
void ExpectPlanMatchesOracle(const Fixture& f, const SelectivityModel& model,
                             const std::vector<QueryType>& shapes,
                             uint64_t seed) {
  const std::string name = model.RegistryName();
  const std::shared_ptr<const CompiledPlan> plan = model.shared_plan();
  ASSERT_NE(plan, nullptr) << name << ": Train did not lower";
  EXPECT_EQ(plan->dim(), 2) << name;
  EXPECT_EQ(plan->source(), name);
  EXPECT_GT(plan->size(), 0u) << name;
  const BucketSumOracle oracle(model);

  for (QueryType shape : shapes) {
    const std::vector<Query> probes = f.MakeProbes(shape, 25, seed + 17);
    std::vector<double> one(probes.size());
    for (size_t i = 0; i < probes.size(); ++i) {
      one[i] = plan->EstimateOne(probes[i]);
      EXPECT_NEAR(one[i], oracle.Estimate(probes[i]), 1e-12)
          << name << " seed=" << seed << " shape " << QueryTypeName(shape)
          << " query " << i;
      EXPECT_EQ(model.Estimate(probes[i]), one[i]) << name << " query " << i;
      EXPECT_GE(one[i], 0.0);
      EXPECT_LE(one[i], 1.0);
    }
    // The batch kernel is the same arithmetic, any thread count.
    for (int threads : {1, 8}) {
      ThreadPool pool(threads);
      ScopedPoolOverride scope(&pool);
      const std::vector<double> many = plan->EstimateMany(probes);
      ASSERT_EQ(many.size(), one.size());
      for (size_t i = 0; i < many.size(); ++i) {
        EXPECT_EQ(many[i], one[i])
            << name << " shape " << QueryTypeName(shape)
            << " threads=" << threads << " query " << i;
      }
    }
  }
}

// Every lowerable registry estimator, every query shape it serves, two
// training seeds: the plan matches the oracle, and the virtual Estimate
// call answers exactly the plan's value.
TEST(ServePlanTest, PlanMatchesVirtualPathEverywhere) {
  Fixture f;
  struct Case {
    const char* name;
    std::vector<QueryType> shapes;
  };
  // ISOMER's and QuickSel's paper scope is orthogonal ranges (and the
  // ISOMER oracle is the box-only STHoles sum); the learners serve
  // every shape in the library.
  const std::vector<Case> cases = {
      {"quadhist", kAllShapes},
      {"ptshist", kAllShapes},
      {"quicksel", {QueryType::kBox}},
      {"isomer", {QueryType::kBox}},
  };
  for (const Case& c : cases) {
    for (uint64_t seed : {901u, 902u}) {
      const Workload train = f.MakeTrain(80, seed);
      auto built = EstimatorRegistry::Build(c.name, 2, train.size());
      ASSERT_TRUE(built.ok()) << c.name << ": "
                              << built.status().ToString();
      ASSERT_TRUE(built.value()->Train(train).ok()) << c.name;
      ExpectPlanMatchesOracle(f, *built.value(), c.shapes, seed);
    }
  }
}

// The arrangement learner lowers its cells (histogram mode) or their
// centers (discrete mode).
TEST(ServePlanTest, ArrangementPlanMatchesBruteForceOracle) {
  Fixture f;
  for (auto mode : {ArrangementOptions::Mode::kHistogram,
                    ArrangementOptions::Mode::kDiscrete}) {
    for (uint64_t seed : {903u, 904u}) {
      ArrangementOptions o;
      o.mode = mode;
      ArrangementLearner model(2, o);
      ASSERT_TRUE(model.Train(f.MakeTrain(20, seed)).ok());
      ExpectPlanMatchesOracle(f, model, kAllShapes, seed);
    }
  }
}

// The always-fitted static forms lower at construction.
TEST(ServePlanTest, StaticFormsLower) {
  Fixture f;
  auto h = StaticHistogram::Create(
      {Box({0.0, 0.0}, {0.5, 1.0}), Box({0.5, 0.0}, {1.0, 1.0})}, {0.8, 0.2});
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  ExpectPlanMatchesOracle(f, *h.value(), kAllShapes, 905);
  auto p = StaticPointModel::Create({{0.25, 0.25}, {0.75, 0.75}}, {0.3, 0.7});
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ExpectPlanMatchesOracle(f, *p.value(), kAllShapes, 906);
}

// GMM and AVI have no flat bucket form; Compile says so instead of
// silently mis-lowering. A lowerable model has a plan exactly once it
// is trained.
TEST(ServePlanTest, NonLowerableEstimatorsReportUnimplemented) {
  GmmModel gmm(2, GmmOptions{});
  EXPECT_EQ(gmm.Compile().status().code(), StatusCode::kUnimplemented);
  AviHistogram avi(2, AviOptions{});
  EXPECT_EQ(avi.Compile().status().code(), StatusCode::kUnimplemented);
  QuadHist qh(2, QuadHistOptions{});
  EXPECT_EQ(qh.Compile().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(qh.shared_plan(), nullptr);
  Fixture f;
  ASSERT_TRUE(qh.Train(f.MakeTrain(40, 1401)).ok());
  EXPECT_NE(qh.shared_plan(), nullptr);
}

// Zero-volume buckets lower to point entries at their centers and
// zero-weight buckets are dropped — the plan still reproduces
// QueryBoxFraction's degenerate limit.
TEST(ServePlanTest, DegenerateAndZeroWeightBuckets) {
  const std::vector<Box> buckets = {
      Box({0.0, 0.0}, {0.5, 1.0}),   // proper
      Box({0.7, 0.2}, {0.7, 0.4}),   // zero volume -> point at center
      Box({0.2, 0.2}, {0.4, 0.4}),   // zero weight -> dropped
  };
  auto plan = CompiledPlan::FromBoxBuckets(buckets, {0.5, 0.3, 0.0},
                                           VolumeOptions{}, "test");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().num_box_entries(), 1u);
  EXPECT_EQ(plan.value().num_point_entries(), 1u);
  // Query containing the degenerate bucket's center picks up its weight.
  EXPECT_NEAR(plan.value().EstimateOne(Box({0.6, 0.1}, {0.8, 0.5})), 0.3,
              1e-15);
  // Full domain: 0.5 + 0.3 (the zero-weight bucket contributes nothing).
  EXPECT_NEAR(plan.value().EstimateOne(Box::Unit(2)), 0.8, 1e-15);
}

// Compiled plans survive save -> load with bit-identical estimates and
// save -> load -> save with bit-identical bytes (the canonical tree
// build is a pure function of the entry multiset).
TEST(ServePlanTest, ModelIoRoundTripIsExact) {
  Fixture f;
  const Workload train = f.MakeTrain(80, 905);
  for (const char* name : {"quadhist", "ptshist"}) {
    auto built = EstimatorRegistry::Build(name, 2, train.size());
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built.value()->Train(train).ok()) << name;
    auto plan = built.value()->Compile();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    PlanModel original(std::move(plan).value());

    const std::string path = TempPath(std::string("sel_plan_") + name +
                                      ".model");
    ASSERT_TRUE(SaveModel(original, path).ok()) << name;
    auto loaded = LoadModel(path);
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->RegistryName(), "plan");
    EXPECT_EQ(loaded.value()->NumBuckets(), original.NumBuckets()) << name;

    for (const Query& q : f.MakeProbes(QueryType::kBox, 40, 906)) {
      EXPECT_EQ(loaded.value()->Estimate(q), original.Estimate(q)) << name;
    }

    const std::string path2 = TempPath(std::string("sel_plan_") + name +
                                       "_2.model");
    ASSERT_TRUE(SaveModel(*loaded.value(), path2).ok()) << name;
    auto slurp = [](const std::string& p) {
      std::ifstream in(p);
      std::stringstream ss;
      ss << in.rdbuf();
      return ss.str();
    };
    EXPECT_EQ(slurp(path), slurp(path2))
        << name << ": save->load->save is not byte-stable";
    std::filesystem::remove(path);
    std::filesystem::remove(path2);
  }
}

// The pruning tree must actually prune: a tiny query visits far fewer
// entries than the plan holds, and the accounting is aggregated across
// a batch.
TEST(ServePlanTest, PruningStatsShowSkippedEntries) {
  Fixture f;
  const Workload train = f.MakeTrain(150, 907);
  auto built = EstimatorRegistry::Build("ptshist", 2, train.size());
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->Train(train).ok());
  auto plan = built.value()->Compile();
  ASSERT_TRUE(plan.ok());
  ASSERT_GT(plan.value().size(), 64u) << "fixture too small to prune";

  PlanEvalStats tiny;
  (void)plan.value().EstimateOne(Box({0.4, 0.4}, {0.41, 0.41}), &tiny);
  EXPECT_EQ(tiny.entries_total, plan.value().size());
  EXPECT_LT(tiny.entries_visited, tiny.entries_total);
  EXPECT_GT(tiny.PruneRatio(), 0.0);

  const std::vector<Query> probes = f.MakeProbes(QueryType::kBox, 20, 908);
  PlanEvalStats batch;
  (void)plan.value().EstimateMany(probes, &batch);
  EXPECT_EQ(batch.entries_total, plan.value().size() * probes.size());
  EXPECT_LE(batch.entries_visited, batch.entries_total);
}

// Malformed queries (non-finite parameters; every ctor-constructible
// degenerate form) must not poison the serving arithmetic: the plan
// path answers the empty-range 0 and the checked TryEstimate rejects
// with InvalidArgument, both counted under serve.invalid_query_total.
TEST(ServePlanTest, MalformedQueriesAreRejectedNotPoisonous) {
  Fixture f;
  QuadHist model(2, QuadHistOptions{});
  ASSERT_TRUE(model.Train(f.MakeTrain(40, 911)).ok());
  const auto plan = model.shared_plan();
  ASSERT_NE(plan, nullptr);

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Query> bad = {
      Box({0.0, 0.0}, {1.0, inf}),    // unbounded corner
      Box({-inf, 0.0}, {1.0, 1.0}),   // unbounded corner, low side
      Halfspace({1.0, 0.0}, inf),     // non-finite offset
      Halfspace({1.0, 0.0}, nan),     // NaN offset
      Ball({nan, 0.5}, 0.25),         // NaN center
      Ball({0.5, 0.5}, inf),          // infinite radius
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    EXPECT_FALSE(QueryIsValid(bad[i])) << "query " << i;
    // Plan path: sanitized to the empty-range answer, never NaN.
    EXPECT_EQ(plan->EstimateOne(bad[i]), 0.0) << "query " << i;
    // Checked path: an explicit rejection the caller can see.
    auto checked = model.TryEstimate(bad[i]);
    ASSERT_FALSE(checked.ok()) << "query " << i;
    EXPECT_EQ(checked.status().code(), StatusCode::kInvalidArgument)
        << "query " << i;
  }
  // The batch kernel inherits the per-query sanitization.
  const std::vector<double> many = plan->EstimateMany(bad);
  for (size_t i = 0; i < many.size(); ++i) {
    EXPECT_EQ(many[i], 0.0) << "query " << i;
  }

  // Well-formed queries flow through the checked path unchanged.
  const Query good = Box({0.2, 0.2}, {0.7, 0.7});
  ASSERT_TRUE(QueryIsValid(good));
  auto checked = model.TryEstimate(good);
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(checked.value(), model.Estimate(good));
}

// Serving never blocks on retraining: readers hammer Estimate while the
// feedback loop forces several retrains; every observed estimate is
// valid and the hand-off lands a fresh plan. The TSAN lane turns any
// torn or unsynchronized hand-off into a hard failure.
TEST(ServePlanTest, OnlineServingUninterruptedAcrossRetrain) {
  Fixture f;
  OnlineOptions opts;
  opts.retrain_interval = 25;
  opts.estimator = "quadhist";
  auto online = OnlineEstimator::Create(2, opts);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  OnlineEstimator& est = *online.value();

  const Workload feed = f.MakeTrain(150, 910);
  const Query probe = Box({0.2, 0.2}, {0.7, 0.7});

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<bool> bad{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const double v = est.Estimate(probe);
        if (!(v >= 0.0 && v <= 1.0)) bad.store(true);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Collect statuses and join the readers BEFORE asserting: a failed
  // assertion returns from the test body, and destroying a joinable
  // std::thread calls std::terminate — under fault injection (which
  // legitimately fails Retrain) that would turn an ordinary test
  // failure into an abort.
  Status feed_status = Status::OK();
  for (const auto& z : feed) {
    feed_status = est.Feedback(z.query, z.selectivity);
    if (!feed_status.ok()) break;
  }
  const Status retrain_status =
      feed_status.ok() ? est.Retrain() : Status::OK();
  stop.store(true);
  for (auto& t : readers) t.join();

  ASSERT_TRUE(feed_status.ok()) << feed_status.ToString();
  ASSERT_TRUE(retrain_status.ok()) << retrain_status.ToString();
  EXPECT_FALSE(bad.load()) << "a reader saw an out-of-range estimate";
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GE(est.retrain_count(), 5u);
  EXPECT_TRUE(est.trained());
  // quadhist lowers, so the swapped-in state carries a plan.
  EXPECT_NE(est.serving_plan(), nullptr);
}

}  // namespace
}  // namespace sel
