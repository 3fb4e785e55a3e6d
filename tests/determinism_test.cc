// Thread-count invariance: training and scoring the paper's two main
// models must be bit-identical whether the pool has 1 worker (the exact
// legacy serial path) or 8, and re-running with the same seed must
// reproduce the same model. This is the contract that makes SEL_THREADS
// a pure performance knob.
#include <gtest/gtest.h>

#include <vector>

#include "sel/sel.h"

namespace sel {
namespace {

struct TrainedRun {
  Vector weights;       // bucket weights, in fixed bucket order
  double train_loss;
  size_t buckets;
  ErrorReport report;   // full test-set scoring
};

// Exact (bitwise, via ==) equality of two runs, field by field.
void ExpectBitIdentical(const TrainedRun& a, const TrainedRun& b) {
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.train_loss, b.train_loss);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (size_t i = 0; i < a.weights.size(); ++i) {
    EXPECT_EQ(a.weights[i], b.weights[i]) << "weight " << i;
  }
  EXPECT_EQ(a.report.rms, b.report.rms);
  EXPECT_EQ(a.report.mae, b.report.mae);
  EXPECT_EQ(a.report.linf, b.report.linf);
  EXPECT_EQ(a.report.q50, b.report.q50);
  EXPECT_EQ(a.report.q95, b.report.q95);
  EXPECT_EQ(a.report.q99, b.report.q99);
  EXPECT_EQ(a.report.qmax, b.report.qmax);
  EXPECT_EQ(a.report.num_queries, b.report.num_queries);
}

class DeterminismTest : public ::testing::TestWithParam<QueryType> {
 protected:
  void SetUp() override {
    auto ds = MakeDatasetByName("power", 3000, 1500);
    ASSERT_TRUE(ds.ok());
    data_ = ds.value().Project({0, 1, 2});
    index_ = std::make_unique<CountingKdTree>(data_.rows());
    WorkloadOptions opts;
    opts.query_type = GetParam();
    opts.seed = 20220612;
    WorkloadGenerator gen(&data_, index_.get(), opts);
    train_ = gen.Generate(100);
    test_ = gen.Generate(60);
  }

  TrainedRun RunQuadHist(int threads) {
    ThreadPool pool(threads);
    ScopedPoolOverride scope(&pool);
    QuadHistOptions o;
    o.max_leaves = 400;
    QuadHist model(data_.dim(), o);
    EXPECT_TRUE(model.Train(train_).ok());
    return TrainedRun{model.LeafWeights(), model.train_stats().train_loss,
                      model.NumBuckets(),
                      EvaluateModel(model, test_, 1e-6)};
  }

  TrainedRun RunPtsHist(int threads, uint64_t seed) {
    ThreadPool pool(threads);
    ScopedPoolOverride scope(&pool);
    PtsHistOptions o;
    o.model_size = 400;
    o.seed = seed;
    PtsHist model(data_.dim(), o);
    EXPECT_TRUE(model.Train(train_).ok());
    return TrainedRun{model.BucketWeights(),
                      model.train_stats().train_loss, model.NumBuckets(),
                      EvaluateModel(model, test_, 1e-6)};
  }

  Dataset data_;
  std::unique_ptr<CountingKdTree> index_;
  Workload train_, test_;
};

TEST_P(DeterminismTest, QuadHistBitIdenticalAcrossThreadCounts) {
  ExpectBitIdentical(RunQuadHist(1), RunQuadHist(8));
}

TEST_P(DeterminismTest, PtsHistBitIdenticalAcrossThreadCounts) {
  ExpectBitIdentical(RunPtsHist(1, 20220612), RunPtsHist(8, 20220612));
}

TEST_P(DeterminismTest, SameSeedReproducesSameModel) {
  ExpectBitIdentical(RunQuadHist(8), RunQuadHist(8));
  ExpectBitIdentical(RunPtsHist(8, 777), RunPtsHist(8, 777));
}

INSTANTIATE_TEST_SUITE_P(
    QueryTypes, DeterminismTest,
    ::testing::Values(QueryType::kBox, QueryType::kHalfspace,
                      QueryType::kBall),
    [](const ::testing::TestParamInfo<QueryType>& info) {
      return std::string(QueryTypeName(info.param));
    });

// The sweep harness itself (workload generation + cell fan-out) must
// also be invariant: identical EvalCells from a 1-thread and an 8-thread
// pool, in identical order.
TEST(SweepDeterminismTest, EvaluateModelMatchesSerialLoop) {
  auto ds = MakeDatasetByName("power", 2000, 99);
  ASSERT_TRUE(ds.ok());
  const Dataset data = ds.value().Project({0, 1});
  const CountingKdTree index(data.rows());
  WorkloadOptions opts;
  opts.seed = 31;
  WorkloadGenerator gen(&data, &index, opts);
  const Workload train = gen.Generate(80);
  const Workload test = gen.Generate(50);

  QuadHistOptions o;
  o.max_leaves = 256;
  QuadHist model(data.dim(), o);
  ASSERT_TRUE(model.Train(train).ok());

  // One serving path: the batched loop must match the serial Estimate
  // calls bit for bit at any thread count.
  for (int threads : {1, 8}) {
    ThreadPool pool(threads);
    ScopedPoolOverride scope(&pool);
    const std::vector<double> batched = EstimateBatch(model, test);
    ASSERT_EQ(batched.size(), test.size());
    for (size_t i = 0; i < test.size(); ++i) {
      EXPECT_EQ(batched[i], model.Estimate(test[i].query))
          << "threads=" << threads << " query " << i;
    }
  }
}

}  // namespace
}  // namespace sel
