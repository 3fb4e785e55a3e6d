// Tests for static models and model serialization: every trained model
// round-trips through the text format with identical predictions.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/fault.h"
#include "core/estimator_registry.h"
#include "core/gmm.h"
#include "core/model_io.h"
#include "core/ptshist.h"
#include "core/quadhist.h"
#include "core/static_model.h"
#include "data/generators.h"
#include "index/kdtree.h"
#include "workload/workload.h"

namespace sel {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct Fixture {
  Fixture()
      : data(MakePowerLike(3000, 900).Project({0, 1})),
        index(data.rows()) {}

  Workload Make(size_t n, uint64_t seed) const {
    WorkloadOptions opts;
    opts.seed = seed;
    WorkloadGenerator gen(&data, &index, opts);
    return gen.Generate(n);
  }

  Dataset data;
  CountingKdTree index;
};

TEST(StaticModelTest, HistogramEstimatesViaEq6) {
  std::vector<Box> buckets = {Box({0.0, 0.0}, {0.5, 1.0}),
                              Box({0.5, 0.0}, {1.0, 1.0})};
  auto built = StaticHistogram::Create(buckets, {0.8, 0.2});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const SelectivityModel& m = *built.value();
  EXPECT_NEAR(m.Estimate(Box({0.0, 0.0}, {0.5, 1.0})), 0.8, 1e-12);
  EXPECT_NEAR(m.Estimate(Box({0.0, 0.0}, {0.25, 1.0})), 0.4, 1e-12);
  EXPECT_NEAR(m.Estimate(Box::Unit(2)), 1.0, 1e-12);
  EXPECT_EQ(m.NumBuckets(), 2u);
}

TEST(StaticModelTest, PointModelEstimatesViaEq7) {
  auto built = StaticPointModel::Create({{0.25, 0.25}, {0.75, 0.75}},
                                       {0.3, 0.7});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const SelectivityModel& m = *built.value();
  EXPECT_DOUBLE_EQ(m.Estimate(Box({0.0, 0.0}, {0.5, 0.5})), 0.3);
  EXPECT_DOUBLE_EQ(m.Estimate(Box({0.5, 0.5}, {1.0, 1.0})), 0.7);
  EXPECT_DOUBLE_EQ(m.Estimate(Box::Unit(2)), 1.0);
}

TEST(StaticModelTest, TrainIsRejected) {
  auto h = StaticHistogram::Create({Box::Unit(2)}, {1.0});
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h.value()->Train({}).code(), StatusCode::kFailedPrecondition);
  auto p = StaticPointModel::Create({{0.5, 0.5}}, {1.0});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value()->Train({}).code(), StatusCode::kFailedPrecondition);
}

TEST(ModelIoTest, QuadHistRoundTripIdenticalEstimates) {
  Fixture f;
  const Workload train = f.Make(80, 901);
  QuadHistOptions qo;
  qo.tau = 0.02;
  QuadHist model(2, qo);
  ASSERT_TRUE(model.Train(train).ok());
  const std::string path = TempPath("sel_quadhist.model");
  ASSERT_TRUE(
      SaveHistogramModel(model.LeafBoxes(), model.LeafWeights(), path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const auto& z : f.Make(50, 902)) {
    EXPECT_NEAR(loaded.value()->Estimate(z.query), model.Estimate(z.query),
                1e-5);
  }
  std::filesystem::remove(path);
}

TEST(ModelIoTest, PtsHistRoundTripIdenticalEstimates) {
  Fixture f;
  const Workload train = f.Make(60, 903);
  PtsHist model(2, PtsHistOptions{});
  ASSERT_TRUE(model.Train(train).ok());
  const std::string path = TempPath("sel_ptshist.model");
  ASSERT_TRUE(
      SavePointModel(model.BucketPoints(), model.BucketWeights(), path)
          .ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->NumBuckets(), model.NumBuckets());
  for (const auto& z : f.Make(50, 904)) {
    EXPECT_NEAR(loaded.value()->Estimate(z.query), model.Estimate(z.query),
                1e-5);
  }
  std::filesystem::remove(path);
}

TEST(ModelIoTest, GmmRoundTripIdenticalEstimates) {
  Fixture f;
  const Workload train = f.Make(80, 905);
  GmmOptions go;
  go.num_components = 10;
  GmmModel model(2, go);
  ASSERT_TRUE(model.Train(train).ok());
  const std::string path = TempPath("sel_gmm.model");
  ASSERT_TRUE(SaveGmmModel(model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->NumBuckets(), 10u);
  for (const auto& z : f.Make(50, 906)) {
    EXPECT_NEAR(loaded.value()->Estimate(z.query), model.Estimate(z.query),
                1e-5);
  }
  std::filesystem::remove(path);
}

TEST(ModelIoTest, RegistrySaveLoadBitIdenticalEstimates) {
  Fixture f;
  const Workload train = f.Make(60, 907);
  const Workload probe = f.Make(50, 908);
  for (const std::string& name :
       EstimatorRegistry::Global().SavableNames()) {
    auto built = EstimatorRegistry::Build(name, 2, train.size());
    ASSERT_TRUE(built.ok()) << name << ": " << built.status().ToString();
    SelectivityModel& model = *built.value();
    // Static forms and the compiled-plan wrapper ship untrained (uniform
    // prior); everything else is trained before serialization.
    if (name != "static" && name != "staticpoints" && name != "plan") {
      ASSERT_TRUE(model.Train(train).ok()) << name;
    }
    const std::string path = TempPath("sel_registry_" + name + ".model");
    ASSERT_TRUE(SaveModel(model, path).ok()) << name;
    auto loaded = LoadModel(path);
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->NumBuckets(), model.NumBuckets()) << name;
    // %.17g serialization round-trips doubles exactly: re-saving the
    // loaded model and loading again must give bit-identical estimates.
    const std::string path2 = TempPath("sel_registry_" + name + "_2.model");
    ASSERT_TRUE(SaveModel(*loaded.value(), path2).ok()) << name;
    auto reloaded = LoadModel(path2);
    ASSERT_TRUE(reloaded.ok()) << name << ": "
                               << reloaded.status().ToString();
    // Bucket-form models load as plans over the same bucket multiset,
    // and a plan's summation order is canonical over that multiset, so
    // the loaded model answers bit-identically to the original. The
    // GMM reloads through FromParameters and matches to 1e-12.
    const bool plan_form = name != "gmm";
    for (const auto& z : probe) {
      EXPECT_EQ(loaded.value()->Estimate(z.query),
                reloaded.value()->Estimate(z.query))
          << name;
      if (plan_form) {
        EXPECT_EQ(loaded.value()->Estimate(z.query), model.Estimate(z.query))
            << name;
      } else {
        EXPECT_NEAR(loaded.value()->Estimate(z.query),
                    model.Estimate(z.query), 1e-12)
            << name;
      }
    }
    std::filesystem::remove(path);
    std::filesystem::remove(path2);
  }
}

TEST(ModelIoTest, SaveModelRejectsTransientEstimators) {
  Fixture f;
  const Workload train = f.Make(40, 909);
  auto built = EstimatorRegistry::Build("quicksel", 2, train.size());
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->Train(train).ok());
  const Status st = SaveModel(*built.value(), TempPath("x.model"));
  EXPECT_EQ(st.code(), StatusCode::kUnimplemented);
  EXPECT_NE(st.ToString().find("does not support serialization"),
            std::string::npos);
  // The message enumerates what IS savable, straight from the registry.
  EXPECT_NE(st.ToString().find("quadhist"), std::string::npos);
}

TEST(ModelIoTest, SaveModelWritesRegistryNameHeader) {
  Fixture f;
  const Workload train = f.Make(40, 910);
  auto built = EstimatorRegistry::Build("quadhist", 2, train.size());
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->Train(train).ok());
  const std::string path = TempPath("sel_header.model");
  ASSERT_TRUE(SaveModel(*built.value(), path).ok());
  std::ifstream in(path);
  std::string line, header;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') {
      header = line;
      break;
    }
  }
  EXPECT_EQ(header.rfind("selmodel 1 quadhist 2 ", 0), 0u) << header;
  std::filesystem::remove(path);
}

TEST(ModelIoTest, RejectsCorruptFiles) {
  const std::string path = TempPath("sel_corrupt.model");
  {
    std::ofstream out(path);
    out << "not a model\n";
  }
  EXPECT_FALSE(LoadModel(path).ok());
  {
    std::ofstream out(path);
    out << "selmodel 1 histogram 2 3\n"
        << "box 0 0 1 1 0.5\n";  // claims 3 records, has 1
  }
  EXPECT_FALSE(LoadModel(path).ok());
  {
    std::ofstream out(path);
    out << "selmodel 1 histogram 2 1\n"
        << "point 0.5 0.5 1.0\n";  // record kind mismatch
  }
  EXPECT_FALSE(LoadModel(path).ok());
  {
    std::ofstream out(path);
    out << "selmodel 99 histogram 2 1\n"
        << "box 0 0 1 1 1.0\n";  // bad version
  }
  EXPECT_FALSE(LoadModel(path).ok());
  std::filesystem::remove(path);
  EXPECT_FALSE(LoadModel("/nonexistent/dir/m.model").ok());
}

TEST(ModelIoTest, RejectsNonFiniteValuesAsIOError) {
  const std::string path = TempPath("sel_nonfinite.model");
  auto write_and_code = [&path](const std::string& body) {
    std::ofstream out(path);
    out << body;
    out.close();
    return LoadModel(path).status().code();
  };
  // A NaN weight, coordinate, or stddev is corrupt data, not a value to
  // propagate into estimates.
  EXPECT_EQ(write_and_code("selmodel 1 histogram 2 1\n"
                           "box 0 0 1 1 nan\n"),
            StatusCode::kIOError);
  EXPECT_EQ(write_and_code("selmodel 1 histogram 2 1\n"
                           "box 0 nan 1 1 0.5\n"),
            StatusCode::kIOError);
  EXPECT_EQ(write_and_code("selmodel 1 points 2 1\n"
                           "point 0.5 inf 1.0\n"),
            StatusCode::kIOError);
  EXPECT_EQ(write_and_code("selmodel 1 gmm 2 1\n"
                           "gauss 0.5 0.5 nan 0.1 1.0\n"),
            StatusCode::kIOError);
  // Truncated record (stream ends mid-box) is IOError, not an abort.
  EXPECT_EQ(write_and_code("selmodel 1 histogram 2 2\n"
                           "box 0 0 1 1 0.5\n"
                           "box 0 0\n"),
            StatusCode::kIOError);
  std::filesystem::remove(path);
}

// Files whose records parse but whose model does not lower are refused
// at load instead of served: a positive box volume below 1/DBL_MAX has
// an infinite inverse volume (0·inf made such a model answer NaN), one
// above DBL_MAX overflows to an infinite volume, and all-zero weights
// leave no mass to serve.
TEST(ModelIoTest, RejectsUnlowerableModelsAsIOError) {
  const std::string path = TempPath("sel_unlowerable.model");
  auto write_and_code = [&path](const std::string& body) {
    std::ofstream out(path);
    out << body;
    out.close();
    return LoadModel(path).status().code();
  };
  EXPECT_EQ(write_and_code("selmodel 1 static 2 2\n"
                           "box 0 0 1e-160 1e-160 0.5\n"
                           "box 0.5 0.5 1 1 0.5\n"),
            StatusCode::kIOError);
  EXPECT_EQ(write_and_code("selmodel 1 static 2 1\n"
                           "box -1e300 -1e300 1e300 1e300 1\n"),
            StatusCode::kIOError);
  EXPECT_EQ(write_and_code("selmodel 1 static 2 2\n"
                           "box 0 0 0.5 1 0\n"
                           "box 0.5 0 1 1 0\n"),
            StatusCode::kIOError);
  EXPECT_EQ(write_and_code("selmodel 1 staticpoints 2 1\n"
                           "point 0.5 0.5 0\n"),
            StatusCode::kIOError);
  std::filesystem::remove(path);
  // The factories behind the loader report the same inputs as
  // InvalidArgument.
  EXPECT_EQ(StaticHistogram::Create({Box({0.0, 0.0}, {1e-160, 1e-160})},
                                    {1.0})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StaticPointModel::Create({{0.5, 0.5}}, {0.0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ModelIoTest, RejectsInvalidSaves) {
  EXPECT_FALSE(SaveHistogramModel({}, {}, TempPath("x.model")).ok());
  EXPECT_FALSE(SavePointModel({{0.5}}, {0.5, 0.5},
                              TempPath("x.model")).ok());
  GmmModel untrained(2, GmmOptions{});
  EXPECT_FALSE(SaveGmmModel(untrained, TempPath("x.model")).ok());
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ModelIoTest, SaveWritesCrcTrailerAndLoadVerifiesIt) {
  const std::string path = TempPath("sel_crc.model");
  std::vector<Box> buckets = {Box({0.0, 0.0}, {0.5, 1.0}),
                              Box({0.5, 0.0}, {1.0, 1.0})};
  ASSERT_TRUE(SaveHistogramModel(buckets, {0.75, 0.25}, path).ok());

  const std::string contents = Slurp(path);
  // The trailer is the last line; the payload above it is unchanged.
  ASSERT_NE(contents.rfind("\n#crc32 "), std::string::npos);
  EXPECT_TRUE(LoadModel(path).ok());
  // The staging temp file was renamed away, not left behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Flip one payload byte under the intact trailer: detected as corrupt.
  {
    std::string tampered = contents;
    const size_t pos = tampered.find("0.75");
    ASSERT_NE(pos, std::string::npos);
    tampered[pos + 2] = '9';  // 0.75 -> 0.95
    std::ofstream out(path, std::ios::binary);
    out << tampered;
  }
  auto corrupt = LoadModel(path);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kIOError);
  EXPECT_NE(corrupt.status().ToString().find("crc32"), std::string::npos);

  // A wrong stored checksum over an intact payload is equally corrupt.
  {
    std::string bad = contents;
    const size_t pos = bad.rfind("#crc32 ");
    bad.replace(pos, std::string::npos, "#crc32 00000000\n");
    std::ofstream out(path, std::ios::binary);
    out << bad;
  }
  EXPECT_EQ(LoadModel(path).status().code(), StatusCode::kIOError);

  // A malformed trailer (unparseable hex) is corrupt, not ignorable.
  {
    std::string bad = contents;
    const size_t pos = bad.rfind("#crc32 ");
    bad.replace(pos, std::string::npos, "#crc32 zzzz\n");
    std::ofstream out(path, std::ios::binary);
    out << bad;
  }
  EXPECT_EQ(LoadModel(path).status().code(), StatusCode::kIOError);

  // Stripping the trailer entirely yields a legacy (pre-CRC) file, which
  // still loads: verification is opt-in by presence.
  {
    std::string legacy = contents;
    legacy.resize(legacy.rfind("#crc32 "));
    std::ofstream out(path, std::ios::binary);
    out << legacy;
  }
  EXPECT_TRUE(LoadModel(path).ok());
  std::filesystem::remove(path);
}

TEST(ModelIoTest, InjectedRenameFaultPreservesIncumbentFile) {
  Fixture f;
  const Workload train = f.Make(40, 911);
  auto built = EstimatorRegistry::Build("quadhist", 2, train.size());
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->Train(train).ok());
  const std::string path = TempPath("sel_rename_fault.model");
  ASSERT_TRUE(SaveModel(*built.value(), path).ok());
  const std::string before = Slurp(path);

  // A save that dies at the publication rename must leave the previous
  // file byte-for-byte intact and clean up its staging temp.
  auto other = EstimatorRegistry::Build("ptshist", 2, train.size());
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(other.value()->Train(train).ok());
  FaultRegistry::Global().Arm("io.save.rename");
  const Status st = SaveModel(*other.value(), path);
  FaultRegistry::Global().Disarm("io.save.rename");
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(Slurp(path), before);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // With the fault gone the overwrite goes through atomically.
  ASSERT_TRUE(SaveModel(*other.value(), path).ok());
  EXPECT_NE(Slurp(path), before);
  std::filesystem::remove(path);
}

TEST(ModelIoTest, CommentsAndBlankLinesTolerated) {
  const std::string path = TempPath("sel_comments.model");
  {
    std::ofstream out(path);
    out << "# a comment\n\n"
        << "selmodel 1 points 2 2\n"
        << "# another\n"
        << "point 0.2 0.2 0.5\n\n"
        << "point 0.8 0.8 0.5\n";
  }
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->NumBuckets(), 2u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace sel
