// Brute-force reference for the two prediction sums of §3.1, evaluated
// straight from the inputs each model was lowered from — no pruning
// tree, no SIMD leaf kernels, no precomputed inverse volumes:
//
//   Eq. (6)  Σ_j w_j · vol(B_j ∩ R) / vol(B_j)   over box buckets,
//   Eq. (7)  Σ_j w_j · 1(p_j ∈ R)                 over point buckets,
//
// and, for ISOMER, the STHoles effective-fraction sum over its bucket
// tree (box queries only, the estimator's training scope). Each term is
// one linear scan over every bucket, so the oracle is both the test
// reference for CompiledPlan (tests/serve_plan_test.cc) and the
// baseline arm of bench_prediction_time. Test/bench code only: it is
// not part of the sel library.
#ifndef SEL_TESTS_BUCKET_SUM_ORACLE_H_
#define SEL_TESTS_BUCKET_SUM_ORACLE_H_

#include <algorithm>
#include <vector>

#include "baselines/isomer.h"
#include "baselines/quicksel.h"
#include "common/check.h"
#include "core/arrangement.h"
#include "core/ptshist.h"
#include "core/quadhist.h"
#include "core/static_model.h"
#include "geometry/volume.h"

namespace sel {

/// The oracle for one trained lowerable model. Construction copies the
/// model's buckets and weights out once; Estimate is then a flat scan.
class BucketSumOracle {
 public:
  explicit BucketSumOracle(const SelectivityModel& model) {
    SEL_CHECK_MSG(model.shared_plan() != nullptr,
                  "BucketSumOracle: %s is untrained or non-lowerable",
                  model.Name().c_str());
    volume_ = model.shared_plan()->volume_options();
    if (const auto* m = dynamic_cast<const QuadHist*>(&model)) {
      boxes_ = m->LeafBoxes();
      weights_ = m->LeafWeights();
    } else if (const auto* m = dynamic_cast<const PtsHist*>(&model)) {
      points_ = m->BucketPoints();
      weights_ = m->BucketWeights();
    } else if (const auto* m = dynamic_cast<const QuickSel*>(&model)) {
      boxes_ = m->Kernels();
      weights_ = m->Weights();
    } else if (const auto* m = dynamic_cast<const Isomer*>(&model)) {
      isomer_ = &m->Buckets();
    } else if (const auto* m =
                   dynamic_cast<const ArrangementLearner*>(&model)) {
      if (m->CellPoints().empty()) {
        boxes_ = m->Cells();
      } else {
        points_ = m->CellPoints();
      }
      weights_ = m->Weights();
    } else if (const auto* m = dynamic_cast<const StaticHistogram*>(&model)) {
      boxes_ = m->buckets();
      weights_ = m->weights();
    } else if (const auto* m =
                   dynamic_cast<const StaticPointModel*>(&model)) {
      points_ = m->points();
      weights_ = m->weights();
    } else {
      SEL_CHECK_MSG(false, "BucketSumOracle: no reference for %s",
                    model.Name().c_str());
    }
  }

  double Estimate(const Query& query) const {
    double s = 0.0;
    if (isomer_ != nullptr) {
      s = IsomerSum(query.box());
    } else if (!boxes_.empty()) {
      for (size_t j = 0; j < boxes_.size(); ++j) {
        if (weights_[j] == 0.0 || query.DisjointFromBox(boxes_[j])) continue;
        s += weights_[j] * QueryBoxFraction(query, boxes_[j], volume_);
      }
    } else {
      for (size_t j = 0; j < points_.size(); ++j) {
        if (weights_[j] != 0.0 && query.Contains(points_[j])) {
          s += weights_[j];
        }
      }
    }
    return std::clamp(s, 0.0, 1.0);
  }

 private:
  /// Σ_b w_b · vol((B_b minus its children) ∩ R) / eff_vol(b).
  double IsomerSum(const Box& r) const {
    const std::vector<Isomer::Bucket>& buckets = *isomer_;
    double s = 0.0;
    for (const Isomer::Bucket& b : buckets) {
      if (b.weight == 0.0 || b.effective_volume <= 0.0) continue;
      double v = BoxBoxIntersectionVolume(b.box, r);
      if (v <= 0.0) continue;
      for (int ch : b.children) {
        v -= BoxBoxIntersectionVolume(buckets[ch].box, r);
      }
      s += b.weight * std::clamp(v / b.effective_volume, 0.0, 1.0);
    }
    return s;
  }

  VolumeOptions volume_;
  std::vector<Box> boxes_;
  std::vector<Point> points_;
  Vector weights_;
  const std::vector<Isomer::Bucket>* isomer_ = nullptr;
};

}  // namespace sel

#endif  // SEL_TESTS_BUCKET_SUM_ORACLE_H_
