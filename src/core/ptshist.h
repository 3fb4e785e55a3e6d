// PtsHist (§3.3): a discrete distribution for high dimensions.
//
// Bucket design: given a model size k, draw 0.9k points from the
// interiors of training ranges — each range receives a share proportional
// to its selectivity, sampled by rejection from its smallest bounding box
// (App. A.2) — plus 0.1k uniform points covering space the workload
// misses. Weight estimation is the same Eq. (8) QP over the indicator
// matrix of Eq. (7).
#ifndef SEL_CORE_PTSHIST_H_
#define SEL_CORE_PTSHIST_H_

#include <vector>

#include "core/model.h"

namespace sel {

/// Tunables for PtsHist.
struct PtsHistOptions {
  /// Target number of bucket points k; 0 means 4x the training size
  /// (the QuickSel convention the paper adopts in §4.1).
  size_t model_size = 0;
  /// Share of points drawn from training-range interiors (0.9 in §3.3).
  double interior_fraction = 0.9;
  /// Rejection-sampling attempt cap per point (App. A.2).
  int rejection_attempts = 256;
  /// RNG seed for bucket sampling (model is deterministic given it).
  uint64_t seed = 20220612;
  /// L2 (Eq. 8) or L∞ (§4.6) training objective.
  TrainObjective objective = TrainObjective::kL2;
  SimplexLsqOptions solver;
  LpOptions lp;
};

/// The PtsHist model. Works for any query type and scales with model
/// size rather than dimension.
class PtsHist : public SelectivityModel {
 public:
  PtsHist(int domain_dim, const PtsHistOptions& options);

  Status Train(const Workload& workload) override;
  size_t NumBuckets() const override { return points_.size(); }
  std::string Name() const override { return "PtsHist"; }

  /// Lowers the trained point set to Eq. (7) point entries.
  Result<CompiledPlan> Compile() const override;

  /// The bucket points (for visualization, cf. Fig. 7 right).
  const std::vector<Point>& BucketPoints() const { return points_; }

  /// The learned weights, aligned with BucketPoints().
  const Vector& BucketWeights() const { return weights_; }

 private:
  int dim_;
  PtsHistOptions options_;
  std::vector<Point> points_;
  Vector weights_;
  bool trained_ = false;
};

}  // namespace sel

#endif  // SEL_CORE_PTSHIST_H_
