// Flat (post-training) model forms: a histogram as plain (box, weight)
// pairs and a discrete distribution as (point, weight) pairs. These are
// the serialization targets for every trained model — QuadHist leaves,
// QuickSel kernels, and arrangement cells all flatten to StaticHistogram;
// PtsHist flattens to StaticPointModel — and they lower at construction
// to the same CompiledPlan the trained model served, so a round-tripped
// model predicts bit-identically.
#ifndef SEL_CORE_STATIC_MODEL_H_
#define SEL_CORE_STATIC_MODEL_H_

#include <memory>
#include <vector>

#include "core/model.h"

namespace sel {

/// An immutable histogram D = {(B_1,w_1),...,(B_m,w_m)} (Eq. 6).
class StaticHistogram : public SelectivityModel {
 public:
  /// Builds the model and lowers it to its plan. Fails with
  /// InvalidArgument when the buckets do not lower: empty or misaligned
  /// input, mixed dimensions, all-zero weights, or a bucket whose
  /// inverse volume is not finite (volume under- or overflow).
  /// Weights should lie on the simplex.
  static Result<std::unique_ptr<SelectivityModel>> Create(
      std::vector<Box> buckets, Vector weights, VolumeOptions volume = {});

  /// Train is a no-op (the model is already fitted); returns an error to
  /// make accidental retraining loud.
  Status Train(const Workload& workload) override;
  size_t NumBuckets() const override { return buckets_.size(); }
  std::string Name() const override { return "StaticHistogram"; }
  std::string RegistryName() const override { return "static"; }

  /// Already in Eq. (6) form — lowers directly.
  Result<CompiledPlan> Compile() const override;

  const std::vector<Box>& buckets() const { return buckets_; }
  const Vector& weights() const { return weights_; }

 private:
  StaticHistogram(std::vector<Box> buckets, Vector weights,
                  VolumeOptions volume);

  std::vector<Box> buckets_;
  Vector weights_;
  VolumeOptions volume_;
};

/// An immutable discrete distribution D = {(B_1,w_1),...} (Eq. 7).
class StaticPointModel : public SelectivityModel {
 public:
  /// Builds the model and lowers it to its plan; InvalidArgument when
  /// the points do not lower (empty or misaligned input, mixed
  /// dimensions, all-zero weights).
  static Result<std::unique_ptr<SelectivityModel>> Create(
      std::vector<Point> points, Vector weights);

  Status Train(const Workload& workload) override;
  size_t NumBuckets() const override { return points_.size(); }
  std::string Name() const override { return "StaticPointModel"; }
  std::string RegistryName() const override { return "staticpoints"; }

  /// Already in Eq. (7) form — lowers directly.
  Result<CompiledPlan> Compile() const override;

  const std::vector<Point>& points() const { return points_; }
  const Vector& weights() const { return weights_; }

 private:
  StaticPointModel(std::vector<Point> points, Vector weights);

  std::vector<Point> points_;
  Vector weights_;
};

}  // namespace sel

#endif  // SEL_CORE_STATIC_MODEL_H_
