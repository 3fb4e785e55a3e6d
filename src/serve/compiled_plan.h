// The serving-time IR: every trained estimator in the paper reduces at
// prediction time to one of two evaluations — Eq. (6)
// Σ_j w_j·vol(B_j∩R)/vol(B_j) over box buckets and Eq. (7)
// Σ_j w_j·1(p_j∈R) over point buckets. A CompiledPlan is the immutable,
// flattened lowering of a trained model to exactly those two forms:
//
//  * box buckets as structure-of-arrays `lo[]`/`hi[]`/`weight[]`/
//    `inv_vol[]` (inverse volumes precomputed once at compile time
//    instead of per call), mirrored into 64-byte-aligned, padded
//    coordinate-major runs that the runtime-dispatched SIMD leaf
//    kernels (common/simd.h) scan full-width with no scalar tails,
//  * point buckets as padded coordinate-major arrays (one contiguous
//    run per dimension, so the box fast path mask-filters a leaf one
//    dimension at a time),
//  * a bucket-pruning kd-tree per segment (median split over bucket
//    bounding boxes, the CountingKdTree machinery): nodes cache their
//    bbox and subtree weight sum, so a query skips disjoint subtrees
//    outright and absorbs fully-contained subtrees as one cached sum.
//
// Plans are built by SelectivityModel::Compile() (see core/model.h) as
// the last step of Train, so a lowerable model's plan IS its prediction
// form. They are served through EstimateOne/EstimateMany, swapped
// wholesale by OnlineEstimator without interrupting readers, and
// serialized by model_io under the "plan" registry kind. The layer
// depends only on geometry/common — estimators depend on it, never the
// reverse.
#ifndef SEL_SERVE_COMPILED_PLAN_H_
#define SEL_SERVE_COMPILED_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/status.h"
#include "geometry/box.h"
#include "geometry/query.h"
#include "geometry/volume.h"

namespace sel {

/// Pruning accounting for one evaluation (or an aggregated batch):
/// `entries_visited` counts the buckets actually scanned in leaves;
/// everything else was skipped as a disjoint subtree or absorbed as a
/// contained subtree's cached weight sum.
struct PlanEvalStats {
  uint64_t entries_total = 0;
  uint64_t entries_visited = 0;

  /// Fraction of entries NOT individually scanned, in [0,1].
  double PruneRatio() const {
    return entries_total == 0
               ? 0.0
               : 1.0 - static_cast<double>(entries_visited) /
                           static_cast<double>(entries_total);
  }
};

/// The immutable serving plan. Thread-safe for concurrent EstimateOne /
/// EstimateMany calls (all state is written at construction).
class CompiledPlan {
 public:
  /// Lowers Eq. (6) box buckets. Zero-weight buckets are dropped (their
  /// contribution is exactly +0.0); zero-volume buckets lower to point
  /// entries at their centers (QueryBoxFraction's degenerate limit).
  /// Fails on misaligned/empty input, mixed dimensions, or non-finite
  /// weights.
  static Result<CompiledPlan> FromBoxBuckets(const std::vector<Box>& buckets,
                                             const std::vector<double>& weights,
                                             const VolumeOptions& volume,
                                             std::string source);

  /// Lowers Eq. (7) point buckets. Zero-weight points are dropped.
  static Result<CompiledPlan> FromPointBuckets(
      const std::vector<Point>& points, const std::vector<double>& weights,
      std::string source);

  /// Mixed-form input for the deserializer: already-flattened box entries
  /// (dim-major lo/hi with their stored inverse volumes, so a loaded plan
  /// reproduces the saved plan's arithmetic exactly) plus point entries
  /// (entry-major coords; converted to coordinate-major internally).
  struct Parts {
    int dim = 0;
    std::string source;
    VolumeOptions volume;
    std::vector<double> box_lo, box_hi, box_weight, box_inv_vol;
    std::vector<Point> points;
    std::vector<double> point_weight;
  };
  static Result<CompiledPlan> FromParts(Parts parts);

  /// Estimate for one query, in [0, 1]. Optionally accumulates pruning
  /// stats into `*stats` (adds, does not reset — callers aggregate).
  double EstimateOne(const Query& query, PlanEvalStats* stats = nullptr) const;

  /// Batch kernel: out[i] = EstimateOne(queries[i]), parallel over the
  /// shared pool, deterministic for any thread count. `stats` (optional)
  /// receives the batch-aggregated pruning accounting.
  void EstimateMany(const Query* queries, size_t count, double* out,
                    PlanEvalStats* stats = nullptr) const;
  std::vector<double> EstimateMany(const std::vector<Query>& queries,
                                   PlanEvalStats* stats = nullptr) const;

  int dim() const { return dim_; }
  size_t num_box_entries() const { return box_weight_.size(); }
  size_t num_point_entries() const { return point_weight_.size(); }
  /// Total entries (the plan's NumBuckets analogue).
  size_t size() const { return num_box_entries() + num_point_entries(); }
  /// Registry name of the model this plan was lowered from ("quadhist",
  /// "isomer", ...; "plan" once round-tripped through a file).
  const std::string& source() const { return source_; }
  const VolumeOptions& volume_options() const { return volume_; }

  // --- Serialization accessors (entries in internal, tree-built order;
  // box arrays are dim-major: entry j, coordinate c at [j*dim + c]). ---
  const std::vector<double>& box_lo() const { return box_lo_; }
  const std::vector<double>& box_hi() const { return box_hi_; }
  const std::vector<double>& box_weight() const { return box_weight_; }
  const std::vector<double>& box_inv_vol() const { return box_inv_vol_; }
  /// Point coordinate c of point entry j (backed by the padded
  /// coordinate-major kernel store: one contiguous run per dimension).
  double point_coord(size_t j, int c) const {
    return point_coords_[static_cast<size_t>(c) * point_stride_ + j];
  }
  const std::vector<double>& point_weight() const { return point_weight_; }

 private:
  /// One pruning-tree node over a contiguous entry range [begin, end).
  struct Node {
    int32_t left = -1;
    int32_t right = -1;
    uint32_t begin = 0;
    uint32_t end = 0;
    double weight_sum = 0.0;  ///< Σ weights of entries below
    Box bbox;                 ///< bounds of the entries' boxes/points
  };

  CompiledPlan() = default;

  void BuildBoxTree();
  void BuildPointTree();

  double EvalBoxNode(int32_t id, const Query& query, const Box* query_box,
                     PlanEvalStats* stats) const;
  double EvalPointNode(int32_t id, const Query& query, const Box* query_box,
                       PlanEvalStats* stats) const;

  int dim_ = 0;
  std::string source_;
  VolumeOptions volume_;

  // Box segment: entry-major SoA (serialization order) plus
  // materialized Box objects (same order) for the non-box query
  // kernels, which evaluate QueryBoxIntersectionVolume per entry.
  std::vector<double> box_lo_;
  std::vector<double> box_hi_;
  std::vector<double> box_weight_;
  std::vector<double> box_inv_vol_;
  std::vector<Box> box_entries_;
  std::vector<Node> box_nodes_;

  // Box kernel store: coordinate-major mirrors (run c of lo/hi starts
  // at c * box_stride_), 64-byte aligned and padded to box_stride_ =
  // SimdPaddedCount(n) with never-intersecting sentinel boxes
  // (lo=+2, hi=-2, weight=0, inv_vol=0), so the SIMD leaf kernels run
  // full-width blocks with no scalar tails (DESIGN.md §12).
  AlignedVector box_lo_cm_;
  AlignedVector box_hi_cm_;
  AlignedVector box_weight_pad_;
  AlignedVector box_inv_vol_pad_;
  size_t box_stride_ = 0;

  // Point segment: padded coordinate-major coords (run c holds
  // coordinate c of every point, stride point_stride_, zero-weight
  // sentinel tail) plus materialized Points for Query::Contains.
  AlignedVector point_coords_;
  AlignedVector point_weight_pad_;
  size_t point_stride_ = 0;
  std::vector<double> point_weight_;
  std::vector<Point> point_entries_;
  std::vector<Node> point_nodes_;
};

}  // namespace sel

#endif  // SEL_SERVE_COMPILED_PLAN_H_
