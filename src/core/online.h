// Online selectivity estimation from execution feedback.
//
// In a DBMS, every executed query yields its true cardinality for free;
// query-driven methods (STHoles, ISOMER, QuickSel — and this paper's
// learners) consume exactly that feedback. OnlineEstimator wraps the
// batch learners in the standard loop: answer estimates from the current
// model, absorb (query, true selectivity) feedback into a sliding
// window, and retrain on a schedule. Retraining from the window is how
// the theory's "training sample from distribution Q" meets a live,
// possibly drifting workload (§4.3).
//
// Serving-path degradation: a failed retrain never takes estimation
// down. The previous model keeps answering, the failure is exposed via
// last_error(), and the retrain interval backs off exponentially
// (capped, reset on the next success) so a persistently bad window does
// not burn a full retrain every `retrain_interval` queries.
//
// Serving never waits on retraining: the trained model and its
// CompiledPlan travel together in an immutable ServingState snapshot.
// RetrainNow() builds and compiles the fresh state entirely off to the
// side and publishes it with a constant-time shared_ptr swap under a
// narrow mutex — the same pointer-exchange std::atomic<shared_ptr>
// performs behind its hidden spinlock (libstdc++'s is not lock-free,
// and its relaxed reader unlock is formally racy under TSan), but
// visible to the race detectors. Readers always see either the complete
// old snapshot or the complete new one, and never block on the retrain
// itself.
#ifndef SEL_CORE_ONLINE_H_
#define SEL_CORE_ONLINE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "core/model.h"
#include "workload/workload.h"

namespace sel {

/// One immutable serving snapshot: the trained model, whose Estimate
/// answers through its CompiledPlan (shared_plan(); nullptr only for the
/// non-lowerable estimators, whose Estimate override serves).
struct ServingState {
  std::unique_ptr<SelectivityModel> model;
};

/// Tunables for the online loop.
struct OnlineOptions {
  /// Retrain after this many new feedback records (0 disables automatic
  /// retraining; call Retrain() manually).
  size_t retrain_interval = 64;
  /// Sliding-window capacity: only the most recent feedback is kept, so
  /// the model tracks workload drift.
  size_t window_capacity = 1024;
  /// Registry spec for the learner to retrain each time (see
  /// EstimatorSpec::Parse); options such as budget/seed ride along, e.g.
  /// "quadhist:tau=0.002" or "ptshist:budget=2x".
  std::string estimator = "quadhist";
  /// Estimate returned before the first training round (a blind prior).
  double prior_estimate = 0.5;
  /// Ceiling of the failed-retrain backoff, as a multiple of
  /// retrain_interval: the effective interval doubles per consecutive
  /// failure up to `retrain_interval * max_backoff_multiplier`.
  size_t max_backoff_multiplier = 16;
  /// Publication quality gate: a candidate is rejected when its median
  /// Q-error on the held-out slice exceeds gate_factor × the incumbent's
  /// (floored at 1, the perfect score, so a sharp incumbent does not
  /// make the gate impossibly tight). 0 disables the gate.
  double gate_factor = 4.0;
  /// Fraction of the window (its most recent records) reserved as the
  /// held-out slice the gate scores on; the candidate trains on the
  /// rest. Must lie in (0, 0.5].
  double gate_holdout_fraction = 0.25;
  /// Windows smaller than this train on everything and publish ungated
  /// (a 4-record holdout gates on noise).
  size_t gate_min_window = 16;
  /// Capacity of the last-good snapshot ring behind RollbackLastGood().
  size_t rollback_ring = 4;
  /// Per-retrain wall-clock budget in milliseconds; a retrain that blows
  /// it keeps the incumbent (the degraded candidate is rejected). 0
  /// defers to SEL_TRAIN_DEADLINE_MS.
  long train_deadline_ms = 0;

  /// Checks the options a construction time instead of at the first
  /// retrain: prior_estimate in [0,1], positive capacities, and an
  /// estimator spec that parses against a registered estimator.
  Status Validate() const;
};

/// A self-retraining selectivity estimator fed by query execution.
class OnlineEstimator {
 public:
  /// Validates `options` up front (InvalidArgument on a bad spec or
  /// prior) — the checked construction path.
  static Result<std::unique_ptr<OnlineEstimator>> Create(
      int domain_dim, const OnlineOptions& options);

  /// Direct construction: a validation failure is deferred into
  /// `last_error()` and every Feedback/Retrain call, never an abort.
  OnlineEstimator(int domain_dim, const OnlineOptions& options);

  /// Current estimate for `query` (the prior before any training; the
  /// previous model while retrains are failing). Concurrent retrains
  /// never tear a read or stall it: the reader snapshots the published
  /// state in constant time and serves entirely outside the lock.
  double Estimate(const Query& query) const;

  /// Absorbs one executed query's true selectivity; may trigger a
  /// retrain per the (backed-off) retrain interval. A failed automatic
  /// retrain degrades gracefully: the error lands in last_error(), the
  /// interval backs off, and OK is returned — the feedback itself was
  /// absorbed and serving continues on the previous model.
  Status Feedback(const Query& query, double true_selectivity);

  /// Forces a retrain on the current window (no-op while the window is
  /// empty). Returns — and records in last_error() — the actual outcome.
  Status Retrain();

  /// Republishes the previous last-good snapshot (the operator escape
  /// hatch for a bad model that slipped past the gate). The abandoned
  /// snapshot is dropped from the ring, so repeated calls walk further
  /// back. FailedPrecondition when no earlier snapshot exists.
  Status RollbackLastGood();

  /// Domain dimensionality every query and feedback record must match
  /// (request edges reject mismatches before Estimate's hard check).
  int dim() const { return dim_; }

  /// Number of feedback records currently in the window.
  size_t window_size() const { return window_.size(); }

  /// Number of completed retrains. Atomic: observable from threads
  /// other than the one feeding (e.g. a test watching a server whose
  /// connection threads drive Feedback).
  size_t retrain_count() const {
    return retrain_count_.load(std::memory_order_relaxed);
  }

  /// Number of failed retrain attempts since construction (training
  /// errors and gate rejections both count). Atomic, as above.
  size_t failed_retrain_count() const {
    return failed_retrain_count_.load(std::memory_order_relaxed);
  }

  /// Publication outcomes: candidates the gate accepted / rejected on
  /// held-out quality / rejected because the train deadline expired.
  size_t publish_accepted_count() const { return publish_accepted_; }
  size_t publish_rejected_quality_count() const {
    return publish_rejected_quality_;
  }
  size_t publish_rejected_deadline_count() const {
    return publish_rejected_deadline_;
  }

  /// Consecutive rejections/failures since the last accepted publish.
  size_t rejection_streak() const { return consecutive_failures_; }

  /// Snapshots currently in the last-good ring (rollback depth + 1).
  size_t rollback_ring_size() const { return last_good_.size(); }

  /// OK, or the error of the most recent failed retrain (cleared by the
  /// next successful one). Construction-time validation errors also
  /// surface here.
  const Status& last_error() const { return last_error_; }

  /// The effective retrain interval right now: `retrain_interval`, or
  /// its backed-off multiple while retrains are failing.
  size_t current_retrain_interval() const { return current_interval_; }

  /// True once a model has been trained.
  bool trained() const { return LoadState() != nullptr; }

  /// The plan currently serving, or nullptr before the first training
  /// round / when the estimator is non-lowerable. The server's batch
  /// path and tests read it.
  std::shared_ptr<const CompiledPlan> serving_plan() const {
    const auto state = LoadState();
    return state == nullptr ? nullptr : state->model->shared_plan();
  }

 private:
  /// Why a finished retrain attempt did not publish.
  enum class RejectReason { kNone, kError, kDeadline, kQuality };

  Status RetrainNow();

  /// Validates a compiled candidate against the incumbent on the
  /// held-out slice; OK means "publish it".
  Status GateCandidate(const ServingState& candidate,
                       const Workload& holdout) const;

  /// Publishes `next` and pushes it onto the last-good ring.
  void Publish(std::shared_ptr<const ServingState> next);

  /// Snapshots the published state under the narrow lock (one refcount
  /// bump — constant time, never held across training or estimation).
  std::shared_ptr<const ServingState> LoadState() const {
    std::lock_guard<std::mutex> lock(state_mu_);
    return state_;
  }

  int dim_;
  OnlineOptions options_;
  std::deque<LabeledQuery> window_;
  /// The published snapshot; replaced wholesale by RetrainNow, copied by
  /// readers. state_mu_ guards only the pointer copy/swap; shared_ptr
  /// keeps a superseded snapshot alive until its last in-flight reader
  /// drops it.
  mutable std::mutex state_mu_;
  std::shared_ptr<const ServingState> state_;
  /// Most recent accepted snapshots, oldest first; back() is the one
  /// currently published. Shares ownership with state_ — entries are
  /// cheap pointer copies. Guarded by state_mu_ alongside the swap.
  std::deque<std::shared_ptr<const ServingState>> last_good_;
  size_t since_retrain_ = 0;
  std::atomic<size_t> retrain_count_{0};
  std::atomic<size_t> failed_retrain_count_{0};
  size_t consecutive_failures_ = 0;
  size_t current_interval_ = 0;
  size_t publish_accepted_ = 0;
  size_t publish_rejected_quality_ = 0;
  size_t publish_rejected_deadline_ = 0;
  Status last_error_;
};

}  // namespace sel

#endif  // SEL_CORE_ONLINE_H_
