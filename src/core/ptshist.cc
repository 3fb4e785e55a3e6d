#include "core/ptshist.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/estimator_registry.h"
#include "core/model_io.h"
#include "geometry/sampling.h"

namespace sel {

PtsHist::PtsHist(int domain_dim, const PtsHistOptions& options)
    : dim_(domain_dim), options_(options) {
  SEL_CHECK(domain_dim >= 1);
  SEL_CHECK(options_.interior_fraction >= 0.0 &&
            options_.interior_fraction <= 1.0);
}

Status PtsHist::Train(const Workload& workload) {
  if (trained_) {
    return Status::FailedPrecondition("PtsHist::Train called twice");
  }
  if (workload.empty()) {
    return Status::InvalidArgument("PtsHist: empty training workload");
  }
  for (const auto& z : workload) {
    if (z.query.dim() != dim_) {
      return Status::InvalidArgument(
          "PtsHist: query dimension does not match the model domain");
    }
    if (z.selectivity < 0.0 || z.selectivity > 1.0) {
      return Status::InvalidArgument(
          "PtsHist: selectivity labels must lie in [0,1]");
    }
  }
  WallTimer timer;
  const size_t n = workload.size();
  const size_t k =
      options_.model_size > 0 ? options_.model_size : 4 * n;
  const Box domain = Box::Unit(dim_);
  Rng rng(options_.seed);

  // ---- Bucket design (§3.3). ----
  const size_t interior_target = static_cast<size_t>(
      std::llround(options_.interior_fraction * static_cast<double>(k)));
  double total_sel = 0.0;
  for (const auto& z : workload) total_sel += z.selectivity;

  points_.clear();
  points_.reserve(k);
  if (interior_target > 0) {
    if (total_sel > 0.0) {
      // Each range R_i receives floor(s_i / sum_j s_j * 0.9k) points; the
      // rounding shortfall is filled from the highest-selectivity ranges.
      std::vector<size_t> share(n, 0);
      size_t assigned = 0;
      for (size_t i = 0; i < n; ++i) {
        share[i] = static_cast<size_t>(workload[i].selectivity / total_sel *
                                       static_cast<double>(interior_target));
        assigned += share[i];
      }
      std::vector<size_t> order(n);
      for (size_t i = 0; i < n; ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return workload[a].selectivity > workload[b].selectivity;
      });
      size_t oi = 0;
      while (assigned < interior_target && oi < 4 * n) {
        ++share[order[oi % n]];
        ++assigned;
        ++oi;
      }
      for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < share[i]; ++c) {
          points_.push_back(SampleQueryInteriorOrFallback(
              workload[i].query, domain, &rng, options_.rejection_attempts));
        }
      }
    } else {
      // All training selectivities are zero: fall back to uniform points.
      for (size_t c = 0; c < interior_target; ++c) {
        points_.push_back(SampleBox(domain, &rng));
      }
    }
  }
  while (points_.size() < k) {
    points_.push_back(SampleBox(domain, &rng));
  }

  // ---- Weight estimation (Eq. 8 over the Eq. 7 indicator matrix). ----
  const SparseMatrix a = BuildPointIndicatorMatrix(workload, points_);
  const Vector s = SelectivitiesOf(workload);
  auto weights = SolveBucketWeights(a, s, options_.objective,
                                    options_.solver, options_.lp,
                                    &train_stats_);
  if (!weights.ok()) return weights.status();
  weights_ = std::move(weights.value());

  trained_ = true;
  train_stats_.train_seconds = timer.Seconds();
  return LowerToPlan();
}

Result<CompiledPlan> PtsHist::Compile() const {
  if (!trained_) {
    return Status::FailedPrecondition("PtsHist::Compile before Train");
  }
  return CompiledPlan::FromPointBuckets(points_, weights_, RegistryName());
}

namespace {

Result<std::unique_ptr<SelectivityModel>> BuildPtsHist(
    int dim, size_t train_size, const EstimatorSpec& spec) {
  SpecOptionReader reader(spec);
  PtsHistOptions o;
  o.model_size = spec.ResolveBudget(train_size);
  o.interior_fraction = reader.GetDouble("interior", o.interior_fraction);
  o.objective = spec.objective;
  o.seed = spec.seed;
  const std::string solver = reader.GetString("solver", "pg");
  const Status st = reader.Finish();
  if (!st.ok()) return st;
  if (solver == "nnls") {
    o.solver.method = SimplexLsqOptions::Method::kNnls;
  } else if (solver != "pg") {
    return Status::InvalidArgument(
        "estimator spec 'ptshist': option 'solver' has bad value '" +
        solver + "' (expected 'pg' or 'nnls')");
  }
  return std::unique_ptr<SelectivityModel>(new PtsHist(dim, o));
}

Status SavePtsHist(const SelectivityModel& model, std::ostream& out) {
  const auto* ph = dynamic_cast<const PtsHist*>(&model);
  if (ph == nullptr) {
    return Status::InvalidArgument("save hook: model is not a PtsHist");
  }
  return WritePointModel(out, model.RegistryName(), ph->BucketPoints(),
                         ph->BucketWeights());
}

}  // namespace

SEL_REGISTER_ESTIMATOR(
    "ptshist",
    .display_name = "PtsHist",
    .paper_section = "§3.3",
    .options_summary = "interior=<f> (0.9), solver=pg|nnls, budget,"
                       " objective, seed",
    .build = BuildPtsHist,
    .save = SavePtsHist,
    .load = LoadPointModel)

}  // namespace sel
