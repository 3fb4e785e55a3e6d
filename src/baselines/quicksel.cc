#include "baselines/quicksel.h"

#include "common/check.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/estimator_registry.h"

namespace sel {

QuickSel::QuickSel(int domain_dim, const QuickSelOptions& options)
    : dim_(domain_dim), options_(options) {
  SEL_CHECK(domain_dim >= 1);
}

Status QuickSel::Train(const Workload& workload) {
  if (trained_) {
    return Status::FailedPrecondition("QuickSel::Train called twice");
  }
  if (workload.empty()) {
    return Status::InvalidArgument("QuickSel: empty training workload");
  }
  for (const auto& z : workload) {
    if (z.query.type() != QueryType::kBox) {
      return Status::Unimplemented(
          "QuickSel supports orthogonal range queries only");
    }
    if (z.query.dim() != dim_) {
      return Status::InvalidArgument("QuickSel: query dimension mismatch");
    }
  }
  WallTimer timer;
  const size_t n = workload.size();
  const size_t budget =
      options_.num_kernels > 0 ? options_.num_kernels : 4 * n;
  Rng rng(options_.seed);
  const Box domain = Box::Unit(dim_);

  // ---- Kernel construction. ----
  kernels_.clear();
  kernels_.reserve(budget);
  kernels_.push_back(domain);  // background kernel: mass outside queries
  for (size_t i = 0; i < n && kernels_.size() < budget; ++i) {
    const auto clipped = workload[i].query.box().Intersection(domain);
    if (clipped.has_value() && clipped->Volume() > 0.0) {
      kernels_.push_back(*clipped);
    }
  }
  // Pairwise intersections of random training boxes.
  size_t misses = 0;
  while (kernels_.size() < budget && misses < 8 * budget) {
    const Box& a = workload[rng.UniformInt(n)].query.box();
    const Box& b = workload[rng.UniformInt(n)].query.box();
    const auto inter = a.Intersection(b);
    if (inter.has_value() && inter->Volume() > 0.0) {
      kernels_.push_back(*inter);
    } else {
      ++misses;
    }
  }
  // Pad with random sub-boxes of training queries.
  while (kernels_.size() < budget) {
    const Box& q = workload[rng.UniformInt(n)].query.box();
    Point lo(dim_), hi(dim_);
    for (int j = 0; j < dim_; ++j) {
      const double w = q.width(j) * rng.Uniform(0.3, 1.0);
      const double start = q.lo(j) + rng.NextDouble() * (q.width(j) - w);
      lo[j] = start;
      hi[j] = start + w;
    }
    Box sub(std::move(lo), std::move(hi));
    if (sub.Volume() > 0.0) kernels_.push_back(std::move(sub));
  }

  // ---- Weight estimation (ridge-regularized Eq. 8). ----
  const SparseMatrix a =
      BuildBoxFractionMatrix(workload, kernels_, options_.volume);
  const Vector s = SelectivitiesOf(workload);
  SimplexLsqOptions solver = options_.solver;
  solver.ridge = options_.ridge;
  // Through the shared fallback chain: a bad batch degrades the solve
  // (recorded in train_stats_) instead of failing the train.
  auto weights = SolveBucketWeights(a, s, TrainObjective::kL2, solver,
                                    LpOptions{}, &train_stats_);
  if (!weights.ok()) return weights.status();
  weights_ = std::move(weights.value());

  for (const Box& k : kernels_) {
    SEL_CHECK_MSG(k.Volume() > 0.0,
                  "QuickSel: kernel construction produced a zero-volume box");
  }

  trained_ = true;
  train_stats_.train_seconds = timer.Seconds();
  return LowerToPlan();
}

Result<CompiledPlan> QuickSel::Compile() const {
  if (!trained_) {
    return Status::FailedPrecondition("QuickSel::Compile before Train");
  }
  return CompiledPlan::FromBoxBuckets(kernels_, weights_, options_.volume,
                                      RegistryName());
}

namespace {

Result<std::unique_ptr<SelectivityModel>> BuildQuickSel(
    int dim, size_t train_size, const EstimatorSpec& spec) {
  SpecOptionReader reader(spec);
  QuickSelOptions o;
  o.num_kernels = spec.ResolveBudget(train_size);
  o.ridge = reader.GetDouble("ridge", o.ridge);
  // The harness seeds QuickSel's kernel padding with the shared default
  // (20220612), not the struct default, to match the paper sweeps.
  o.seed = spec.seed;
  const Status st = reader.Finish();
  if (!st.ok()) return st;
  return std::unique_ptr<SelectivityModel>(new QuickSel(dim, o));
}

}  // namespace

SEL_REGISTER_ESTIMATOR(
    "quicksel",
    .display_name = "QuickSel",
    .paper_section = "§4.1 baseline",
    .options_summary = "ridge=<r> (1e-4), budget, objective, seed",
    .build = BuildQuickSel)

}  // namespace sel
