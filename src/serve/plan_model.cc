#include "serve/plan_model.h"

#include <utility>

#include "core/estimator_registry.h"
#include "core/model_io.h"

namespace sel {

PlanModel::PlanModel(CompiledPlan plan) {
  plan_ = std::make_shared<const CompiledPlan>(std::move(plan));
}

Status PlanModel::Train(const Workload&) {
  return Status::FailedPrecondition(
      "CompiledPlan is immutable; recompile from a trained estimator");
}

namespace {

// The registry builds the blind-prior plan (uniform mass on [0,1]^d);
// real plans arrive by loading a compiled model (selcli compile) or by
// wrapping an estimator's Compile() result.
Result<std::unique_ptr<SelectivityModel>> BuildPlanModel(
    int dim, size_t train_size, const EstimatorSpec& spec) {
  (void)train_size;
  SpecOptionReader reader(spec);
  const Status st = reader.Finish();
  if (!st.ok()) return st;
  auto plan = CompiledPlan::FromBoxBuckets({Box::Unit(dim)}, {1.0},
                                           VolumeOptions{}, "plan");
  if (!plan.ok()) return plan.status();
  return std::unique_ptr<SelectivityModel>(
      new PlanModel(std::move(plan).value()));
}

Status SavePlanModel(const SelectivityModel& model, std::ostream& out) {
  const auto* pm = dynamic_cast<const PlanModel*>(&model);
  if (pm == nullptr) {
    return Status::InvalidArgument("save hook: model is not a PlanModel");
  }
  return WritePlanModel(out, *pm->shared_plan());
}

}  // namespace

SEL_REGISTER_ESTIMATOR(
    "plan",
    .display_name = "CompiledPlan",
    .paper_section = "§3.1 (Eqs. 6-7, serving form)",
    .options_summary = "(no options; uniform prior until loaded)",
    .build = BuildPlanModel,
    .save = SavePlanModel,
    .load = LoadPlanModel)

}  // namespace sel
