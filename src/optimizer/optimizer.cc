#include "optimizer/optimizer.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "obs/metrics.h"
#include "optimizer/cardinality.h"

namespace autostats {

namespace {

// Latency of one optimization (selectivity analysis, join enumeration,
// aggregation placement).
obs::Histogram* RealProbeHistogram() {
  thread_local obs::LabeledSlot<obs::Histogram> slot;
  return obs::GetLabeledHistogram(slot, "probe_latency_real_us",
                                  obs::LatencyBoundsUs());
}

int64_t NowNs() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

double ElapsedUs(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1000.0;
}

}  // namespace

Optimizer::Optimizer(const Database* db, OptimizerConfig config)
    : db_(db), config_(config), cost_model_(config.cost) {
  AUTOSTATS_CHECK(db != nullptr);
}

OptimizeResult Optimizer::Optimize(const Query& query, const StatsView& stats,
                                   const SelectivityOverrides& overrides) const {
  num_calls_.fetch_add(1, std::memory_order_relaxed);
  AUTOSTATS_CHECK_MSG(query.num_tables() >= 1, "query has no tables");

  // Captured once: a probe that starts with metrics off stays free.
  const int64_t start_ns = obs::MetricsEnabled() ? NowNs() : 0;

  SelectivityAnalysis sel = AnalyzeSelectivities(
      *db_, query, stats, config_.magic, overrides, config_.epsilon);
  CardinalityModel card(db_, &query, &sel);

  Plan plan =
      EnumerateJoins(*db_, query, card, cost_model_, config_.enumerator);

  if (query.has_grouping()) {
    const double input_rows = plan.root->est_rows;
    const double groups = card.GroupRows(input_rows);
    const double hash_cost = cost_model_.HashAggregateCost(input_rows, groups);
    const double stream_cost =
        cost_model_.StreamAggregateCost(input_rows, groups);
    auto agg = std::make_unique<PlanNode>();
    agg->op = hash_cost <= stream_cost ? PlanOp::kHashAggregate
                                       : PlanOp::kStreamAggregate;
    agg->group_by = query.group_by();
    agg->est_rows = groups;
    agg->cost_local = std::min(hash_cost, stream_cost);
    agg->cost_subtree = agg->cost_local + plan.root->cost_subtree;
    agg->children.push_back(std::move(plan.root));
    plan.root = std::move(agg);
  }

  // Result shipping: returning rows to the client costs per-row work, so
  // the estimate stays sensitive to selectivities even for plans that are
  // a bare scan (monotone in the root cardinality, like every other term).
  plan.root->cost_local +=
      cost_model_.params().result_tuple * plan.root->est_rows;
  plan.root->cost_subtree +=
      cost_model_.params().result_tuple * plan.root->est_rows;

  OptimizeResult result;
  result.cost = plan.cost();
  result.plan = std::move(plan);
  result.bindings = sel.bindings();
  result.uncertain = sel.UncertainBindings();
  if (start_ns != 0) RealProbeHistogram()->Observe(ElapsedUs(start_ns));
  return result;
}

Result<OptimizeResult> Optimizer::TryOptimize(
    const Query& query, const StatsView& stats,
    const SelectivityOverrides& overrides) const {
  // Gate first: an aborted probe must not reach num_calls_, so the
  // 3-calls-per-statistic accounting stays honest.
  const Status gate = PokeFault(faults::kOptimizerProbe, query.name().c_str());
  if (!gate.ok()) {
    num_aborted_probes_.fetch_add(1, std::memory_order_relaxed);
    return gate;
  }
  return Optimize(query, stats, overrides);
}

Result<OptimizeResult> Optimizer::TryOptimizeWithRetry(
    const Query& query, const StatsView& stats,
    const SelectivityOverrides& overrides, const RetryPolicy& retry,
    int64_t* aborted_probes) const {
  const int attempts = std::max(retry.max_attempts, 1);
  Result<OptimizeResult> out = Status::Internal("no probe attempt made");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) BackoffSleep(retry, attempt);
    out = TryOptimize(query, stats, overrides);
    if (out.ok()) return out;
    if (aborted_probes != nullptr) ++*aborted_probes;
  }
  return out;
}

}  // namespace autostats
