// Optimizer facade: selectivity analysis -> cardinality model -> join
// enumeration -> aggregation placement. Accepts a StatsView (the
// Ignore_Statistics_Subset server extension) and SelectivityOverrides (the
// selectivity-injection extension), the two hooks the paper adds to the
// server (§7.2).
#ifndef AUTOSTATS_OPTIMIZER_OPTIMIZER_H_
#define AUTOSTATS_OPTIMIZER_OPTIMIZER_H_

#include <atomic>
#include <vector>

#include "catalog/database.h"
#include "common/fault.h"
#include "common/status.h"
#include "optimizer/cost_model.h"
#include "optimizer/enumerator.h"
#include "optimizer/plan.h"
#include "optimizer/selectivity.h"
#include "query/query.h"
#include "stats/stats_catalog.h"

namespace autostats {

struct OptimizerConfig {
  MagicNumbers magic;
  CostParams cost;
  EnumeratorConfig enumerator;
  double epsilon = kDefaultEpsilon;  // the epsilon of §4.1
  // Inert: nothing reads it. Kept only so that code outside the library
  // that still sets it (the end-to-end benchmark's engine, perfbench/)
  // keeps compiling; the optimizer has no plan cache. Nothing in src/,
  // tests/, bench/ or examples/ uses it.
  bool enable_plan_cache = true;
};

struct OptimizeResult {
  Plan plan;
  double cost = 0.0;
  // Every selectivity variable of the query with its binding.
  std::vector<SelVarBinding> bindings;
  // The subset with residual uncertainty (MNSA's sweep targets).
  std::vector<SelVarBinding> uncertain;
};

// Thread-safety: Optimize() is safe to call concurrently from many threads
// against the same Optimizer as long as nothing mutates the Database, the
// StatsCatalog behind the view, or the overrides during the calls. The
// call counters are atomic, so concurrent callers see exact counts.
class Optimizer {
 public:
  explicit Optimizer(const Database* db, OptimizerConfig config = {});

  const Database& db() const { return *db_; }
  const OptimizerConfig& config() const { return config_; }
  const CostModel& cost_model() const { return cost_model_; }

  OptimizeResult Optimize(const Query& query, const StatsView& stats,
                          const SelectivityOverrides& overrides = {}) const;

  // Fallible probe entry used by the statistics-management algorithms
  // (MNSA's sensitivity probes, Shrinking Set's per-statistic tests). The
  // `optimizer.probe` fault gate runs BEFORE the call counter: a probe
  // aborted by an injected fault never ran the pipeline and must not count
  // as an optimizer call, keeping the paper's 3-calls-per-statistic
  // accounting honest. The serving path (`Optimize`) is not a fault point —
  // a query is never aborted.
  Result<OptimizeResult> TryOptimize(
      const Query& query, const StatsView& stats,
      const SelectivityOverrides& overrides = {}) const;

  // TryOptimize with bounded retry + backoff for transient probe faults.
  // Adds the number of aborted attempts to *aborted_probes (may be null);
  // returns the last abort status once the budget is exhausted.
  Result<OptimizeResult> TryOptimizeWithRetry(
      const Query& query, const StatsView& stats,
      const SelectivityOverrides& overrides, const RetryPolicy& retry,
      int64_t* aborted_probes = nullptr) const;

  // Number of Optimize() calls since construction (the bookkeeping the
  // paper uses to report MNSA's overhead of 3 calls per statistic), exact
  // under concurrency.
  int64_t num_calls() const {
    return num_calls_.load(std::memory_order_relaxed);
  }
  // num_calls() again, kept only so that code outside the library that
  // still reads it (the end-to-end benchmark's engine, perfbench/) keeps
  // compiling: every call runs the full pipeline. Nothing in src/, tests/,
  // bench/ or examples/ uses it.
  int64_t num_real_calls() const { return num_calls(); }

  // Probes killed by an injected fault before reaching the pipeline; these
  // are NOT included in num_calls().
  int64_t num_aborted_probes() const {
    return num_aborted_probes_.load(std::memory_order_relaxed);
  }

 private:
  const Database* db_;
  OptimizerConfig config_;
  CostModel cost_model_;
  mutable std::atomic<int64_t> num_calls_{0};
  mutable std::atomic<int64_t> num_aborted_probes_{0};
};

}  // namespace autostats

#endif  // AUTOSTATS_OPTIMIZER_OPTIMIZER_H_
