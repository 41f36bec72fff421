// Magic Number Sensitivity Analysis (§4, Figure 1). Per query:
//
//   1. P  = Plan(Q) with default magic numbers
//   2. repeat:
//   3.   s1..sk = selectivity variables still carrying residual
//                 uncertainty (magic-bound, or independence-combined)
//   4.   P_low  = Plan(Q) with each si at its low end (epsilon)
//   5.   P_high = Plan(Q) with each si at its high end (1 - epsilon)
//   6.   if (Cost(P_high) - Cost(P_low)) / Cost(P_low) <= t%  -> done:
//        the existing statistics include an essential set (by cost
//        monotonicity)
//   7.   s = FindNextStatToBuild(P); if none -> done
//   8.   build s; recompute P; with drop detection (MNSA/D, §5.1): if the
//        new default plan equals the previous one, s is heuristically
//        non-essential and goes to the drop-list.
//
// Overhead: three optimizer calls per statistic created.
#ifndef AUTOSTATS_CORE_MNSA_H_
#define AUTOSTATS_CORE_MNSA_H_

#include <functional>
#include <vector>

#include "core/candidate.h"
#include "core/equivalence.h"
#include "optimizer/optimizer.h"
#include "stats/stats_catalog.h"

namespace autostats {

struct MnsaConfig {
  // Equivalence notion for the P_low / P_high test. The paper's
  // implementation uses t-Optimizer-Cost (the pragmatic choice, §3.2);
  // Execution-Tree equivalence — the variant deferred to [5] — stops only
  // when both extreme plans are the same tree.
  EquivalenceKind equivalence = EquivalenceKind::kTOptimizerCost;
  // The t of t-Optimizer-Cost equivalence; the paper uses 20%.
  double t_percent = 20.0;
  // Candidates on tables smaller than this are built outright, without
  // sensitivity analysis (the small-table augmentation of §4.3).
  size_t small_table_rows = 0;
  // MNSA/D (§5.1): detect non-essential statistics as they are created and
  // move them to the drop-list.
  bool drop_detection = false;
  // Candidate generator; defaults to the §7.1 algorithm. Tests and the
  // single-column-only experiment of §8.2 replace it.
  std::function<std::vector<CandidateStat>(const Query&)> candidates;
  // Optional veto on creating a statistic (the aging hook of §6): return
  // false to skip creation. Receives the columns of the statistic.
  std::function<bool(const std::vector<ColumnRef>&)> creation_filter;
  // Safety bound on iterations per query.
  int max_iterations = 256;
  // Bounded retry for sensitivity probes aborted by transient faults
  // (fault point `optimizer.probe`). Builds use the catalog's own policy.
  RetryPolicy probe_retry;
};

struct MnsaResult {
  std::vector<StatKey> created;  // statistics built, in creation order
  std::vector<StatKey> dropped;  // MNSA/D: moved to the drop-list
  double creation_cost = 0.0;    // cost units charged for building
  int optimizer_calls = 0;
  int iterations = 0;
  // True when the t-test concluded the statistics suffice; false when the
  // loop ran out of candidates instead.
  bool converged = false;
  // --- Failure accounting (graceful degradation) ---
  int64_t builds_failed = 0;   // creations that exhausted their retries;
                               // the key is vetoed and the analysis moves on
  int64_t build_retries = 0;   // build re-attempts consumed
  int64_t probes_aborted = 0;  // probe attempts killed by injected faults
  // True when any failure degraded this analysis: a vetoed build restricts
  // the reachable configuration, and a persistently failing probe stops the
  // sweep early. Both leave predicates on magic numbers / existing stats —
  // states MNSA is already correct under (§4.1 monotonicity).
  bool degraded = false;

  void Merge(const MnsaResult& other);
};

// Runs MNSA for one query against the live catalog. With `final_plan`,
// also hands back the last plan MNSA made with default magic numbers —
// exactly what Optimize(query, StatsView(catalog)) would return now — but
// only if the catalog's stats_version has not moved since that plan was
// made (an MNSA/D drop or a later build voids it); otherwise, and when no
// such plan was made, *final_plan is left as it was.
MnsaResult RunMnsa(const Optimizer& optimizer, StatsCatalog* catalog,
                   const Query& query, const MnsaConfig& config,
                   OptimizeResult* final_plan = nullptr);

// Runs MNSA for each query of the workload in order (§4.3), sharing the
// catalog; returns merged accounting.
MnsaResult RunMnsaWorkload(const Optimizer& optimizer, StatsCatalog* catalog,
                           const Workload& workload,
                           const MnsaConfig& config);

// Workload-cost-weighted variant (§6: "we may only consider building
// statistics that would potentially serve a significant fraction of the
// workload cost"). Queries are processed in descending estimated-cost
// order; MNSA stops once the processed queries cover `cost_fraction` of
// the workload's total estimated cost — the cheap tail keeps its magic
// numbers. The ranking pass costs one optimizer call per query.
MnsaResult RunMnsaWorkloadWeighted(const Optimizer& optimizer,
                                   StatsCatalog* catalog,
                                   const Workload& workload,
                                   const MnsaConfig& config,
                                   double cost_fraction);

}  // namespace autostats

#endif  // AUTOSTATS_CORE_MNSA_H_
