#include "core/mnsa.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "core/find_next_stat.h"
#include "obs/trace.h"

namespace autostats {

namespace {

SelectivityOverrides AtBound(const std::vector<SelVarBinding>& uncertain,
                             bool high) {
  SelectivityOverrides overrides;
  for (const SelVarBinding& b : uncertain) {
    overrides[b.var] = high ? b.high : b.low;
  }
  return overrides;
}

}  // namespace

void MnsaResult::Merge(const MnsaResult& other) {
  created.insert(created.end(), other.created.begin(), other.created.end());
  dropped.insert(dropped.end(), other.dropped.begin(), other.dropped.end());
  creation_cost += other.creation_cost;
  optimizer_calls += other.optimizer_calls;
  iterations += other.iterations;
  converged = converged && other.converged;
  builds_failed += other.builds_failed;
  build_retries += other.build_retries;
  probes_aborted += other.probes_aborted;
  degraded = degraded || other.degraded;
}

MnsaResult RunMnsa(const Optimizer& optimizer, StatsCatalog* catalog,
                   const Query& query, const MnsaConfig& config,
                   OptimizeResult* final_plan) {
  AUTOSTATS_CHECK(catalog != nullptr);
  MnsaResult result;
  result.converged = true;

  std::vector<CandidateStat> candidates =
      config.candidates ? config.candidates(query)
                        : CandidateStatistics(query);

  // Statistics this run already judged non-essential (MNSA/D) must not be
  // re-proposed within the same query analysis.
  std::set<StatKey> vetoed;
  auto may_create = [&](const std::vector<ColumnRef>& columns) {
    if (vetoed.count(MakeStatKey(columns)) > 0) return false;
    return !config.creation_filter || config.creation_filter(columns);
  };
  auto create = [&](const std::vector<ColumnRef>& columns) {
    const StatKey key = MakeStatKey(columns);
    if (catalog->HasActive(key)) return false;
    if (!may_create(columns)) return false;
    const int64_t retries_before = catalog->failure_counters().build_retries;
    const Result<double> cost = catalog->TryCreateStatistic(columns);
    result.build_retries +=
        catalog->failure_counters().build_retries - retries_before;
    if (!cost.ok()) {
      // Persistent build failure: veto the key so FindNextStatToBuild
      // moves on (guaranteeing termination) and degrade — the dependent
      // predicates stay on magic numbers, which §4.1 covers.
      vetoed.insert(key);
      ++result.builds_failed;
      result.degraded = true;
      return false;
    }
    result.creation_cost += *cost;
    result.created.push_back(key);
    return true;
  };

  // Small-table augmentation (§4.3): candidates on small tables are cheap;
  // build them without analysis.
  if (config.small_table_rows > 0) {
    for (const CandidateStat& c : candidates) {
      const TableId t = c.columns.front().table;
      if (optimizer.db().table(t).num_rows() < config.small_table_rows) {
        if (create(c.columns) && obs::TraceActive()) {
          obs::TraceEvent("mnsa.small_table")
              .Str("query", query.name())
              .Str("key", c.key())
              .Int("table_rows",
                   static_cast<int64_t>(optimizer.db().table(t).num_rows()));
        }
      }
    }
  }

  StatsView view(catalog);

  // Fallible probe: retries transient faults, then degrades by stopping
  // the analysis (remaining predicates keep their magic numbers —
  // a state the §4.1 monotonicity argument already covers).
  auto probe = [&](const SelectivityOverrides& overrides,
                   OptimizeResult* out) {
    Result<OptimizeResult> r = optimizer.TryOptimizeWithRetry(
        query, view, overrides, config.probe_retry, &result.probes_aborted);
    if (!r.ok()) {
      result.converged = false;
      result.degraded = true;
      return false;
    }
    ++result.optimizer_calls;
    *out = std::move(*r);
    return true;
  };

  // The current default-magic plan and the stats_version it was made at.
  OptimizeResult current;
  uint64_t current_version = 0;
  auto probe_default = [&](OptimizeResult* out) {
    if (!probe({}, out)) return false;
    current_version = catalog->stats_version();
    return true;
  };
  // Every exit after the first plan: hand `current` back while no
  // statistic has changed since it was made.
  auto finish = [&]() {
    if (final_plan != nullptr &&
        catalog->stats_version() == current_version) {
      *final_plan = std::move(current);
    }
    return result;
  };

  if (!probe_default(&current)) return result;

  for (int iter = 0; iter < config.max_iterations; ++iter) {
    ++result.iterations;

    // Steps 4-7: sensitivity test over the uncertain selectivity variables.
    if (current.uncertain.empty()) return finish();  // nothing left to sweep
    // Both twins are probed before the failure check: a failed P_low still
    // lets P_high run, which fault schedules' hit counts rely on. A twin
    // that failed even after retries stops the sweep rather than decide
    // equivalence from half a comparison.
    OptimizeResult p_low, p_high;
    const bool low_ok = probe(AtBound(current.uncertain, false), &p_low);
    const bool high_ok = probe(AtBound(current.uncertain, true), &p_high);
    if (!low_ok || !high_ok) return finish();
    AUTOSTATS_DCHECK(p_high.cost >= p_low.cost - 1e-6);
    const EquivalenceSpec spec{config.equivalence, config.t_percent};
    const bool equivalent = PlansEquivalent(spec, p_low, p_high);
    // One combined event per pair: the twin probes themselves emit
    // nothing.
    if (obs::TraceActive()) {
      obs::TraceEvent("mnsa.probe_pair")
          .Str("query", query.name())
          .Int("iteration", iter)
          .Num("cost_low", p_low.cost)
          .Num("cost_high", p_high.cost)
          .Num("t_percent", config.t_percent)
          .Bool("equivalent", equivalent)
          .Int("uncertain_vars", static_cast<int64_t>(current.uncertain.size()));
    }
    if (equivalent) {
      return finish();  // existing statistics include an essential set
    }

    // Steps 8-10: build the next statistic (or join dependency pair).
    std::vector<CandidateStat> remaining;
    for (const CandidateStat& c : candidates) {
      if (vetoed.count(c.key()) == 0) remaining.push_back(c);
    }
    const std::vector<std::vector<ColumnRef>> next =
        FindNextStatToBuild(query, current.plan, remaining, *catalog);
    if (next.empty()) {
      result.converged = false;  // exhausted candidates, test still failing
      return finish();
    }
    bool created_any = false;
    std::vector<StatKey> created_now;
    for (const std::vector<ColumnRef>& columns : next) {
      if (create(columns)) {
        created_any = true;
        created_now.push_back(MakeStatKey(columns));
      }
    }
    if (!created_any) {
      // Creation vetoed (aging): stop rather than loop on the same pick.
      result.converged = false;
      return finish();
    }

    // Steps 11-12: re-optimize with default magic numbers.
    OptimizeResult next_plan;
    if (!probe_default(&next_plan)) return finish();

    // MNSA/D (§5.1): if the plan did not change, the statistics created
    // this iteration are heuristically non-essential.
    if (config.drop_detection &&
        next_plan.plan.Signature() == current.plan.Signature()) {
      for (const StatKey& key : created_now) {
        if (obs::TraceActive()) {
          obs::TraceEvent("mnsa.drop_detect")
              .Str("query", query.name())
              .Str("key", key)
              .Str("reason", "plan_unchanged");
        }
        catalog->MoveToDropList(key);
        result.dropped.push_back(key);
        vetoed.insert(key);
      }
    }
    current = std::move(next_plan);
  }
  result.converged = false;
  return finish();
}

MnsaResult RunMnsaWorkload(const Optimizer& optimizer, StatsCatalog* catalog,
                           const Workload& workload,
                           const MnsaConfig& config) {
  MnsaResult merged;
  merged.converged = true;
  // The per-query loop is inherently serial: each run may create
  // statistics the next run must see. No speculative pre-warm: any probe
  // issued before the loop would be invalidated by the first statistic
  // created.
  for (const Query* q : workload.Queries()) {
    merged.Merge(RunMnsa(optimizer, catalog, *q, config));
  }
  return merged;
}

MnsaResult RunMnsaWorkloadWeighted(const Optimizer& optimizer,
                                   StatsCatalog* catalog,
                                   const Workload& workload,
                                   const MnsaConfig& config,
                                   double cost_fraction) {
  AUTOSTATS_CHECK(cost_fraction > 0.0 && cost_fraction <= 1.0);
  MnsaResult merged;
  merged.converged = true;

  // Rank queries by estimated cost under the current statistics. It uses
  // the infallible Optimize on purpose: ranking is serving-path work (a
  // per-query cost estimate), and only sensitivity probes and statistic
  // builds are injectable fault points.
  struct Ranked {
    const Query* query;
    double cost;
  };
  const StatsView view(catalog);
  std::vector<Ranked> ranked;
  double total_cost = 0.0;
  for (const Query* q : workload.Queries()) {
    const double cost = optimizer.Optimize(*q, view).cost;
    ranked.push_back({q, cost});
    total_cost += cost;
    ++merged.optimizer_calls;
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Ranked& a, const Ranked& b) {
                     return a.cost > b.cost;
                   });

  double covered = 0.0;
  for (const Ranked& r : ranked) {
    if (covered >= cost_fraction * total_cost) break;
    covered += r.cost;
    merged.Merge(RunMnsa(optimizer, catalog, *r.query, config));
  }
  return merged;
}

}  // namespace autostats
