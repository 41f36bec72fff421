#include "core/shrinking_set.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "obs/trace.h"

namespace autostats {

namespace {

// View exposing exactly `visible` out of the catalog's active statistics.
StatsView RestrictedView(const StatsCatalog& catalog,
                         const std::set<StatKey>& visible) {
  StatsView view(&catalog);
  for (const StatKey& key : catalog.ActiveKeys()) {
    if (visible.count(key) == 0) view.Ignore(key);
  }
  return view;
}

// "Potentially relevant" (Figure 2, step 4): the statistic shares a column
// with the query's relevant columns.
bool PotentiallyRelevant(const Statistic& stat, const Query& query) {
  const std::vector<ColumnRef> relevant = query.RelevantColumns();
  for (const ColumnRef& c : stat.columns()) {
    if (std::find(relevant.begin(), relevant.end(), c) != relevant.end()) {
      return true;
    }
  }
  return false;
}

}  // namespace

ShrinkingSetResult RunShrinkingSet(const Optimizer& optimizer,
                                   StatsCatalog* catalog,
                                   const Workload& workload,
                                   const ShrinkingSetConfig& config,
                                   std::vector<StatKey> initial) {
  AUTOSTATS_CHECK(catalog != nullptr);
  ShrinkingSetResult result;

  std::vector<StatKey> s_keys =
      initial.empty() ? catalog->ActiveKeys() : std::move(initial);
  std::sort(s_keys.begin(), s_keys.end());
  const std::set<StatKey> s_set(s_keys.begin(), s_keys.end());

  const std::vector<const Query*> queries = workload.Queries();

  // Baseline plans: Plan(Q, S) for every query.
  std::vector<OptimizeResult> baselines(queries.size());
  std::vector<char> baseline_ok(queries.size(), 0);
  const StatsView base_view = RestrictedView(*catalog, s_set);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    Result<OptimizeResult> r = optimizer.TryOptimizeWithRetry(
        *queries[qi], base_view, {}, config.probe_retry,
        &result.probes_aborted);
    if (r.ok()) {
      baselines[qi] = std::move(*r);
      baseline_ok[qi] = 1;
      ++result.optimizer_calls;
    } else {
      result.degraded = true;
    }
  }

  // The outer loop is inherently serial: removing s changes the view every
  // later statistic is tested under. Every potentially relevant query is
  // probed (no early exit), so the probe count does not depend on query
  // order.
  std::set<StatKey> r_set = s_set;
  for (const StatKey& s : s_keys) {
    const StatEntry* entry = catalog->FindEntry(s);
    AUTOSTATS_CHECK_MSG(entry != nullptr, s.c_str());

    std::set<StatKey> without = r_set;
    without.erase(s);
    const StatsView view = RestrictedView(*catalog, without);

    // Degradation is conservative: a query whose baseline or alternate
    // probe failed (after retries) counts as "plan differs", so s is kept.
    // Keeping a non-essential statistic costs only maintenance; dropping an
    // essential one would cost plan quality.
    int64_t relevant = 0;
    int64_t differing = 0;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      if (!PotentiallyRelevant(entry->stat, *queries[qi])) continue;
      ++relevant;
      if (!baseline_ok[qi]) {
        ++differing;
        continue;
      }
      Result<OptimizeResult> alt = optimizer.TryOptimizeWithRetry(
          *queries[qi], view, {}, config.probe_retry, &result.probes_aborted);
      if (!alt.ok()) {
        result.degraded = true;  // the alternate probe itself failed
        ++differing;
        continue;
      }
      ++result.optimizer_calls;
      if (!PlansEquivalent(config.equivalence, *alt, baselines[qi])) {
        ++differing;
      }
    }

    const bool needed = differing > 0;
    if (obs::TraceActive()) {
      obs::TraceEvent("shrink.verdict")
          .Str("key", s)
          .Bool("needed", needed)
          .Int("relevant_queries", relevant)
          .Int("differing_plans", differing);
    }
    if (!needed) {
      r_set.erase(s);
      result.removed.push_back(s);
      if (config.apply_to_catalog) catalog->MoveToDropList(s);
    }
  }

  result.essential.assign(r_set.begin(), r_set.end());
  return result;
}

}  // namespace autostats
