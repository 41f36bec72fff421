// MNSA/D vs (MNSA + Shrinking Set): the comparison the paper defers to its
// journal version [5]. MNSA/D detects non-essential statistics greedily at
// creation time (no extra optimizer calls, no guarantee); Shrinking Set
// post-processes with up to |S| x |W| optimizer calls and guarantees an
// essential set. Reports statistics retained, optimizer calls, pending
// update cost, and workload execution cost for both pipelines.
//
// Also the perf exhibit for the plan-cost cache: the MNSA analysis sweep
// is re-run against the settled catalog (the policy loop's steady state),
// where the cache answers the probes without real optimizations. Wall
// times, optimizer-call counts, and hit ratios go to
// BENCH_shrinking_vs_mnsad.json.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/mnsa_d.h"
#include "core/shrinking_set.h"

using namespace autostats;

namespace {

struct SweepOutcome {
  double wall_ms = 0.0;
  int64_t cache_hits = 0;  // delta across this sweep
  int64_t real_calls = 0;  // delta across this sweep
};

}  // namespace

int main() {
  bench::PrintHeader(
      "MNSA/D vs MNSA + Shrinking Set (experiment deferred to [5])",
      "MNSA/D removes most non-essential statistics at a fraction of "
      "Shrinking Set's optimizer calls");

  std::printf("%-10s %-22s %8s %10s %14s %12s\n", "database", "pipeline",
              "#stats", "opt_calls", "update_cost", "exec_cost");
  for (const std::string& variant : tpcd::TpcdVariantNames()) {
    const Database db = bench::MakeDb(variant);
    const Workload w = bench::MakeWorkload(
        db, bench::RagsSpec(0.0, rags::Complexity::kComplex, 100));
    Optimizer optimizer(&db);

    {  // MNSA/D
      StatsCatalog catalog(&db);
      MnsaConfig config;
      const MnsaResult r = RunMnsaDWorkload(optimizer, &catalog, w, config);
      std::printf("%-10s %-22s %8zu %10d %14.0f %12.0f\n", variant.c_str(),
                  "mnsa-d", catalog.num_active(), r.optimizer_calls,
                  catalog.PendingUpdateCost(),
                  bench::WorkloadExecCost(db, catalog, optimizer, w));
    }
    {  // MNSA + Shrinking Set
      StatsCatalog catalog(&db);
      MnsaConfig config;
      const MnsaResult r = RunMnsaWorkload(optimizer, &catalog, w, config);
      const ShrinkingSetResult s =
          RunShrinkingSet(optimizer, &catalog, w, {});
      std::printf("%-10s %-22s %8zu %10d %14.0f %12.0f\n", variant.c_str(),
                  "mnsa+shrinking-set", catalog.num_active(),
                  r.optimizer_calls + s.optimizer_calls,
                  catalog.PendingUpdateCost(),
                  bench::WorkloadExecCost(db, catalog, optimizer, w));
    }
  }
  std::printf("\n(Shrinking Set guarantees an essential set; MNSA/D is the "
              "cheap greedy approximation.)\n");

  // --- Plan-cost cache exhibit ------------------------------------------
  const std::string variant = tpcd::TpcdVariantNames().front();
  const Database db = bench::MakeDb(variant);
  const Workload w = bench::MakeWorkload(
      db, bench::RagsSpec(0.0, rags::Complexity::kComplex, 100));

  // Steady state: the §6 policy loop re-runs MNSA every window; when the
  // workload and catalog are unchanged, the sweep issues the exact probe
  // configurations of the previous window and the plan-cost cache answers
  // them without real optimizations. (MNSA alone — the full pipeline is
  // not idempotent: Shrinking Set's execution-tree criterion drops
  // statistics MNSA's t-cost criterion then resurrects, and every such
  // catalog mutation rightly invalidates the cache.)
  auto mnsa_sweep = [&](const Optimizer& opt, StatsCatalog* cat) {
    const int64_t hits_before = opt.num_cache_hits();
    const int64_t real_before = opt.num_real_calls();
    bench::WallTimer timer;
    RunMnsaWorkload(opt, cat, w, MnsaConfig{});
    SweepOutcome out;
    out.wall_ms = timer.ElapsedMs();
    out.cache_hits = opt.num_cache_hits() - hits_before;
    out.real_calls = opt.num_real_calls() - real_before;
    return out;
  };
  Optimizer steady_opt(&db);
  StatsCatalog steady_cat(&db);
  mnsa_sweep(steady_opt, &steady_cat);  // cold: creates the statistics
  // First re-sweep: converged, but its probes ran under versions that
  // advanced mid-cold-sweep, so it fills the cache at the final version.
  const SweepOutcome resweep_uncached = mnsa_sweep(steady_opt, &steady_cat);
  // Second re-sweep: the recurring per-window cost.
  const SweepOutcome steady = mnsa_sweep(steady_opt, &steady_cat);
  const double steady_total =
      static_cast<double>(steady.cache_hits + steady.real_calls);
  const double steady_hit_ratio =
      steady_total > 0 ? static_cast<double>(steady.cache_hits) / steady_total
                       : 0.0;
  const double call_reduction =
      resweep_uncached.real_calls > 0
          ? 1.0 - static_cast<double>(steady.real_calls) /
                      static_cast<double>(resweep_uncached.real_calls)
          : 0.0;
  const double cache_speedup =
      steady.wall_ms > 0.0 ? resweep_uncached.wall_ms / steady.wall_ms : 0.0;

  std::printf("\nSteady-state MNSA window (unchanged catalog, %s):\n",
              variant.c_str());
  std::printf("  uncached sweep : %8.1f ms  (%lld real / %lld cached)\n",
              resweep_uncached.wall_ms,
              static_cast<long long>(resweep_uncached.real_calls),
              static_cast<long long>(resweep_uncached.cache_hits));
  std::printf("  cached sweep   : %8.1f ms  (%lld real / %lld cached)  "
              "%.0f%% hits, %.2fx, %.0f%% fewer real calls\n",
              steady.wall_ms, static_cast<long long>(steady.real_calls),
              static_cast<long long>(steady.cache_hits),
              100.0 * steady_hit_ratio, cache_speedup,
              100.0 * call_reduction);

  bench::BenchJson json("shrinking_vs_mnsad");
  json.Add("database", variant);
  json.Add("uncached_sweep_wall_ms", resweep_uncached.wall_ms);
  json.Add("uncached_sweep_real_calls",
           static_cast<double>(resweep_uncached.real_calls));
  json.Add("steady_wall_ms", steady.wall_ms);
  json.Add("steady_real_calls", static_cast<double>(steady.real_calls));
  json.Add("steady_cache_hits", static_cast<double>(steady.cache_hits));
  json.Add("cache_hit_ratio", steady_hit_ratio);
  json.Add("cache_call_reduction", call_reduction);
  json.Add("cache_speedup", cache_speedup);
  return json.Write() ? 0 : 1;
}
