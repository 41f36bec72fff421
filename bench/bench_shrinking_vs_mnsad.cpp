// MNSA/D vs (MNSA + Shrinking Set): the comparison the paper defers to its
// journal version [5]. MNSA/D detects non-essential statistics greedily at
// creation time (no extra optimizer calls, no guarantee); Shrinking Set
// post-processes with up to |S| x |W| optimizer calls and guarantees an
// essential set. Reports statistics retained, optimizer calls, pending
// update cost, and workload execution cost for both pipelines, printed
// and in BENCH_shrinking_vs_mnsad.json.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "core/mnsa_d.h"
#include "core/shrinking_set.h"

using namespace autostats;

int main() {
  bench::PrintHeader(
      "MNSA/D vs MNSA + Shrinking Set (experiment deferred to [5])",
      "MNSA/D removes most non-essential statistics at a fraction of "
      "Shrinking Set's optimizer calls");

  bench::BenchJson json("shrinking_vs_mnsad");
  bench::WallTimer timer;
  std::printf("%-10s %-22s %8s %10s %14s %12s\n", "database", "pipeline",
              "#stats", "opt_calls", "update_cost", "exec_cost");
  for (const std::string& variant : tpcd::TpcdVariantNames()) {
    const Database db = bench::MakeDb(variant);
    const Workload w = bench::MakeWorkload(
        db, bench::RagsSpec(0.0, rags::Complexity::kComplex, 100));
    const Optimizer optimizer(&db);

    // One table row, printed and recorded as <variant>_<pipeline>_*.
    auto report = [&](const char* pipeline, const char* key,
                      const StatsCatalog& catalog, int optimizer_calls) {
      const double update_cost = catalog.PendingUpdateCost();
      const double exec_cost =
          bench::WorkloadExecCost(db, catalog, optimizer, w);
      std::printf("%-10s %-22s %8zu %10d %14.0f %12.0f\n", variant.c_str(),
                  pipeline, catalog.num_active(), optimizer_calls,
                  update_cost, exec_cost);
      const std::string prefix = variant + "_" + key + "_";
      json.Add(prefix + "stats", static_cast<double>(catalog.num_active()));
      json.Add(prefix + "optimizer_calls",
               static_cast<double>(optimizer_calls));
      json.Add(prefix + "update_cost", update_cost);
      json.Add(prefix + "exec_cost", exec_cost);
    };

    {  // MNSA/D
      StatsCatalog catalog(&db);
      MnsaConfig config;
      const MnsaResult r = RunMnsaDWorkload(optimizer, &catalog, w, config);
      report("mnsa-d", "mnsa_d", catalog, r.optimizer_calls);
    }
    {  // MNSA + Shrinking Set
      StatsCatalog catalog(&db);
      MnsaConfig config;
      const MnsaResult r = RunMnsaWorkload(optimizer, &catalog, w, config);
      const ShrinkingSetResult s =
          RunShrinkingSet(optimizer, &catalog, w, {});
      report("mnsa+shrinking-set", "mnsa_shrinking_set", catalog,
             r.optimizer_calls + s.optimizer_calls);
    }
  }
  std::printf("\n(Shrinking Set guarantees an essential set; MNSA/D is the "
              "cheap greedy approximation.)\n");
  json.Add("wall_ms", timer.ElapsedMs());
  return json.Write() ? 0 : 1;
}
