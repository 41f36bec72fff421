// Figure 4: MNSA vs creating all candidate statistics. The paper reports
// 30-45% reduction in statistics-creation time (with MNSA's optimizer-call
// overhead included), execution cost increase <= 2%, and > 30% reduction
// for the single-column-only candidate variant (§8.2).
#include <cstdio>

#include "bench/bench_util.h"

using namespace autostats;

namespace {

std::vector<CandidateStat> SingleColumnOnly(const Query& q) {
  std::vector<CandidateStat> out;
  for (const ColumnRef& c : q.RelevantColumns()) {
    out.push_back({{c}, CandidateStat::Origin::kSingleColumn});
  }
  return out;
}

struct ExhibitTotals {
  double create_all_cost = 0.0;
  double mnsa_cost = 0.0;
  int64_t optimizer_calls = 0;
};

ExhibitTotals RunExhibit(bool single_column_only) {
  const std::vector<bench::WorkloadSpec> workloads = {
      bench::TpcdOrigSpec(),
      bench::RagsSpec(0.0, rags::Complexity::kSimple, 100),
      bench::RagsSpec(0.0, rags::Complexity::kComplex, 100),
  };
  ExhibitTotals totals;
  std::printf("%-10s %-12s %14s %14s %12s %10s %7s\n", "database",
              "workload", "create-all", "mnsa(+ovh)", "reduction",
              "exec_incr", "#stats");
  for (const std::string& variant : tpcd::TpcdVariantNames()) {
    const Database db = bench::MakeDb(variant);
    Optimizer optimizer(&db);
    for (const bench::WorkloadSpec& spec : workloads) {
      const Workload w = bench::MakeWorkload(db, spec);

      StatsCatalog all(&db);
      double all_cost = 0.0;
      if (single_column_only) {
        for (const Query* q : w.Queries()) {
          all_cost += bench::CreateAll(&all, SingleColumnOnly(*q));
        }
      } else {
        all_cost = bench::CreateAll(&all, CandidateStatisticsForWorkload(w));
      }
      const double all_exec = bench::WorkloadExecCost(db, all, optimizer, w);

      StatsCatalog pruned(&db);
      MnsaConfig mnsa;
      mnsa.t_percent = 20.0;
      if (single_column_only) mnsa.candidates = SingleColumnOnly;
      const MnsaResult r = RunMnsaWorkload(optimizer, &pruned, w, mnsa);
      const double mnsa_cost =
          r.creation_cost + r.optimizer_calls * bench::kOptimizerCallCost;
      const double mnsa_exec =
          bench::WorkloadExecCost(db, pruned, optimizer, w);

      std::printf("%-10s %-12s %14.0f %14.0f %11.1f%% %+9.2f%% %3zu/%-3zu\n",
                  variant.c_str(), spec.name.c_str(), all_cost, mnsa_cost,
                  (all_cost - mnsa_cost) / all_cost * 100.0,
                  (mnsa_exec - all_exec) / all_exec * 100.0,
                  pruned.num_active(), all.num_active());
      totals.create_all_cost += all_cost;
      totals.mnsa_cost += mnsa_cost;
      totals.optimizer_calls += r.optimizer_calls;
    }
  }
  return totals;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Figure 4: MNSA vs creating all candidate statistics (t = 20%, "
      "epsilon = 0.0005)",
      "creation time reduced 30-45% (MNSA overhead included); execution "
      "cost increase <= 2%");
  bench::WallTimer timer;
  const ExhibitTotals multi = RunExhibit(/*single_column_only=*/false);
  const double multi_wall_ms = timer.ElapsedMs();

  std::printf("\n--- Single-column-only candidate variant (Section 8.2) — "
              "paper: > 30%% reduction in all cases ---\n");
  bench::WallTimer single_timer;
  const ExhibitTotals single = RunExhibit(/*single_column_only=*/true);
  const double single_wall_ms = single_timer.ElapsedMs();

  bench::BenchJson json("fig4_mnsa");
  json.Add("wall_ms", multi_wall_ms + single_wall_ms);
  json.Add("multi_wall_ms", multi_wall_ms);
  json.Add("single_column_wall_ms", single_wall_ms);
  json.Add("optimizer_calls",
           static_cast<double>(multi.optimizer_calls + single.optimizer_calls));
  json.Add("creation_reduction_pct",
           (multi.create_all_cost - multi.mnsa_cost) / multi.create_all_cost *
               100.0);
  return json.Write() ? 0 : 1;
}
