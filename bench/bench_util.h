// Shared harness for the paper-reproduction benchmarks: database/workload
// construction, the experiment pipelines common to several exhibits, and
// table printing. Every bench is deterministic for a given seed; scale is
// controlled with the AUTOSTATS_SF environment variable (default 0.002).
#ifndef AUTOSTATS_BENCH_BENCH_UTIL_H_
#define AUTOSTATS_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "core/candidate.h"
#include "obs/metrics.h"
#include "core/mnsa.h"
#include "core/report.h"
#include "executor/executor.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_cache.h"
#include "rags/rags.h"
#include "stats/stats_catalog.h"
#include "tpcd/dbgen.h"
#include "tpcd/queries.h"
#include "tpcd/schema.h"

namespace autostats::bench {

// The paper reports statistics-creation time including MNSA's optimizer
// calls; this converts optimizer calls into the same cost units (the time
// to create a statistic "typically far exceeds the time to optimize a
// query", §4.3).
inline constexpr double kOptimizerCallCost = 50.0;

inline double ScaleFactor() {
  const char* env = std::getenv("AUTOSTATS_SF");
  return env != nullptr ? std::atof(env) : 0.002;
}

inline Database MakeDb(const std::string& variant) {
  return tpcd::BuildTpcdVariant(variant, ScaleFactor(), /*seed=*/42);
}

// A named workload recipe the exhibits iterate over.
struct WorkloadSpec {
  std::string name;     // "TPCD-ORIG" or Rags notation ("U25-C-100")
  int num_statements = 0;
  double update_fraction = 0.0;
  rags::Complexity complexity = rags::Complexity::kSimple;
  bool tpcd_orig = false;
};

inline WorkloadSpec TpcdOrigSpec() {
  WorkloadSpec s;
  s.name = "TPCD-ORIG";
  s.tpcd_orig = true;
  return s;
}

inline WorkloadSpec RagsSpec(double update_fraction,
                             rags::Complexity complexity,
                             int num_statements) {
  WorkloadSpec s;
  s.num_statements = num_statements;
  s.update_fraction = update_fraction;
  s.complexity = complexity;
  rags::RagsConfig config;
  config.num_statements = num_statements;
  config.update_fraction = update_fraction;
  config.complexity = complexity;
  s.name = rags::WorkloadName(config);
  return s;
}

inline Workload MakeWorkload(const Database& db, const WorkloadSpec& spec,
                             uint64_t seed = 7) {
  if (spec.tpcd_orig) return tpcd::TpcdQueries(db);
  rags::RagsConfig config;
  config.num_statements = spec.num_statements;
  config.update_fraction = spec.update_fraction;
  config.complexity = spec.complexity;
  config.seed = seed;
  config.join_edges = tpcd::TpcdForeignKeys(db);
  return rags::Generate(db, config);
}

// Executed cost of the workload's queries under the catalog's current
// statistics (DML statements are ignored — execution-cost comparisons are
// over identical query sets), summed in workload order.
inline double WorkloadExecCost(const Database& db,
                               const StatsCatalog& catalog,
                               const Optimizer& optimizer,
                               const Workload& w) {
  const Executor executor(&db, optimizer.cost_model());
  double total = 0.0;
  for (const Query* q : w.Queries()) {
    const OptimizeResult r = optimizer.Optimize(*q, StatsView(&catalog));
    total += executor.Execute(*q, r.plan).work_units;
  }
  return total;
}

// Wall-clock stopwatch for the perf trajectory the BENCH_*.json files
// record.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Machine-readable benchmark emission: collects flat metrics and writes
// BENCH_<name>.json next to the binary (or under AUTOSTATS_BENCH_JSON_DIR),
// so the perf trajectory across PRs can be scraped without parsing tables.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {
    Add("scale_factor", ScaleFactor());
  }

  void Add(const std::string& key, double value) {
    numbers_.emplace_back(key, value);
  }
  void Add(const std::string& key, const std::string& value) {
    strings_.emplace_back(key, value);
  }

  // Records the optimizer's probe accounting under `prefix`: logical
  // calls, cache hits, real (pipeline) calls, and the hit ratio.
  void AddOptimizerCounters(const std::string& prefix,
                            const Optimizer& optimizer) {
    const double calls = static_cast<double>(optimizer.num_calls());
    const double hits = static_cast<double>(optimizer.num_cache_hits());
    Add(prefix + "_optimizer_calls", calls);
    Add(prefix + "_cache_hits", hits);
    Add(prefix + "_real_calls", calls - hits);
    Add(prefix + "_cache_hit_ratio", calls > 0 ? hits / calls : 0.0);
  }

  // Records a manager run's accounting under `prefix`, including the
  // failure/degradation counters — all zero in a fault-free run, which the
  // trajectory scraper uses as a sanity check that no bench regression
  // masks a silently degraded loop.
  void AddRunReport(const std::string& prefix, const RunReport& report) {
    Add(prefix + "_exec_cost", report.exec_cost);
    Add(prefix + "_creation_cost", report.creation_cost);
    Add(prefix + "_update_cost", report.update_cost);
    Add(prefix + "_optimizer_calls",
        static_cast<double>(report.optimizer_calls));
    Add(prefix + "_stats_created", static_cast<double>(report.stats_created));
    Add(prefix + "_stats_dropped", static_cast<double>(report.stats_dropped));
    Add(prefix + "_num_queries", static_cast<double>(report.num_queries));
    Add(prefix + "_num_dml", static_cast<double>(report.num_dml));
    Add(prefix + "_builds_failed", static_cast<double>(report.builds_failed));
    Add(prefix + "_build_retries", static_cast<double>(report.build_retries));
    Add(prefix + "_probes_aborted",
        static_cast<double>(report.probes_aborted));
    Add(prefix + "_dml_retries", static_cast<double>(report.dml_retries));
    Add(prefix + "_degraded_queries",
        static_cast<double>(report.degraded_queries));
    Add(prefix + "_degraded_dml", static_cast<double>(report.degraded_dml));
    Add(prefix + "_durability_failures",
        static_cast<double>(report.durability_failures));
  }

  // Records every registered metric under `prefix`: counters and gauges
  // verbatim, histograms as count/mean/p50/p90/p99. Call after the
  // instrumented run, with metrics enabled during it.
  void AddMetrics(const std::string& prefix) {
    const auto& registry = obs::MetricsRegistry::Instance();
    for (const auto& [name, value] : registry.CounterValues()) {
      Add(prefix + "_" + name, static_cast<double>(value));
    }
    for (const auto& [name, value] : registry.GaugeValues()) {
      Add(prefix + "_" + name, static_cast<double>(value));
    }
    for (const auto& [name, snap] : registry.HistogramValues()) {
      if (snap.count == 0) continue;  // unexercised instrument
      Add(prefix + "_" + name + "_count", static_cast<double>(snap.count));
      Add(prefix + "_" + name + "_mean", snap.Mean());
      Add(prefix + "_" + name + "_p50", snap.Percentile(0.50));
      Add(prefix + "_" + name + "_p90", snap.Percentile(0.90));
      Add(prefix + "_" + name + "_p99", snap.Percentile(0.99));
    }
  }

  // Returns false (and removes the partial file) if any write failed — a
  // full disk must not silently commit a truncated baseline that a later
  // bench_diff run would then "pass" against.
  bool Write() const {
    const char* dir = std::getenv("AUTOSTATS_BENCH_JSON_DIR");
    const std::string path =
        (dir != nullptr ? std::string(dir) + "/" : std::string()) + "BENCH_" +
        name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchJson: cannot write %s\n", path.c_str());
      return false;
    }
    // Keys and values pass through JsonEscape: a quote or backslash in a
    // workload label must not produce an unparseable file.
    bool ok =
        std::fprintf(f, "{\n  \"bench\": \"%s\"", JsonEscape(name_).c_str()) >=
        0;
    for (const auto& [key, value] : strings_) {
      ok = ok && std::fprintf(f, ",\n  \"%s\": \"%s\"",
                              JsonEscape(key).c_str(),
                              JsonEscape(value).c_str()) >= 0;
    }
    for (const auto& [key, value] : numbers_) {
      ok = ok && std::fprintf(f, ",\n  \"%s\": %.17g",
                              JsonEscape(key).c_str(), value) >= 0;
    }
    ok = ok && std::fprintf(f, "\n}\n") >= 0;
    ok = std::fclose(f) == 0 && ok;  // fclose flushes; always check it
    if (!ok) {
      std::fprintf(stderr, "BenchJson: write failed for %s; removing\n",
                   path.c_str());
      std::remove(path.c_str());
      return false;
    }
    std::printf("[wrote %s]\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> numbers_;
  std::vector<std::pair<std::string, std::string>> strings_;
};

// Builds every statistic in `candidates`; returns the creation cost.
inline double CreateAll(StatsCatalog* catalog,
                        const std::vector<CandidateStat>& candidates) {
  double cost = 0.0;
  for (const CandidateStat& c : candidates) {
    cost += catalog->CreateStatistic(c.columns);
  }
  return cost;
}

inline void PrintHeader(const char* exhibit, const char* paper_result) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", exhibit);
  std::printf("Paper result: %s\n", paper_result);
  std::printf("Scale factor %.4g (set AUTOSTATS_SF to change); deterministic "
              "seed 42.\n",
              ScaleFactor());
  std::printf("==============================================================="
              "=================\n");
}

}  // namespace autostats::bench

#endif  // AUTOSTATS_BENCH_BENCH_UTIL_H_
