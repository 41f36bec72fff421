// One session serving one statement stream: the timed path through
// AutoStatsManager::Process, and the layer-by-layer replay through the
// public calls Process makes. Shared by every workload (tenant_fleet uses
// both as its serial oracle).
#ifndef PERFBENCH_ENGINE_H_
#define PERFBENCH_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "catalog/database.h"
#include "core/policy.h"
#include "query/workload.h"

namespace perfbench {

// MNSA/D on the fly (the default ManagerPolicy) with incremental
// refreshes and, when durable, a snapshot every 64 statements: the policy
// of update_churn and of every tenant_fleet tenant.
autostats::ManagerPolicy ChurnPolicy();

// One statement's raw latency and when it started (NowUs clock).
struct Timing {
  double begin_us;
  double us;
};

// What serving one stream produced. Sums are reduced in statement order,
// so they are bit-exact for a given stream.
struct StreamRun {
  std::vector<Timing> queries;  // in stream order
  std::vector<Timing> dmls;     // in stream order
  double exec_units = 0.0;      // executor work units of the queries
  double stats_units = 0.0;     // statistic creation + update cost units
  int64_t statements = 0;
  int64_t degraded = 0;             // statements served on the degraded path
  int64_t durability_failures = 0;  // failed commits / checkpoints / flushes
  uint32_t digest = 0;              // CatalogDigest at the end of the stream
  double busy_us = 0.0;             // sum of raw statement latencies
};

// Serves `stream` through AutoStatsManager::Process on a fresh catalog and
// optimizer over `db`, with optimizer probes inline. Durable (one fsync per
// statement) when `wal_dir` is non-empty; the directory must not exist.
// With `host` non-null the host-speed kernel is sampled between statements.
StreamRun ServeStream(autostats::Database* db,
                      const autostats::Workload& stream,
                      const autostats::ManagerPolicy& policy,
                      const std::string& wal_dir, HostSpeed* host);

// The raw end-to-end figures of one workload run.
struct EndToEnd {
  std::string latency_from;        // where a statement's latency starts
  std::vector<Timing> queries;     // raw latencies
  std::vector<Timing> dmls;
  // Capacity: capacity_statements completed within capacity_busy, summed.
  int64_t capacity_statements = 0;
  std::vector<Timing> capacity_busy;
  std::string capacity_note;
  std::vector<Timing> setups;      // raw set-up times
  double exec_units = 0.0;         // reduced in (stream or tenant, statement)
  double stats_units = 0.0;        // order, so bit-exact for a given seed
};

// Prints every end-to-end metric with its unit and sample count, timings
// at the nominal host speed. With `gated` adds the BENCHMARK.json
// end-to-end metrics to `result`. result->attempted / failed must be set.
void ReportEndToEnd(const EndToEnd& e2e, const HostSpeed& host, bool gated,
                    RunResult* result);

// Per-layer figures of traced replays, accumulated over streams.
struct LayerStats {
  int64_t queries = 0;
  int64_t dmls = 0;
  double stmt_us = 0.0;              // sum of statement spans
  double self_us[kNumLayers] = {};   // layer self time inside statements
  // core
  std::vector<double> mnsa_us;       // RunMnsa per query (probes + builds)
  double mnsa_total_us = 0.0;
  int64_t mnsa_iterations = 0;
  int64_t mnsa_optimizer_calls = 0;
  int64_t stats_built = 0;           // builds (resurrections excluded)
  int64_t stats_kept = 0;            // of those, active at stream end
  std::vector<double> drop_policy_us;  // drop rule + drop-list policy per DML
  // optimizer
  int64_t optimizer_calls = 0;
  int64_t optimizer_real_calls = 0;
  double optimizer_us = 0.0;         // probes inside RunMnsa + serving call
  std::vector<double> real_optimize_us;  // one real call, cache off
  // stats
  std::vector<double> build_us;      // builds re-timed on a scratch catalog
  double build_total_us = 0.0;
  std::vector<double> refresh_us;    // RecordModifications + refresh per DML
  int64_t refreshes = 0;             // statistics refreshed
  int64_t merges = 0;                // of those, incremental merges
  std::vector<double> commit_us;     // CommitStatement per statement
  std::vector<double> checkpoint_us;
  int64_t fsyncs = 0;
  double wal_bytes = 0.0;            // journal bytes appended by commits
  // executor
  std::vector<double> execute_us;    // Execute per query
  double execute_total_us = 0.0;
  std::vector<double> dml_apply_us;  // TryApplyDml per DML
  int64_t dml_rows = 0;
};

// Replays `stream` on a fresh catalog over `db` through the calls Process
// makes (Tick, RunMnsa, Optimize, Execute; TryApplyDml,
// RecordModifications + RefreshIfTriggered, drop rule,
// EnforceDropListPolicy; CommitStatement, Checkpoint). With `layers`
// non-null each call is timed, spans go to `log` under `track`, and
// metrics collection must be on (its probe-latency sums split RunMnsa).
// The returned digest and sums must equal ServeStream's on the same input.
StreamRun ReplayStream(autostats::Database* db,
                       const autostats::Workload& stream,
                       const autostats::ManagerPolicy& policy,
                       const std::string& wal_dir, LayerStats* layers,
                       SpanLog* log, int track);

// Prints the per-layer table and adds every engine-layer metric.
// `untraced_us` is the untimed-instrument busy time of the same streams.
void ReportLayers(const LayerStats& layers, double untraced_us,
                  RunResult* result);

// Adds every server-layer metric as 0: the engine workloads bypass it.
void AddServerZeros(RunResult* result);

// Removes a directory tree, ignoring errors.
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_H_
