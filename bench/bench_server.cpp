// bench_server: the multi-tenant AutoStatsServer exhibit. Emits
// BENCH_server.json with three classes of series:
//
//   1. Deterministic tenant state — per-tenant catalog digests
//      (server/catalog_digest.h) and, with the fsync coordinator OFF,
//      per-tenant WAL fsync counts (the "<tenant>/wal_fsync_us" labeled
//      histogram), swept across worker counts with flags asserting
//      bit-identical results. These pin
//      the server's determinism contract in the perf gate: any drift on
//      any machine is a semantic change, not noise. Gated exactly by
//      bench/baselines/gate.rules.
//
//   2. Throughput scaling — statements/sec through the shared worker
//      pool at 1/2/4/8 workers under the DEFAULT config (one ready
//      queue, cross-tenant async group commit ON), at 10 and 100 durable
//      tenants. Machine-dependent: recorded for trend reading across the
//      committed baselines, never gated.
//
//   3. Fsync economics — total physical fsyncs at 100 tenants with the
//      coordinator OFF (the deterministic per-tenant cadence, exact-
//      gated) vs ON (wall-clock shaped, ungated), with a gated flag
//      asserting the budget actually coalesces (ON strictly below OFF).
//
// At smoke scale (AUTOSTATS_SF <= 0.001, the bench-smoke / bench-diff
// pin) a 1000-tenant in-memory sweep also runs: scheduler + digest
// correctness at fleet-ish tenant counts, cheap enough for CI.
#include <unistd.h>

#include <algorithm>
#include <clocale>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/fault.h"
#include "common/rng.h"
#include "obs/span.h"
#include "query/dml.h"
#include "server/autostats_server.h"
#include "server/catalog_digest.h"
#include "tests/test_util.h"

namespace autostats::bench {
namespace {

namespace fs = std::filesystem;

using testing::MakeFilterQuery;
using testing::MakeJoinQuery;
using testing::MakeTwoTableDb;
using testing::TwoTableDb;

constexpr int kWorkerCounts[] = {1, 2, 4, 8};

// Tenant data-plane size tracks AUTOSTATS_SF like every other exhibit
// (1e6 rows at SF 1.0), clamped so the smoke scale still builds real
// histograms and the default scale stays interactive.
size_t FactRows() {
  const double rows = ScaleFactor() * 1e6;
  return static_cast<size_t>(std::clamp(rows, 500.0, 20000.0));
}

std::string TenantName(size_t i) {
  return (i < 10 ? "t0" : "t") + std::to_string(i);
}

ManagerPolicy TenantPolicy() {
  ManagerPolicy policy;
  policy.mode = CreationMode::kMnsaDOnTheFly;
  policy.update_trigger.fraction = 0.01;
  policy.update_trigger.floor = 1;
  policy.update_trigger.incremental = true;
  policy.enable_aging = true;
  policy.aging.cooldown_ticks = 2;
  policy.durability_checkpoint_every = 4;
  return policy;
}

// Deterministic per-tenant stream (same recipe family as server_test):
// a query/DML mix that is a pure function of (tenant, position), so every
// run at every worker count replays identical inputs.
Workload TenantStream(const TwoTableDb& t, size_t tenant, int statements) {
  Workload w(TenantName(tenant));
  Rng rng(9000 + tenant);
  for (int i = 0; i < statements; ++i) {
    switch ((i + tenant) % 4) {
      case 0:
        w.AddQuery(MakeFilterQuery(t, 15 + (tenant * 7 + i * 3) % 70));
        break;
      case 1:
        w.AddQuery(MakeJoinQuery(t, 10 + (tenant * 5 + i * 11) % 80));
        break;
      case 2: {
        DmlStatement d;
        d.kind = DmlKind::kInsert;
        d.table = t.fact;
        d.row_count = 40 + (tenant * 13 + i * 9) % 120;
        d.seed = rng.NextU64(1 << 20);
        w.AddDml(d);
        break;
      }
      default: {
        DmlStatement d;
        d.kind = DmlKind::kUpdate;
        d.table = t.fact;
        d.update_column = 1;  // fact.val
        d.row_count = 30 + (tenant * 3 + i * 5) % 90;
        d.seed = rng.NextU64(1 << 20);
        w.AddDml(d);
        break;
      }
    }
  }
  return w;
}

struct RunSpec {
  size_t tenants = 10;
  int workers = 1;
  int stmts = 40;        // per tenant
  bool durable = true;
  double fsync_budget = -1.0;  // < 0 = ServerOptions default (ON)
  // Record per-statement spans in kWall mode for the run (the overhead
  // exhibit; see obs/span.h).
  bool spans = false;
};

struct ServerRun {
  double ms = 0.0;             // submit-to-drained wall time
  int64_t statements = 0;      // statements processed (sum of reports)
  double sps = 0.0;            // statements per second
  double p99_ingress_us = 0.0;  // server.ingress_to_applied_us p99 (the
                                // top bucket bound once saturated)
  double mean_ingress_us = 0.0; // exact mean (sum/count, not bucketed)
  double ingress_count = 0.0;   // that histogram's sample count
  std::vector<uint32_t> digests;  // per-tenant catalog digest
  std::vector<double> fsyncs;     // per-tenant wal_fsync_us count
  double fsync_total = 0.0;       // sum of the above
};

ServerRun RunOnce(const RunSpec& spec) {
  // Per-process root: ctest runs bench_server_smoke and
  // bench_server_generate (the same binary) concurrently in this
  // directory, and a shared WAL root would let one run remove_all the
  // other's live journals mid-fsync.
  const std::string wal_root =
      "bench_server.wal." + std::to_string(::getpid()) + ".dir";
  std::error_code ec;
  fs::remove_all(wal_root, ec);

  std::vector<TwoTableDb> dbs;
  dbs.reserve(spec.tenants);
  std::vector<Workload> streams;
  streams.reserve(spec.tenants);
  for (size_t i = 0; i < spec.tenants; ++i) {
    dbs.push_back(MakeTwoTableDb(FactRows(), 60));
    streams.push_back(TenantStream(dbs[i], i, spec.stmts));
  }

  // Reset before constructing the server: it resolves its aggregate
  // instruments at construction time.
  obs::MetricsRegistry::Instance().ResetAll();
  obs::EnableMetrics(true);
  obs::EnableSpans(spec.spans ? obs::SpanMode::kWall : obs::SpanMode::kDisabled);

  ServerOptions options;
  options.num_workers = spec.workers;
  options.max_queue_depth = 16;  // bounded backlog: p99 reflects service,
                                 // not an unbounded queue
  options.max_batch = 8;
  if (spec.fsync_budget >= 0.0) options.fsync_budget_per_sec = spec.fsync_budget;
  AutoStatsServer server(options);
  for (size_t i = 0; i < spec.tenants; ++i) {
    TenantConfig tc;
    tc.name = TenantName(i);
    tc.db = &dbs[i].db;
    tc.policy = TenantPolicy();
    if (spec.durable) tc.durability_dir = wal_root + "/" + tc.name;
    server.AddTenant(tc);
  }
  server.Start();

  // Statement streams arrive on several ingress threads (the server's
  // intended shape) — each tenant is owned by exactly one ingress thread,
  // so per-tenant order (the determinism input) is preserved while the
  // cross-tenant interleaving is a free-running race. A single ingress
  // thread would bottleneck the pool before the workers do.
  const size_t ingress_threads = std::min<size_t>(4, spec.tenants);
  WallTimer timer;
  {
    std::vector<std::thread> ingress;
    ingress.reserve(ingress_threads);
    for (size_t g = 0; g < ingress_threads; ++g) {
      ingress.emplace_back([&, g] {
        for (int s = 0; s < spec.stmts; ++s) {
          for (size_t i = g; i < spec.tenants; i += ingress_threads) {
            server.Submit(i, streams[i].statements()[s]);
          }
        }
      });
    }
    for (std::thread& t : ingress) t.join();
  }
  server.Drain();
  ServerRun run;
  run.ms = timer.ElapsedMs();
  server.Stop();
  obs::EnableMetrics(false);
  obs::EnableSpans(obs::SpanMode::kDisabled);

  for (size_t i = 0; i < spec.tenants; ++i) {
    const RunReport report = server.Report(i);
    run.statements += report.num_queries + report.num_dml;
    if (report.durability_failures != 0) {
      std::fprintf(stderr, "bench_server: tenant %s durability failure\n",
                   TenantName(i).c_str());
      std::exit(1);
    }
    run.digests.push_back(CatalogDigest(server.catalog(i)));
  }
  run.sps = run.ms > 0 ? 1000.0 * static_cast<double>(run.statements) / run.ms
                       : 0.0;

  run.fsyncs.assign(spec.tenants, 0.0);
  for (const auto& [name, snap] :
       obs::MetricsRegistry::Instance().HistogramValues()) {
    if (name == "server.ingress_to_applied_us") {
      run.ingress_count = static_cast<double>(snap.count);
      run.p99_ingress_us = snap.Percentile(0.99);
      run.mean_ingress_us = snap.Mean();
      continue;
    }
    for (size_t i = 0; i < spec.tenants; ++i) {
      if (name == TenantName(i) + "/wal_fsync_us") {
        run.fsyncs[i] = static_cast<double>(snap.count);
        run.fsync_total += run.fsyncs[i];
      }
    }
  }

  fs::remove_all(wal_root, ec);
  return run;
}

// --- 1. Determinism across worker counts ----------------------------------
//
// Coordinator OFF so the per-tenant fsync schedule is the deterministic
// inline cadence: digests AND fsync counts must be bit-identical at every
// worker count.
void InlineFsyncSweepSection(BenchJson* json) {
  std::printf("\ndeterminism sweep: workers {1,2,4,8}, coordinator off\n");
  std::vector<ServerRun> runs;
  for (int workers : kWorkerCounts) {
    RunSpec spec;
    spec.tenants = 10;
    spec.workers = workers;
    spec.stmts = 40;
    spec.durable = true;
    spec.fsync_budget = 0.0;  // inline per-tenant fsyncs
    runs.push_back(RunOnce(spec));
  }
  const ServerRun& ref = runs[0];
  json->Add("t10_statements", static_cast<double>(ref.statements));
  double digest_sum = 0.0;
  for (size_t i = 0; i < ref.digests.size(); ++i) {
    digest_sum += static_cast<double>(ref.digests[i]);
    json->Add("t10_digest_" + TenantName(i),
              static_cast<double>(ref.digests[i]));
    json->Add("t10_fsyncs_" + TenantName(i), ref.fsyncs[i]);
  }
  json->Add("t10_digest_sum", digest_sum);
  json->Add("t10_fsyncs_total", ref.fsync_total);

  bool digests_equal = true, fsyncs_equal = true;
  for (const ServerRun& r : runs) {
    digests_equal = digests_equal && r.digests == ref.digests;
    fsyncs_equal = fsyncs_equal && r.fsyncs == ref.fsyncs;
    if (r.statements != ref.statements) digests_equal = false;
  }
  json->Add("t10_inline_digests_equal", digests_equal ? 1.0 : 0.0);
  json->Add("t10_inline_fsyncs_equal", fsyncs_equal ? 1.0 : 0.0);
  std::printf("  digests %s, fsync schedules %s across all worker counts\n",
              digests_equal ? "bit-identical" : "DIVERGED",
              fsyncs_equal ? "identical" : "DIVERGED");
}

// --- 2. Throughput under the default config --------------------------------
//
// Sweeps the worker counts for one tenant-count config (coordinator ON —
// the shipped defaults), emitting the throughput series
// per worker count and a digest-equality flag across the sweep.
void TenantScaleSection(BenchJson* json, size_t num_tenants,
                        int stmts_per_tenant) {
  const std::string prefix = "t" + std::to_string(num_tenants);
  std::vector<ServerRun> runs;
  for (int workers : kWorkerCounts) {
    // Best-of-2: commit-wait overlap on a loaded machine is noisy; the
    // faster round is the machine's capability. Both rounds still feed
    // the determinism checks below.
    RunSpec spec;
    spec.tenants = num_tenants;
    spec.workers = workers;
    spec.stmts = stmts_per_tenant;
    spec.durable = true;
    runs.push_back(RunOnce(spec));
    runs.push_back(RunOnce(spec));
    const size_t n = runs.size();
    const ServerRun& r =
        runs[n - 1].sps > runs[n - 2].sps ? runs[n - 1] : runs[n - 2];
    const std::string wp = prefix + "_w" + std::to_string(workers);
    json->Add(wp + "_statements_per_sec", r.sps);
    json->Add(wp + "_ms", r.ms);
    json->Add(wp + "_p99_ingress_us", r.p99_ingress_us);
    json->Add(wp + "_mean_ingress_us", r.mean_ingress_us);
    std::printf(
        "%-4s workers=%d  %8.0f stmts/s  ingress->applied mean %.0f us  "
        "p99 %.0f us\n",
        prefix.c_str(), workers, r.sps, r.mean_ingress_us, r.p99_ingress_us);
  }

  const ServerRun& ref = runs[0];
  json->Add(prefix + "_ingress_samples", ref.ingress_count);
  double digest_sum = 0.0;
  for (uint32_t d : ref.digests) digest_sum += static_cast<double>(d);
  // t100 has no inline-fsync sweep of its own: its digest sum + statement count
  // from this (default-config) sweep are the exact-gated state pin.
  if (prefix != "t10") {
    json->Add(prefix + "_statements", static_cast<double>(ref.statements));
    json->Add(prefix + "_digest_sum", digest_sum);
  }

  // Digests must agree across the whole sweep (fsync schedules are
  // wall-clock shaped with the coordinator ON and deliberately unpinned).
  bool digests_equal = true;
  for (const ServerRun& r : runs) {
    digests_equal = digests_equal && r.digests == ref.digests;
    if (r.statements != ref.statements) digests_equal = false;
  }
  json->Add(prefix + "_digests_workers_equal", digests_equal ? 1.0 : 0.0);
}

// --- 3. Fsync economics ----------------------------------------------------
//
// One 100-tenant run per coordinator mode at the widest worker count:
// OFF = the deterministic per-tenant cadence (exact-gated count), ON =
// the budgeted cross-tenant schedule (ungated count, gated strictly-less
// flag).
void FsyncBudgetSection(BenchJson* json) {
  RunSpec off;
  off.tenants = 100;
  off.workers = 8;
  off.stmts = 8;
  off.durable = true;
  off.fsync_budget = 0.0;
  const ServerRun off_run = RunOnce(off);

  RunSpec on = off;
  on.fsync_budget = -1.0;  // shipped default budget
  const ServerRun on_run = RunOnce(on);

  json->Add("t100_fsyncs_total", off_run.fsync_total);
  json->Add("t100_fsyncs_budget_total", on_run.fsync_total);
  json->Add("t100_fsync_budget_saves",
            on_run.fsync_total < off_run.fsync_total ? 1.0 : 0.0);
  std::printf("\nt100 w8 physical fsyncs: %.0f inline -> %.0f budgeted "
              "(%.1fx fewer)\n",
              off_run.fsync_total, on_run.fsync_total,
              on_run.fsync_total > 0
                  ? off_run.fsync_total / on_run.fsync_total
                  : 0.0);
}

// --- 4. Degraded-mode serving: breaker trips + recovery ---------------------
//
// 100 tenants, 3 of them on a permanently failing persistence path (one
// victim per fault point — the injector holds one schedule per point):
// the breakers trip, the victims serve degraded (magic numbers,
// statements parked), the other 97 keep their full durable cadence.
// After the disk "heals" (schedules disarmed), operator probes re-admit
// every victim. The statement accounting across trip/park/replay is
// deterministic — gated exactly — while the fleet throughput with
// degraded tenants in the mix is machine-dependent and recorded ungated.
void BreakerSection(BenchJson* json) {
  constexpr size_t kTenants = 100;
  constexpr size_t kVictims = 3;
  constexpr int kStmts = 8;
  const std::string wal_root =
      "bench_server.breaker." + std::to_string(::getpid()) + ".dir";
  std::error_code ec;
  fs::remove_all(wal_root, ec);

  std::vector<TwoTableDb> dbs;
  dbs.reserve(kTenants);
  std::vector<Workload> streams;
  streams.reserve(kTenants);
  for (size_t i = 0; i < kTenants; ++i) {
    dbs.push_back(MakeTwoTableDb(FactRows(), 60));
    streams.push_back(TenantStream(dbs[i], i, kStmts));
  }

  ServerOptions options;
  options.num_workers = 8;
  options.max_queue_depth = 16;
  options.max_batch = 8;
  options.fsync_budget_per_sec = 0.0;  // inline fsync: trips deterministic
  options.breaker_trip_threshold = 2;
  options.breaker_probe_backoff_statements = 2;
  options.breaker_probe_backoff_max_statements = 16;
  AutoStatsServer server(options);
  for (size_t i = 0; i < kTenants; ++i) {
    TenantConfig tc;
    tc.name = TenantName(i);
    tc.db = &dbs[i].db;
    tc.policy = TenantPolicy();
    tc.durability_dir = wal_root + "/" + tc.name;
    server.AddTenant(tc);
  }
  server.Start();

  const char* kPoints[kVictims] = {faults::kPersistenceFsync,
                                   faults::kPersistenceAppend,
                                   faults::kPersistenceRename};
  for (size_t v = 0; v < kVictims; ++v) {
    FaultSchedule schedule;  // plain persistent failure, one point each
    schedule.kind = FaultKind::kFailNth;
    schedule.nth = 1;
    schedule.count = INT64_MAX;
    schedule.match = "tenant=" + TenantName(v);
    FaultInjector::Instance().Arm(kPoints[v], schedule);
  }

  const size_t ingress_threads = 4;
  WallTimer timer;
  {
    std::vector<std::thread> ingress;
    ingress.reserve(ingress_threads);
    for (size_t g = 0; g < ingress_threads; ++g) {
      ingress.emplace_back([&, g] {
        for (int s = 0; s < kStmts; ++s) {
          for (size_t i = g; i < kTenants; i += ingress_threads) {
            server.Submit(i, streams[i].statements()[s]);
          }
        }
      });
    }
    for (std::thread& t : ingress) t.join();
  }
  server.Drain();
  const double degraded_ms = timer.ElapsedMs();

  // The disk heals; one operator probe per victim re-admits it.
  FaultInjector::Instance().Reset();
  int64_t recovered = 0;
  for (size_t v = 0; v < kVictims; ++v) {
    if (server.ProbeTenant(v).ok()) ++recovered;
  }
  server.Drain();
  server.Stop();

  int64_t fleet_statements = 0;
  int64_t victim_statements = 0;
  int64_t trips = 0;
  int64_t probes = 0;
  for (size_t i = 0; i < kTenants; ++i) {
    const RunReport report = server.Report(i);
    fleet_statements += report.num_queries + report.num_dml;
    if (i < kVictims) victim_statements += report.num_queries + report.num_dml;
    trips += server.breaker_trips(i);
    probes += server.breaker_probes(i);
  }
  const double sps =
      degraded_ms > 0
          ? 1000.0 * static_cast<double>(fleet_statements) / degraded_ms
          : 0.0;

  // Exact gate: no statement is ever lost across trip -> park -> replay,
  // and every tripped victim recovers after the fault clears.
  json->Add("t100_breaker_recovery_statements",
            static_cast<double>(victim_statements));
  json->Add("t100_breaker_fleet_statements",
            static_cast<double>(fleet_statements));
  json->Add("t100_breaker_victims_recovered", static_cast<double>(recovered));
  // Trend series (ungated): how often the breakers cycled and what the
  // fleet sustained with 5% of tenants quarantined.
  json->Add("t100_breaker_trips", static_cast<double>(trips));
  json->Add("t100_breaker_probes", static_cast<double>(probes));
  json->Add("t100_degraded_statements_per_sec", sps);
  std::printf(
      "\nt100 degraded-mode: 3 victims, %lld trips, %lld probes, "
      "%lld/%zu recovered, %8.0f stmts/s with quarantine active\n",
      static_cast<long long>(trips), static_cast<long long>(probes),
      static_cast<long long>(recovered), kVictims, sps);

  fs::remove_all(wal_root, ec);
}

// --- 5. Span-attribution overhead -------------------------------------------
//
// Three interleaved off/on pairs of a t100/w8 run, spans in kWall mode
// (the profiling config — logical mode is strictly cheaper). The tenants
// are in-memory with 400 statements each, so the run is CPU-bound and
// long enough to read a few percent: on durable runs the fsync wait
// dominates, and its noise swamps a cost that small. Interleaving
// pairs cancels machine drift within a pair; the gate takes the BEST
// pair's on/off ratio (a loaded machine can only make spans look worse,
// never better) and requires spans-on >= 0.95x spans-off.
void SpanOverheadSection(BenchJson* json) {
  constexpr int kPairs = 3;
  double best_off = 0.0, best_on = 0.0, best_ratio = 0.0;
  for (int p = 0; p < kPairs; ++p) {
    RunSpec spec;
    spec.tenants = 100;
    spec.workers = 8;
    spec.stmts = 400;
    spec.durable = false;
    const ServerRun off = RunOnce(spec);
    spec.spans = true;
    const ServerRun on = RunOnce(spec);
    best_off = std::max(best_off, off.sps);
    best_on = std::max(best_on, on.sps);
    if (off.sps > 0) best_ratio = std::max(best_ratio, on.sps / off.sps);
  }
  json->Add("t100_w8_spans_off_statements_per_sec", best_off);
  json->Add("t100_w8_spans_on_statements_per_sec", best_on);
  json->Add("t100_w8_spans_overhead_ratio", best_ratio);
  std::printf("\nt100 w8 span overhead: %8.0f stmts/s off, %8.0f on "
              "(best-pair ratio %.3f)\n",
              best_off, best_on, best_ratio);
}

// --- 6. Fleet-count smoke (tiny SF only) ------------------------------------
//
// 1000 in-memory tenants, short streams: scheduler + digest correctness
// at fleet-ish tenant counts. Only at smoke scale (the bench-smoke and
// bench-diff pin, AUTOSTATS_SF <= 0.001) so CI pays seconds, not minutes.
void FleetSmokeSection(BenchJson* json) {
  RunSpec spec;
  spec.tenants = 1000;
  spec.workers = 8;
  spec.stmts = 4;
  spec.durable = false;
  const ServerRun run = RunOnce(spec);
  double digest_sum = 0.0;
  for (uint32_t d : run.digests) digest_sum += static_cast<double>(d);
  json->Add("t1000_statements", static_cast<double>(run.statements));
  json->Add("t1000_digest_sum", digest_sum);
  json->Add("t1000_w8_statements_per_sec", run.sps);
  std::printf("t1000 smoke: %lld statements, %8.0f stmts/s\n",
              static_cast<long long>(run.statements), run.sps);
}

}  // namespace
}  // namespace autostats::bench

int main() {
  using namespace autostats::bench;
  std::setlocale(LC_NUMERIC, "C");  // %.17g must not localize decimal points
  PrintHeader("Multi-tenant AutoStatsServer: one ready queue + "
              "cross-tenant group commit",
              "unattended statistics management beside the server (Section 6), "
              "multiplexed across tenants");
  BenchJson json("server");
  json.Add("fact_rows", static_cast<double>(FactRows()));
  // Every tenant is durable (its own WAL directory + checkpoints):
  // statements block on fsync, so throughput comes from taking the fsync
  // off the worker critical path and coalescing it — visible even on a
  // single core.
  InlineFsyncSweepSection(&json);
  // 10 tenants and 100 tenants under the shipped defaults.
  TenantScaleSection(&json, 10, 40);
  TenantScaleSection(&json, 100, 8);
  FsyncBudgetSection(&json);
  BreakerSection(&json);
  SpanOverheadSection(&json);
  if (ScaleFactor() <= 0.001) FleetSmokeSection(&json);
  if (!json.Write()) return 1;
  std::printf("bench_server: BENCH_server.json written\n");
  return 0;
}
