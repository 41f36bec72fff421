// tenant_fleet: an open-loop load against AutoStatsServer.
//
// 64 durable tenants share 2 workers under the shipped server defaults.
// A saturation phase submits round-robin as fast as admission allows and
// gives the capacity; a paced phase offers seeded Poisson arrivals at a
// fixed rate (about a third of the measured capacity) and times each
// statement from its due time to the server's post-statement hook, so a
// stall is charged to every statement it delays.
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "engine.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "rags/rags.h"
#include "server/autostats_server.h"
#include "server/catalog_digest.h"
#include "tpcd/dbgen.h"
#include "tpcd/schema.h"

namespace perfbench {

using namespace autostats;

namespace {

constexpr int kTenants = 64;
constexpr double kScaleFactor = 0.0005;
constexpr int kWorkers = 2;
// Offered load of the paced phase, statements per second. Fixed, not
// derived from the measured capacity, so a slower build meets the same
// load at a higher utilization.
constexpr double kOfferedRate = 2500.0;
// Saturation statements per tenant per --seconds of budget (about a
// quarter of the budget at the measured capacity).
constexpr int kSaturationPerSecond = 24;
// Paced statements per tenant: about 5 s at the offered rate, ~9,400
// queries, under the 10,000 at which p99.9 would become the tail to
// report.
constexpr int kPacedPerTenant = 195;
// A paced run whose generator ran later than this at p99 did not offer
// the intended load and is reported invalid.
constexpr double kMaxGeneratorLagMs = 10.0;
constexpr int kSetups = 3;

struct ServerMetric {
  const char* name;
  const char* unit;
};
constexpr ServerMetric kServerMetrics[] = {
    {"server.queue_ms_p50", "ms"},        {"server.queue_ms_p99", "ms"},
    {"server.apply_ms_p50", "ms"},        {"server.worker_busy_frac", "frac"},
    {"server.fsyncs_per_stmt", "count"},  {"server.fsync_coalesced_frac", "frac"},
    {"server.fsync_passes", "count"},     {"server.backpressure_waits", "count"},
    {"server.work_steals", "count"},      {"server.generator_lag_ms_p99", "ms"},
};
constexpr int kNumServerMetrics =
    sizeof(kServerMetrics) / sizeof(kServerMetrics[0]);

std::string TenantName(int t) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%02d", t);
  return buf;
}

std::unique_ptr<Database> BuildTenantDb(int t) {
  return std::make_unique<Database>(tpcd::BuildTpcdVariant(
      "TPCD_MIX", kScaleFactor, 42 + static_cast<uint64_t>(t)));
}

// Completion stamps written by the server's post-statement hook. Per
// tenant, statements complete in admission order (the server serializes
// each tenant), so the k-th completion is the k-th admitted statement.
struct Completions {
  explicit Completions(size_t per_tenant)
      : count(kTenants), at_us(kTenants, std::vector<double>(per_tenant)) {}
  std::vector<std::atomic<size_t>> count;
  std::vector<std::vector<double>> at_us;

  void Record(size_t tenant) {
    const size_t k = count[tenant].fetch_add(1, std::memory_order_relaxed);
    if (k < at_us[tenant].size()) at_us[tenant][k] = NowUs();
  }
};

struct Fleet {
  std::vector<std::unique_ptr<Database>> dbs;
  std::unique_ptr<AutoStatsServer> server;  // destroyed before the dbs
};

std::unique_ptr<Fleet> SetUpFleet(const std::string& wal_dir,
                                  Completions* done) {
  auto fleet = std::make_unique<Fleet>();
  for (int t = 0; t < kTenants; ++t) fleet->dbs.push_back(BuildTenantDb(t));
  ServerOptions options;
  options.num_workers = kWorkers;
  options.post_statement_hook = [done](size_t t) { done->Record(t); };
  fleet->server = std::make_unique<AutoStatsServer>(options);
  for (int t = 0; t < kTenants; ++t) {
    TenantConfig config;
    config.name = TenantName(t);
    config.db = fleet->dbs[t].get();
    config.policy = ChurnPolicy();
    config.durability_dir = wal_dir + "/" + config.name;
    fleet->server->AddTenant(config);
  }
  fleet->server->Start();
  return fleet;
}

// One admitted statement: its position in the tenant's stream and, in the
// paced phase, when it was due (0 in the saturation phase).
struct Admitted {
  int index;
  double due_us;
};

void WaitUntil(double due_us) {
  for (;;) {
    const double wait = due_us - NowUs();
    if (wait <= 0) return;
    // Sleep most of the gap; spin the last stretch for a precise start.
    if (wait > 150.0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<int64_t>(wait - 100.0)));
    }
  }
}

int64_t CounterValue(const std::string& name) {
  for (const auto& [n, v] : obs::MetricsRegistry::Instance().CounterValues()) {
    if (n == name) return v;
  }
  return 0;
}

int64_t FsyncCount() {
  int64_t total = 0;
  for (const auto& [name, snap] :
       obs::MetricsRegistry::Instance().HistogramValues()) {
    const std::string suffix = "wal_fsync_us";
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += snap.count;
    }
  }
  return total;
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

}  // namespace

void AddServerZeros(RunResult* result) {
  for (const ServerMetric& m : kServerMetrics) result->Add(m.name, 0.0, m.unit);
}

RunResult RunTenantFleet(const Options& o) {
  RunResult result;
  const std::string wal_root = o.work_dir + "/wal-" + std::to_string(getpid());
  RemoveTree(wal_root);
  // Per tenant: the saturation phase's statements, then the paced phase's.
  const int saturation = std::max(4, o.seconds * kSaturationPerSecond);
  const int paced = kPacedPerTenant;
  const int per_tenant = saturation + paced;
  Completions done(per_tenant);
  // Timings are scaled by the median of every kernel sample of the run,
  // taken only between phases and set-ups, when the server is idle. The
  // host's speed moves slowly (this workload's p50 moved 1.5x and the
  // kernel 1.4x between runs 40 minutes apart), while scaling each phase
  // by the few samples around it added more noise than it removed.
  HostSpeed host(HostSpeed::kWholeRun);

  // Set-up: the databases, the server, every tenant with its WAL opened,
  // and the workers started, kSetups times. Streams are generated from
  // the first fleet's databases outside the timer.
  std::vector<Timing> setups;
  std::unique_ptr<Fleet> fleet;
  std::vector<Workload> streams;
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();
    RemoveTree(wal_root);
    host.Burst();
    const double begin = NowUs();
    fleet = SetUpFleet(wal_root + "/fleet", &done);
    setups.push_back({begin, NowUs() - begin});
    if (i == 0) {
      for (int t = 0; t < kTenants; ++t) {
        rags::RagsConfig config;
        config.num_statements = per_tenant;
        config.update_fraction = 0.25;
        config.complexity = rags::Complexity::kSimple;
        config.seed = MixSeed(o.seed, static_cast<uint64_t>(t));
        config.join_edges = tpcd::TpcdForeignKeys(*fleet->dbs[t]);
        streams.push_back(rags::Generate(*fleet->dbs[t], config));
      }
    }
  }
  AutoStatsServer& server = *fleet->server;
  std::printf("perfbench tenant_fleet: seed %llu, %d durable tenants, %d "
              "workers, %d + %d statements per tenant\n",
              static_cast<unsigned long long>(o.seed), kTenants, kWorkers,
              saturation, paced);

  if (o.trace) {
    obs::MetricsRegistry::Instance().ResetAll();
    obs::EnableMetrics(true);
    obs::EnableSpans(obs::SpanMode::kWall);
  }
  std::vector<std::vector<Admitted>> admitted(kTenants);
  int64_t refused = 0;
  auto submit = [&](int t, int index, double due_us) {
    if (server.Submit(static_cast<size_t>(t),
                      streams[t].statements()[index])
            .ok()) {
      admitted[t].push_back({index, due_us});
    } else {
      ++refused;
    }
  };

  // Saturation: blocking Submit, round-robin over tenants.
  host.Burst();
  const double saturation_begin = NowUs();
  for (int i = 0; i < saturation; ++i) {
    for (int t = 0; t < kTenants; ++t) submit(t, i, 0.0);
  }
  server.Drain();
  const Timing saturation_phase{saturation_begin, NowUs() - saturation_begin};
  host.Burst();

  // Paced: Poisson arrivals at kOfferedRate, tenants round-robin.
  Rng arrivals(MixSeed(o.seed, 0xA11));
  std::vector<double> lag_us;
  lag_us.reserve(static_cast<size_t>(kTenants) * paced);
  const double paced_begin = NowUs() + 1000.0;
  double due = paced_begin;
  for (int j = 0; j < kTenants * paced; ++j) {
    WaitUntil(due);
    lag_us.push_back(NowUs() - due);
    submit(j % kTenants, saturation + j / kTenants, due);
    due += -std::log(1.0 - arrivals.NextDouble()) / kOfferedRate * 1e6;
  }
  server.Drain();
  const double paced_s = (NowUs() - paced_begin) / 1e6;
  server.Stop();
  obs::EnableSpans(obs::SpanMode::kDisabled);
  host.Burst();

  // Latency from due time to applied; a refused statement misses any
  // limit, so it enters the samples as infinitely late.
  EndToEnd e2e;
  e2e.latency_from = "the due time to applied (paced phase)";
  e2e.capacity_note = "saturation phase";
  e2e.capacity_statements = static_cast<int64_t>(kTenants) * saturation;
  e2e.capacity_busy = {saturation_phase};
  e2e.setups = setups;
  int64_t processed = 0;
  for (int t = 0; t < kTenants; ++t) {
    const size_t n = done.count[t].load(std::memory_order_relaxed);
    processed += static_cast<int64_t>(n);
    if (n != admitted[t].size()) {
      result.Fail(TenantName(t) + ": " + std::to_string(n) +
                  " statements applied, " +
                  std::to_string(admitted[t].size()) + " admitted");
      continue;
    }
    for (size_t k = 0; k < n; ++k) {
      const Admitted& a = admitted[t][k];
      if (a.index < saturation) continue;
      const Timing timing{a.due_us, done.at_us[t][k] - a.due_us};
      const bool query = streams[t].statements()[a.index].kind ==
                         Statement::Kind::kQuery;
      (query ? e2e.queries : e2e.dmls).push_back(timing);
    }
  }
  for (int64_t r = 0; r < refused; ++r) {
    e2e.queries.push_back({paced_begin, std::numeric_limits<double>::infinity()});
  }
  const double lag_p99_ms = Percentile(lag_us, 0.99) / 1000.0;
  if (lag_p99_ms > kMaxGeneratorLagMs) {
    result.Fail("paced run invalid: generator lag p99 " +
                std::to_string(lag_p99_ms) + " ms behind its schedule");
  }

  // Server-side accounting, and the server layer's figures (traced run).
  double server_exec = 0.0, server_stats = 0.0;
  int64_t errors = refused;
  std::vector<uint32_t> digests;
  for (int t = 0; t < kTenants; ++t) {
    const RunReport report = server.Report(static_cast<size_t>(t));
    server_exec += report.exec_cost;
    server_stats += report.creation_cost + report.update_cost;
    // Refused and shed Submits are already in `refused`.
    errors += report.degraded_queries + report.degraded_dml +
              report.durability_failures;
    digests.push_back(CatalogDigest(server.catalog(static_cast<size_t>(t))));
  }
  double server_metric[kNumServerMetrics] = {};
  if (o.trace) {
    std::vector<double> queue_us, apply_us;
    double busy_us = 0.0;
    std::vector<obs::TenantSpans> export_spans;
    for (int t = 0; t < kTenants; ++t) {
      const obs::SpanSink& sink = server.spans(static_cast<size_t>(t));
      export_spans.push_back({TenantName(t), sink.Spans(), sink.FsyncPasses()});
      for (const obs::StatementSpan& s : export_spans.back().spans) {
        if (s.degraded || s.ingress_seq <= static_cast<uint64_t>(saturation)) {
          continue;
        }
        queue_us.push_back(s.pickup - s.enqueue);
        apply_us.push_back(s.apply_end - s.apply_begin);
        busy_us += s.apply_end - s.apply_begin;
      }
    }
    server_metric[0] = Percentile(queue_us, 0.5) / 1000.0;
    server_metric[1] = Percentile(queue_us, 0.99) / 1000.0;
    server_metric[2] = Percentile(apply_us, 0.5) / 1000.0;
    server_metric[3] = busy_us / (kWorkers * paced_s * 1e6);
    server_metric[4] = Ratio(static_cast<double>(FsyncCount()),
                             static_cast<double>(processed));
    server_metric[5] =
        Ratio(static_cast<double>(CounterValue("server.fsync_coalesced")),
              static_cast<double>(CounterValue("server.fsync_requests")));
    server_metric[6] = static_cast<double>(CounterValue("server.fsync_passes"));
    server_metric[7] =
        static_cast<double>(CounterValue("server.backpressure_waits"));
    server_metric[8] = static_cast<double>(CounterValue("server.work_steals"));
    const std::string path = o.work_dir + "/traces/tenant_fleet.seed" +
                             std::to_string(o.seed) + ".server.json";
    std::error_code ec;
    std::filesystem::create_directories(o.work_dir + "/traces", ec);
    std::FILE* f = std::fopen(path.c_str(), "w");
    const std::string json = obs::SpansToPerfettoJson(export_spans);
    if (f == nullptr || std::fwrite(json.data(), 1, json.size(), f) !=
                            json.size()) {
      result.Fail("cannot write " + path);
    }
    if (f != nullptr) std::fclose(f);
    std::printf("server spans: %s\n", path.c_str());
  }
  server_metric[9] = lag_p99_ms;
  fleet.reset();

  // The serial oracle: each tenant's admitted statements replayed on one
  // session over a fresh copy of its database must reach the server's
  // digest. Cost sums come from it, reduced in (tenant, statement) order:
  // the server folds outcomes per batch, whose boundaries vary by run.
  LayerStats layers;
  SpanLog log;
  double exec_units = 0.0, stats_units = 0.0, untraced_us = 0.0;
  if (o.trace) obs::MetricsRegistry::Instance().ResetAll();
  for (int t = 0; t < kTenants; ++t) {
    Workload stream(TenantName(t));
    for (const Admitted& a : admitted[t]) {
      stream.Add(streams[t].statements()[a.index]);
    }
    const std::string wal =
        o.trace ? wal_root + "/serial/" + TenantName(t) : "";
    std::unique_ptr<Database> db = BuildTenantDb(t);
    const StreamRun serial =
        ServeStream(db.get(), stream, ChurnPolicy(), wal, nullptr);
    exec_units += serial.exec_units;
    stats_units += serial.stats_units;
    untraced_us += serial.busy_us;
    if (serial.digest != digests[t]) {
      result.Fail(TenantName(t) +
                  ": serial replay digest differs from the server's");
    }
    if (o.trace) {
      db = BuildTenantDb(t);
      const StreamRun traced =
          ReplayStream(db.get(), stream, ChurnPolicy(),
                       wal_root + "/traced/" + TenantName(t), &layers, &log,
                       t + 1);
      if (traced.digest != digests[t]) {
        result.Fail(TenantName(t) +
                    ": traced replay digest differs from the server's");
      }
    }
  }
  obs::EnableMetrics(false);
  RemoveTree(wal_root);
  if (std::fabs(server_exec - exec_units) > 1e-9 * std::fabs(exec_units) ||
      std::fabs(server_stats - stats_units) > 1e-9 * std::fabs(stats_units)) {
    result.Fail("server cost sums differ from the serial replay");
  }
  result.attempted = static_cast<int64_t>(kTenants) * per_tenant;
  result.failed = errors;
  e2e.exec_units = exec_units;
  e2e.stats_units = stats_units;

  ReportEndToEnd(e2e, host, !o.trace, &result);
  Line("offered_sps", kOfferedRate, "1/s",
       "paced phase, " + std::to_string(paced_s) + " s");
  Line("server.generator_lag_ms_p99", lag_p99_ms, "ms",
       "valid below " + std::to_string(kMaxGeneratorLagMs));
  if (o.trace) {
    std::printf("server segments, paced phase (wall-clock spans):\n");
    for (int m = 0; m < kNumServerMetrics; ++m) {
      Line(kServerMetrics[m].name, server_metric[m], kServerMetrics[m].unit);
      result.Add(kServerMetrics[m].name, server_metric[m],
                 kServerMetrics[m].unit);
    }
    ReportLayers(layers, untraced_us, &result);
    const std::string path = o.work_dir + "/traces/tenant_fleet.seed" +
                             std::to_string(o.seed) + ".json";
    if (log.WriteChromeJson(path, "tenant_fleet replay")) {
      std::printf("trace: %zu spans -> %s\n", log.size(), path.c_str());
    } else {
      result.Fail("cannot write " + path);
    }
  }
  return result;
}

}  // namespace perfbench
