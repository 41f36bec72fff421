#include "engine.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <set>

#include "common/parallel.h"
#include "core/auto_manager.h"
#include "core/drop_list.h"
#include "core/mnsa.h"
#include "executor/dml_exec.h"
#include "executor/executor.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "rags/rags.h"
#include "server/catalog_digest.h"
#include "stats/durability.h"
#include "tpcd/dbgen.h"
#include "tpcd/schema.h"

namespace perfbench {

using namespace autostats;

ManagerPolicy ChurnPolicy() {
  ManagerPolicy policy;
  policy.update_trigger.incremental = true;
  policy.durability_checkpoint_every = 64;
  return policy;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

namespace {

std::unique_ptr<CatalogDurability> OpenDurability(StatsCatalog* catalog,
                                                  const std::string& dir,
                                                  StreamRun* run) {
  if (dir.empty()) return nullptr;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  Result<std::unique_ptr<CatalogDurability>> opened =
      CatalogDurability::Open(catalog, {.dir = dir});
  if (!opened.ok()) {
    ++run->durability_failures;
    return nullptr;
  }
  return std::move(*opened);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

int64_t HistogramCount(obs::Histogram* h) { return h->Snap().count; }

double HistogramSum(obs::Histogram* h) { return h->Snap().sum; }

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

// Latencies scaled to the nominal host speed (see HostSpeed).
std::vector<double> Normalized(const std::vector<Timing>& timings,
                               const HostSpeed& host) {
  std::vector<double> out;
  out.reserve(timings.size());
  for (const Timing& t : timings) {
    out.push_back(t.us * host.Scale(t.begin_us, t.begin_us + t.us));
  }
  return out;
}

}  // namespace

StreamRun ServeStream(Database* db, const Workload& stream,
                      const ManagerPolicy& policy, const std::string& wal_dir,
                      HostSpeed* host) {
  StreamRun run;
  ParallelInlineScope inline_probes;
  StatsCatalog catalog(db);
  Optimizer optimizer(db);
  AutoStatsManager manager(db, &catalog, &optimizer, policy);
  std::unique_ptr<CatalogDurability> durability =
      OpenDurability(&catalog, wal_dir, &run);
  manager.AttachDurability(durability.get());
  run.queries.reserve(stream.size());
  for (const Statement& s : stream.statements()) {
    if (host != nullptr) host->MaybeBurst();
    const double begin = NowUs();
    const AutoStatsManager::Outcome outcome = manager.Process(s);
    const double us = NowUs() - begin;
    (outcome.was_query ? run.queries : run.dmls).push_back({begin, us});
    run.busy_us += us;
    run.exec_units += outcome.exec_cost;
    run.stats_units += outcome.creation_cost + outcome.update_cost;
    run.durability_failures += outcome.durability_failures;
    if (outcome.degraded) ++run.degraded;
    ++run.statements;
  }
  if (durability != nullptr && !durability->Flush().ok()) {
    ++run.durability_failures;
  }
  manager.AttachDurability(nullptr);
  run.digest = CatalogDigest(catalog);
  return run;
}

StreamRun ReplayStream(Database* db, const Workload& stream,
                       const ManagerPolicy& policy,
                       const std::string& wal_dir, LayerStats* layers,
                       SpanLog* log, int track) {
  StreamRun run;
  if (policy.mode != CreationMode::kMnsaDOnTheFly &&
      policy.mode != CreationMode::kMnsaOnTheFly) {
    std::fprintf(stderr, "perfbench: replay supports MNSA policies only\n");
    std::exit(2);
  }
  const bool traced = layers != nullptr;
  ParallelInlineScope inline_probes;
  StatsCatalog catalog(db);
  Optimizer optimizer(db);
  const Executor executor(db, optimizer.cost_model());
  std::unique_ptr<CatalogDurability> durability =
      OpenDurability(&catalog, wal_dir, &run);
  MnsaConfig mnsa = policy.mnsa;
  mnsa.drop_detection = policy.mode == CreationMode::kMnsaDOnTheFly;
  DeltaStore* deltas =
      policy.update_trigger.incremental ? catalog.mutable_deltas() : nullptr;

  // Off the statement's critical path: a cache-off optimizer and a scratch
  // catalog re-time one real optimization and each statistic build.
  OptimizerConfig no_cache;
  no_cache.enable_plan_cache = false;
  const Optimizer real_optimizer(db, no_cache);
  StatsCatalog scratch(db);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  obs::Histogram* probe_real =
      registry.GetHistogram("probe_latency_real_us", obs::LatencyBoundsUs());
  obs::Histogram* probe_hit = registry.GetHistogram(
      "probe_latency_cache_hit_us", obs::LatencyBoundsUs());
  obs::Histogram* merge_cost =
      registry.GetHistogram("refresh_merge_cost", obs::CostBounds());
  obs::Histogram* fsync =
      registry.GetHistogram("wal_fsync_us", obs::LatencyBoundsUs());
  const std::string journal = wal_dir + "/journal.wal";
  std::set<StatKey> built;
  int since_checkpoint = 0;
  uint64_t stmt = 0;
  auto span = [&](const char* name, const char* category, double begin,
                  double end) {
    if (log != nullptr) log->Add({name, category, track, stmt, begin, end});
  };

  for (const Statement& s : stream.statements()) {
    ++stmt;
    const bool query = s.kind == Statement::Kind::kQuery;
    // Pre-call snapshots (traced only) are taken before the statement
    // span opens: none of them changes before the call they bracket.
    std::set<StatKey> drop_listed;
    std::map<StatKey, int> update_counts;
    double probe_before = 0.0;
    int64_t merges_before = 0;
    int64_t fsyncs_before = 0;
    double journal_before = 0.0;
    if (traced) {
      if (query) {
        for (const StatKey& k : catalog.DropListKeys()) drop_listed.insert(k);
        probe_before = HistogramSum(probe_real) + HistogramSum(probe_hit);
      } else {
        for (const StatKey& k : catalog.ActiveKeys()) {
          update_counts[k] = catalog.FindEntry(k)->update_count;
        }
        merges_before = HistogramCount(merge_cost);
      }
      fsyncs_before = HistogramCount(fsync);
      if (durability != nullptr) journal_before = FileBytes(journal);
    }
    const StatsFailureCounters failures_before = catalog.failure_counters();

    const double begin = NowUs();
    catalog.Tick();
    double t = NowUs();
    double self[kNumLayers] = {};
    self[static_cast<int>(Layer::kCore)] += t - begin;
    MnsaResult mnsa_result;
    double mnsa_us = 0.0, probe_us = 0.0;
    bool degraded = false;
    if (query) {
      mnsa_result = RunMnsa(optimizer, &catalog, s.query, mnsa);
      const double m1 = NowUs();
      mnsa_us = m1 - t;
      span("RunMnsa", "core", t, m1);
      if (traced) {
        probe_us = HistogramSum(probe_real) + HistogramSum(probe_hit) -
                   probe_before;
      }
      const OptimizeResult plan =
          optimizer.Optimize(s.query, StatsView(&catalog));
      const double o1 = NowUs();
      span("Optimize", "optimizer", m1, o1);
      const double work = executor.Execute(s.query, plan.plan).work_units;
      t = NowUs();
      span("Execute", "executor", o1, t);
      run.exec_units += work;
      run.stats_units += mnsa_result.creation_cost;
      degraded = mnsa_result.degraded;
      self[static_cast<int>(Layer::kOptimizer)] += probe_us + (o1 - m1);
      self[static_cast<int>(Layer::kExecutor)] += t - o1;
      if (traced) {
        layers->mnsa_us.push_back(mnsa_us);
        layers->mnsa_total_us += mnsa_us;
        layers->mnsa_iterations += mnsa_result.iterations;
        layers->mnsa_optimizer_calls += mnsa_result.optimizer_calls;
        layers->optimizer_us += probe_us + (o1 - m1);
        layers->execute_us.push_back(t - o1);
        layers->execute_total_us += t - o1;
        ++layers->queries;
      }
    } else {
      const double a0 = t;
      Result<size_t> applied = TryApplyDml(db, s.dml, deltas);
      const double a1 = NowUs();
      span("TryApplyDml", "executor", a0, a1);
      self[static_cast<int>(Layer::kExecutor)] += a1 - a0;
      t = a1;
      if (!applied.ok()) {
        degraded = true;
      } else {
        catalog.RecordModifications(s.dml.table, *applied);
        const double update_cost =
            catalog.RefreshIfTriggered(policy.update_trigger);
        const double r1 = NowUs();
        span("RefreshIfTriggered", "stats", t, r1);
        self[static_cast<int>(Layer::kStats)] += r1 - t;
        run.stats_units += update_cost;
        if (traced) {
          layers->refresh_us.push_back(r1 - t);
          layers->dml_apply_us.push_back(a1 - a0);
          layers->dml_rows += static_cast<int64_t>(*applied);
          for (const auto& [key, count] : update_counts) {
            const StatEntry* entry = catalog.FindEntry(key);
            if (entry != nullptr && entry->update_count > count) {
              layers->refreshes += entry->update_count - count;
            }
          }
          layers->merges += HistogramCount(merge_cost) - merges_before;
        }
        // The update-count drop rule, as AutoStatsManager applies it.
        const double d0 = NowUs();
        std::vector<StatKey> victims;
        const std::vector<StatKey> keys = policy.drop_only_drop_listed
                                              ? catalog.DropListKeys()
                                              : catalog.ActiveKeys();
        for (const StatKey& key : keys) {
          if (catalog.FindEntry(key)->update_count >
              policy.max_updates_before_drop) {
            victims.push_back(key);
          }
        }
        for (const StatKey& key : victims) catalog.PhysicallyDrop(key);
        EnforceDropListPolicy(&catalog, policy.drop_list);
        t = NowUs();
        span("DropPolicy", "core", d0, t);
        self[static_cast<int>(Layer::kCore)] += t - d0;
        if (traced) layers->drop_policy_us.push_back(t - d0);
      }
      if (traced) ++layers->dmls;
    }
    const StatsFailureCounters& failures_after = catalog.failure_counters();
    if (failures_after.builds_failed != failures_before.builds_failed ||
        failures_after.stale_fallbacks != failures_before.stale_fallbacks) {
      degraded = true;
    }

    if (durability != nullptr && !durability->crashed()) {
      const double c0 = NowUs();
      const Status committed = durability->CommitStatement();
      t = NowUs();
      span("CommitStatement", "stats", c0, t);
      self[static_cast<int>(Layer::kStats)] += t - c0;
      if (traced) layers->commit_us.push_back(t - c0);
      if (!committed.ok()) {
        ++run.durability_failures;
        degraded = true;
      } else if (policy.durability_checkpoint_every > 0 &&
                 ++since_checkpoint >= policy.durability_checkpoint_every) {
        const double k0 = t;
        const Status checkpointed = durability->Checkpoint();
        t = NowUs();
        span("Checkpoint", "stats", k0, t);
        self[static_cast<int>(Layer::kStats)] += t - k0;
        if (traced) layers->checkpoint_us.push_back(t - k0);
        if (checkpointed.ok()) {
          since_checkpoint = 0;
        } else {
          ++run.durability_failures;
          degraded = true;
        }
      }
    }
    const double end = t;
    span(query ? "query" : "dml", "statement", begin, end);
    run.busy_us += end - begin;
    ++run.statements;
    if (degraded) ++run.degraded;
    (query ? run.queries : run.dmls).push_back({begin, end - begin});
    if (!traced) continue;

    // After the span: re-time what RunMnsa nested, from outside.
    double build_us = 0.0;
    if (query) {
      for (const StatKey& key : mnsa_result.created) {
        if (drop_listed.count(key) > 0) continue;  // resurrection, no build
        const std::vector<ColumnRef> columns =
            catalog.FindEntry(key)->stat.columns();
        const double b0 = NowUs();
        scratch.CreateStatistic(columns);
        const double us = NowUs() - b0;
        scratch.PhysicallyDrop(key);
        layers->build_us.push_back(us);
        build_us += us;
        ++layers->stats_built;
        built.insert(key);
      }
      const double q0 = NowUs();
      real_optimizer.Optimize(s.query, StatsView(&catalog));
      layers->real_optimize_us.push_back(NowUs() - q0);
    }
    self[static_cast<int>(Layer::kCore)] +=
        std::max(0.0, mnsa_us - probe_us - build_us);
    self[static_cast<int>(Layer::kStats)] += build_us;
    layers->build_total_us += build_us;
    for (int l = 0; l < kNumLayers; ++l) layers->self_us[l] += self[l];
    layers->stmt_us += end - begin;
    layers->fsyncs += HistogramCount(fsync) - fsyncs_before;
    if (durability != nullptr) {
      const double after = FileBytes(journal);
      // A checkpoint swaps in a fresh journal; count only growth.
      if (after > journal_before) layers->wal_bytes += after - journal_before;
    }
  }
  if (durability != nullptr && !durability->Flush().ok()) {
    ++run.durability_failures;
  }
  if (traced) {
    layers->optimizer_calls += optimizer.num_calls();
    layers->optimizer_real_calls += optimizer.num_real_calls();
    for (const StatKey& key : built) {
      if (catalog.HasActive(key)) ++layers->stats_kept;
    }
  }
  run.digest = CatalogDigest(catalog);
  return run;
}

void ReportLayers(const LayerStats& l, double untraced_us, RunResult* result) {
  std::printf("per-layer self time inside statements (traced replay, %lld "
              "queries, %lld DML):\n",
              static_cast<long long>(l.queries),
              static_cast<long long>(l.dmls));
  double attributed = 0.0;
  for (int i = 0; i < kNumLayers; ++i) {
    attributed += l.self_us[i];
    std::printf("  %-10s %12.1f ms  %6.1f%%\n",
                LayerName(static_cast<Layer>(i)), l.self_us[i] / 1000.0,
                100.0 * Ratio(l.self_us[i], l.stmt_us));
  }
  // Re-timed builds and probe-latency sums are measured apart from the
  // statement span, so this residual can be slightly negative.
  std::printf("  %-10s %12.1f ms  %6.1f%%\n", "(residual)",
              (l.stmt_us - attributed) / 1000.0,
              100.0 * Ratio(l.stmt_us - attributed, l.stmt_us));
  const double statements = static_cast<double>(l.queries + l.dmls);
  const int64_t created = l.stats_built;
  result->Add("core.mnsa_ms_p50", Percentile(l.mnsa_us, 0.5) / 1000.0, "ms");
  result->Add("core.mnsa_share", Ratio(l.mnsa_total_us, l.stmt_us), "frac");
  result->Add("core.mnsa_iterations_per_query",
              Ratio(static_cast<double>(l.mnsa_iterations),
                    static_cast<double>(l.queries)),
              "count");
  result->Add("core.stats_created", static_cast<double>(created), "count");
  result->Add("core.kept_frac",
              Ratio(static_cast<double>(l.stats_kept),
                    static_cast<double>(created)),
              "frac");
  result->Add("core.optimizer_calls_per_stat",
              Ratio(static_cast<double>(l.mnsa_optimizer_calls),
                    static_cast<double>(created)),
              "count");
  result->Add("core.drop_policy_us_p50", Percentile(l.drop_policy_us, 0.5),
              "us");
  result->Add("optimizer.calls", static_cast<double>(l.optimizer_calls),
              "count");
  result->Add("optimizer.real_calls",
              static_cast<double>(l.optimizer_real_calls), "count");
  result->Add("optimizer.cache_hit_frac",
              1.0 - Ratio(static_cast<double>(l.optimizer_real_calls),
                          static_cast<double>(l.optimizer_calls)),
              "frac");
  result->Add("optimizer.busy_share", Ratio(l.optimizer_us, l.stmt_us),
              "frac");
  result->Add("optimizer.optimize_us_p50",
              Percentile(l.real_optimize_us, 0.5), "us");
  result->Add("stats.build_us_p50", Percentile(l.build_us, 0.5), "us");
  result->Add("stats.build_share", Ratio(l.build_total_us, l.stmt_us), "frac");
  result->Add("stats.build_per_optimize",
              Ratio(Mean(l.build_us), Mean(l.real_optimize_us)), "ratio");
  result->Add("stats.refresh_us_p99", Percentile(l.refresh_us, 0.99), "us");
  result->Add("stats.refreshes", static_cast<double>(l.refreshes), "count");
  result->Add("stats.merge_frac",
              Ratio(static_cast<double>(l.merges),
                    static_cast<double>(l.refreshes)),
              "frac");
  result->Add("stats.wal_commit_us_p50", Percentile(l.commit_us, 0.5), "us");
  result->Add("stats.fsyncs_per_stmt",
              Ratio(static_cast<double>(l.fsyncs), statements), "count");
  result->Add("stats.checkpoint_ms_p50",
              Percentile(l.checkpoint_us, 0.5) / 1000.0, "ms");
  result->Add("stats.checkpoints", static_cast<double>(l.checkpoint_us.size()),
              "count");
  result->Add("stats.wal_bytes_per_stmt", Ratio(l.wal_bytes, statements), "B");
  result->Add("executor.execute_ms_p50", Percentile(l.execute_us, 0.5) / 1000.0,
              "ms");
  result->Add("executor.execute_share", Ratio(l.execute_total_us, l.stmt_us),
              "frac");
  result->Add("executor.dml_us_p50", Percentile(l.dml_apply_us, 0.5), "us");
  result->Add("executor.rows_per_dml",
              Ratio(static_cast<double>(l.dml_rows),
                    static_cast<double>(l.dmls)),
              "count");
  result->Add("obs.trace_overhead_frac", Ratio(l.stmt_us, untraced_us) - 1.0,
              "frac");
}

namespace {

std::vector<double> RawUs(const std::vector<Timing>& timings) {
  std::vector<double> us;
  for (const Timing& t : timings) us.push_back(t.us);
  return us;
}

double SumUs(const std::vector<double>& us) {
  return std::accumulate(us.begin(), us.end(), 0.0);
}

// "; raw <value>" when the host-speed scaling applies, else empty.
std::string RawNote(const HostSpeed& host, double raw) {
  return host.samples() > 0 ? "; raw " + std::to_string(raw) : "";
}

void AddLatency(const std::string& prefix, const std::vector<Timing>& raw,
                const HostSpeed& host, bool gated, RunResult* result) {
  if (raw.empty()) {
    std::printf("  %-32s %14s\n", (prefix + "_p50_ms / _tail_ms").c_str(),
                "n/a (none)");
    return;
  }
  const std::vector<double> us = Normalized(raw, host);
  const std::vector<double> raw_us = RawUs(raw);
  const double p50 = Percentile(us, 0.5) / 1000.0;
  const double tail = Percentile(us, kTailQuantile) / 1000.0;
  const std::string n = "n=" + std::to_string(us.size());
  Line(prefix + "_p50_ms", p50, "ms",
       n + RawNote(host, Percentile(raw_us, 0.5) / 1000.0));
  Line(prefix + "_tail_ms", tail, "ms",
       QuantileLabel(kTailQuantile) + ", " + n +
           RawNote(host, Percentile(raw_us, kTailQuantile) / 1000.0));
  if (us.size() < kMinTailSamples) {
    std::printf("  WARNING: %s p99 from fewer than %zu samples (run longer)\n",
                prefix.c_str(), kMinTailSamples);
  }
  // The tail is printed, not gated: on tenant_fleet, checkpoint stalls on
  // the shared disk set it, and over ten seeds its spread (IQR / median)
  // was 0.28, above the largest regression bound a gate may use.
  if (gated) result->Add(prefix + "_p50_ms", p50, "ms");
}

}  // namespace

void ReportEndToEnd(const EndToEnd& e, const HostSpeed& host, bool gated,
                    RunResult* result) {
  std::printf("end-to-end (untraced; latency from %s):\n",
              e.latency_from.c_str());
  if (host.samples() > 0) {
    std::printf("  timings at the nominal host speed: kernel median %.1f us "
                "over %zu samples, nominal %.0f us\n",
                host.MedianUs(), host.samples(), HostSpeed::kNominalUs);
  } else {
    std::printf("  timings are raw wall time\n");
  }
  AddLatency("query", e.queries, host, gated, result);
  // DML latency is reported, not gated: adhoc_cold has no DML, and every
  // gated metric exists (and is non-zero) on every workload.
  AddLatency("dml", e.dmls, host, false, result);
  const double statements = static_cast<double>(e.capacity_statements);
  const double throughput =
      statements / (SumUs(Normalized(e.capacity_busy, host)) / 1e6);
  Line("throughput_sps", throughput, "1/s",
       e.capacity_note +
           RawNote(host, statements / (SumUs(RawUs(e.capacity_busy)) / 1e6)));
  Line("exec_work_units", e.exec_units, "units");
  Line("stats_cost_units", e.stats_units, "units");
  const double error_frac = static_cast<double>(result->failed) /
                            static_cast<double>(result->attempted);
  Line("error_frac", error_frac, "frac",
       std::to_string(result->failed) + " of " +
           std::to_string(result->attempted) + " statements");
  const double setup = Percentile(Normalized(e.setups, host), 0.5) / 1e6;
  Line("setup_s", setup, "s",
       "median of " + std::to_string(e.setups.size()) +
           RawNote(host, Percentile(RawUs(e.setups), 0.5) / 1e6));
  const double rss = PeakRssMb();
  Line("rss_mb", rss, "MB", "peak");
  if (result->failed > 0) {
    std::printf("ERRORS: %lld of %lld statements refused, shed, degraded or "
                "not durable\n",
                static_cast<long long>(result->failed),
                static_cast<long long>(result->attempted));
  }
  if (!gated) return;
  result->Add("throughput_sps", throughput, "1/s");
  result->Add("exec_work_units", e.exec_units, "units");
  result->Add("stats_cost_units", e.stats_units, "units");
  result->Add("setup_s", setup, "s");
  result->Add("rss_mb", rss, "MB");
}

namespace {

// Timed set-ups per run; setup_s reports their median.
constexpr int kSetups = 9;
// The paper's TPCD_MIX instance (the repo's default dbgen seed): the
// benchmark seed varies the statement streams, not the data.
constexpr uint64_t kDbSeed = 42;

struct EngineSpec {
  const char* name;
  double scale_factor;
  double update_fraction;
  rags::Complexity complexity;
  bool durable;
  ManagerPolicy policy;
  // Independent streams, each served on a fresh catalog (and, with DML, a
  // fresh database), each with its own seed derived from the run's seed.
  int streams;
  int statements_per_stream;
};

// Many short streams per run, not one long one: a Rags DML inserts or
// deletes 2% of its table, so over one long stream each table's size
// follows a random walk (about +-30% after 5,000 statements), and sums
// and latencies differed by 20-30% between seeds. Averaging over
// independent streams keeps the run-to-run spread of a metric small when
// every run uses another seed.
constexpr int kStreamsPerSecond = 1;

std::unique_ptr<Database> BuildDb(double scale_factor) {
  return std::make_unique<Database>(
      tpcd::BuildTpcdVariant("TPCD_MIX", scale_factor, kDbSeed));
}

Workload MakeStream(const Database& db, const EngineSpec& spec,
                    uint64_t seed) {
  rags::RagsConfig config;
  config.num_statements = spec.statements_per_stream;
  config.update_fraction = spec.update_fraction;
  config.complexity = spec.complexity;
  config.seed = seed;
  config.join_edges = tpcd::TpcdForeignKeys(db);
  return rags::Generate(db, config);
}

RunResult RunEngine(const EngineSpec& spec, const Options& o) {
  RunResult result;
  const std::string wal_root = o.work_dir + "/wal-" + std::to_string(getpid());
  RemoveTree(wal_root);
  const bool has_dml = spec.update_fraction > 0.0;
  HostSpeed host;

  // Set-up: build the database and the serving objects, kSetups times.
  // Stream generation (from the first database) is outside the timer.
  std::vector<Timing> setups;
  std::unique_ptr<Database> db;
  std::vector<Workload> streams;
  host.Burst();
  for (int i = 0; i < kSetups; ++i) {
    const double begin = NowUs();
    std::unique_ptr<Database> fresh = BuildDb(spec.scale_factor);
    double elapsed_us = 0.0;
    {
      StatsCatalog catalog(fresh.get());
      Optimizer optimizer(fresh.get());
      AutoStatsManager manager(fresh.get(), &catalog, &optimizer, spec.policy);
      StreamRun ignored;
      std::unique_ptr<CatalogDurability> durability = OpenDurability(
          &catalog, spec.durable ? wal_root + "/setup" + std::to_string(i) : "",
          &ignored);
      manager.AttachDurability(durability.get());
      elapsed_us = NowUs() - begin;
      manager.AttachDurability(nullptr);
    }
    setups.push_back({begin, elapsed_us});
    host.Burst();
    db = std::move(fresh);
    if (i == 0) {
      for (int k = 0; k < spec.streams; ++k) {
        streams.push_back(MakeStream(*db, spec, MixSeed(o.seed, k)));
      }
    }
  }

  std::printf("perfbench %s: seed %llu, %d stream(s) x %d statements, %s\n",
              spec.name, static_cast<unsigned long long>(o.seed),
              spec.streams, spec.statements_per_stream,
              spec.durable ? "durable (fsync per statement)" : "in-memory");

  // Timed run: every instrument of the program off. DML mutates the data,
  // so a stream with DML starts from a fresh copy of the database.
  std::vector<StreamRun> runs;
  for (int k = 0; k < spec.streams; ++k) {
    if (has_dml && k > 0) db = BuildDb(spec.scale_factor);
    runs.push_back(ServeStream(
        db.get(), streams[k], spec.policy,
        spec.durable ? wal_root + "/serve" + std::to_string(k) : "", &host));
  }
  host.Burst();

  // Correctness: the layer-call replay must reach the timed run's catalog
  // digest and bit-identical cost sums. The timed run checks its first
  // stream; the traced run replays (and traces) every stream.
  LayerStats layers;
  SpanLog log;
  const int checked = o.trace ? spec.streams : 1;
  double untraced_us = 0.0;
  if (o.trace) {
    obs::MetricsRegistry::Instance().ResetAll();
    obs::EnableMetrics(true);
  }
  for (int k = 0; k < checked; ++k) {
    std::unique_ptr<Database> replay_db;
    if (has_dml) replay_db = BuildDb(spec.scale_factor);
    const StreamRun replay = ReplayStream(
        replay_db != nullptr ? replay_db.get() : db.get(), streams[k],
        spec.policy,
        o.trace && spec.durable ? wal_root + "/replay" + std::to_string(k)
                                : "",
        o.trace ? &layers : nullptr, o.trace ? &log : nullptr, k + 1);
    untraced_us += runs[k].busy_us;
    if (replay.digest != runs[k].digest) {
      result.Fail("stream " + std::to_string(k) +
                  ": replay catalog digest differs from the timed run");
    }
    if (replay.exec_units != runs[k].exec_units ||
        replay.stats_units != runs[k].stats_units) {
      result.Fail("stream " + std::to_string(k) +
                  ": replay cost sums differ from the timed run");
    }
  }
  obs::EnableMetrics(false);
  RemoveTree(wal_root);

  EndToEnd e2e;
  e2e.latency_from = "the Process() call";
  e2e.capacity_note = "statements / sum of statement latency";
  e2e.setups = setups;
  for (const StreamRun& r : runs) {
    e2e.queries.insert(e2e.queries.end(), r.queries.begin(), r.queries.end());
    e2e.dmls.insert(e2e.dmls.end(), r.dmls.begin(), r.dmls.end());
    e2e.exec_units += r.exec_units;
    e2e.stats_units += r.stats_units;
    result.attempted += r.statements;
    result.failed += r.degraded + r.durability_failures;
  }
  e2e.capacity_statements = result.attempted;
  e2e.capacity_busy = e2e.queries;
  e2e.capacity_busy.insert(e2e.capacity_busy.end(), e2e.dmls.begin(),
                           e2e.dmls.end());
  std::printf("catalog digest (stream 0): %08x, replay checked on %d "
              "stream(s)\n",
              runs.front().digest, checked);
  ReportEndToEnd(e2e, host, !o.trace, &result);
  if (o.trace) {
    AddServerZeros(&result);
    ReportLayers(layers, untraced_us, &result);
    const std::string path = o.work_dir + "/traces/" + spec.name + ".seed" +
                             std::to_string(o.seed) + ".json";
    std::error_code ec;
    std::filesystem::create_directories(o.work_dir + "/traces", ec);
    if (log.WriteChromeJson(path, spec.name)) {
      std::printf("trace: %zu spans -> %s\n", log.size(), path.c_str());
    } else {
      result.Fail("cannot write " + path);
    }
  }
  return result;
}

}  // namespace

RunResult RunAdhocCold(const Options& o) {
  EngineSpec spec{};
  spec.name = "adhoc_cold";
  spec.scale_factor = 0.001;
  spec.update_fraction = 0.0;
  spec.complexity = rags::Complexity::kComplex;
  spec.durable = false;
  spec.policy = ManagerPolicy();
  spec.streams = o.seconds * kStreamsPerSecond;
  spec.statements_per_stream = 150;
  return RunEngine(spec, o);
}

RunResult RunUpdateChurn(const Options& o) {
  EngineSpec spec{};
  spec.name = "update_churn";
  spec.scale_factor = 0.01;
  spec.update_fraction = 0.5;
  spec.complexity = rags::Complexity::kSimple;
  spec.durable = true;
  spec.policy = ChurnPolicy();
  spec.streams = o.seconds * kStreamsPerSecond;
  spec.statements_per_stream = 500;
  return RunEngine(spec, o);
}

}  // namespace perfbench
