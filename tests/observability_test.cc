// The observability subsystem (src/obs): metrics correctness, trace
// determinism, and the zero-overhead disabled contract.
//  1. Instruments: counter/gauge/histogram arithmetic, percentile
//     interpolation, name-ordered snapshots, Prometheus exposition.
//  2. BenchJson: escaped output, and AddRunReport covering every
//     RunReport field (with a struct-size tripwire so a new field
//     cannot be added without updating the exporters).
//  3. Trace determinism: two JSONL traces of the same MNSA/D managed
//     run are byte-identical — fault-free and with failure schedules
//     armed.
//  4. Disabled mode: zero events, zero heap allocations on the
//     instrumented paths (pinned with a counting global operator new).
//  5. WAL lifecycle events: commit / checkpoint / recovery show up in
//     the trace with the expected payloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/fault.h"
#include "common/str_util.h"
#include "core/auto_manager.h"
#include "core/report.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/autostats_server.h"
#include "stats/durability.h"
#include "stats/stats_catalog.h"
#include "tests/test_util.h"

// Counting global allocator (for the zero-allocation contract).
#include "tests/counting_new.h"

namespace autostats {
namespace {

using testing::MakeFilterQuery;
using testing::MakeJoinQuery;
using testing::MakeTwoTableDb;
using testing::TwoTableDb;

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::Instance().ResetAll();
    obs::TraceSink::Instance().Clear();
    obs::TraceSink::Instance().SetLogicalClock(0);
  }
  void TearDown() override {
    obs::EnableMetrics(false);
    obs::EnableTrace(false);
    obs::MetricsRegistry::Instance().ResetAll();
    obs::TraceSink::Instance().Clear();
    FaultInjector::Instance().Reset();
  }
};

// --- 1. Instruments -------------------------------------------------

TEST_F(ObservabilityTest, CounterAndGaugeArithmetic) {
  obs::Counter* c = obs::MetricsRegistry::Instance().GetCounter("t.counter");
  obs::Gauge* g = obs::MetricsRegistry::Instance().GetGauge("t.gauge");
  c->Reset();
  g->Reset();
  c->Add();
  c->Add(41);
  g->Set(7);
  g->Set(-3);
  EXPECT_EQ(c->Value(), 42);
  EXPECT_EQ(g->Value(), -3);
  // Get-or-register returns the same instrument.
  EXPECT_EQ(obs::MetricsRegistry::Instance().GetCounter("t.counter"), c);
  obs::MetricsRegistry::Instance().ResetAll();
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(g->Value(), 0);
}

TEST_F(ObservabilityTest, HistogramBucketsSumAndPercentiles) {
  obs::Histogram h({1.0, 2.0, 4.0, 8.0});
  h.Observe(0.5);   // bucket 0 (<= 1)
  h.Observe(1.0);   // bucket 0 (edges are inclusive)
  h.Observe(3.0);   // bucket 2
  h.Observe(100.0); // overflow bucket
  const obs::Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 4);
  EXPECT_DOUBLE_EQ(s.sum, 104.5);
  ASSERT_EQ(s.buckets.size(), 5u);
  EXPECT_EQ(s.buckets[0], 2);
  EXPECT_EQ(s.buckets[1], 0);
  EXPECT_EQ(s.buckets[2], 1);
  EXPECT_EQ(s.buckets[3], 0);
  EXPECT_EQ(s.buckets[4], 1);
  EXPECT_DOUBLE_EQ(s.Mean(), 104.5 / 4.0);
  // p50: target 2 of 4, lands on the last of bucket 0 -> interpolates
  // to that bucket's upper edge.
  EXPECT_DOUBLE_EQ(s.Percentile(0.50), 1.0);
  // p75: third observation, bucket (2,4], halfway -> 4.0 (frac = 1).
  EXPECT_DOUBLE_EQ(s.Percentile(0.75), 4.0);
  // The overflow bucket has no upper edge; its percentile reports the
  // last finite edge, never invents a value.
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 8.0);
  h.Reset();
  EXPECT_EQ(h.Snap().count, 0);
  EXPECT_DOUBLE_EQ(h.Snap().Percentile(0.5), 0.0);
}

TEST_F(ObservabilityTest, ExponentialBoundsAndStandardEdges) {
  EXPECT_EQ(obs::ExponentialBounds(1, 2, 4),
            (std::vector<double>{1, 2, 4, 8}));
  EXPECT_EQ(obs::LinearBounds(1, 1, 4), (std::vector<double>{1, 2, 3, 4}));
  EXPECT_EQ(obs::LinearBounds(2, 3, 3), (std::vector<double>{2, 5, 8}));
  EXPECT_EQ(obs::LatencyBoundsUs().size(), 27u);
  EXPECT_EQ(obs::CostBounds().size(), 11u);
  EXPECT_DOUBLE_EQ(obs::LatencyBoundsUs().front(), 1.0);
  EXPECT_DOUBLE_EQ(obs::LatencyBoundsUs().back(), 67108864.0);  // 2^26
  EXPECT_DOUBLE_EQ(obs::CostBounds().back(), 1048576.0);  // 4^10
}

// A one-second wait (a saturated server queue) lands in a bucket, not in
// the overflow tail, so its percentile is not clamped to the top edge.
TEST_F(ObservabilityTest, LatencyBoundsCoverOneSecond) {
  obs::Histogram h(obs::LatencyBoundsUs());
  h.Observe(1e6);
  EXPECT_EQ(h.Overflow(), 0);
  EXPECT_GT(h.Snap().Percentile(0.99), 65536.0);
}

TEST_F(ObservabilityTest, SnapshotsAreNameOrdered) {
  auto& reg = obs::MetricsRegistry::Instance();
  reg.GetCounter("t.zz");
  reg.GetCounter("t.aa");
  std::string prev;
  for (const auto& [name, value] : reg.CounterValues()) {
    EXPECT_LE(prev, name);
    prev = name;
  }
}

TEST_F(ObservabilityTest, PrometheusTextExposition) {
  auto& reg = obs::MetricsRegistry::Instance();
  reg.GetCounter("prom.hits")->Add(3);
  reg.GetGauge("prom.size")->Set(9);
  obs::Histogram* h = reg.GetHistogram("prom.lat-us", {1.0, 2.0});
  h->Observe(0.5);
  h->Observe(1.5);
  const std::string text = reg.PrometheusText();
  // Dots and dashes are mangled to underscores.
  EXPECT_NE(text.find("# TYPE prom_hits counter\nprom_hits 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE prom_size gauge\nprom_size 9\n"),
            std::string::npos);
  // Buckets are cumulative and capped by the +Inf row == _count.
  EXPECT_NE(text.find("prom_lat_us_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("prom_lat_us_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("prom_lat_us_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("prom_lat_us_count 2\n"), std::string::npos);
}

TEST_F(ObservabilityTest, HistogramCountsOverflowObservations) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);
  h.Observe(4.0);   // edges are inclusive: NOT overflow
  h.Observe(4.1);   // past the last edge
  h.Observe(100.0);
  EXPECT_EQ(h.Overflow(), 2);
  const obs::Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.overflow, 2);
  // The overflow bucket itself still carries the observations; the
  // counter just makes a clipped distribution visible at a glance.
  EXPECT_EQ(s.buckets.back(), 2);
  EXPECT_EQ(s.count, 4);
  h.Reset();
  EXPECT_EQ(h.Overflow(), 0);
  EXPECT_EQ(h.Snap().overflow, 0);
}

// Tenant-scoped series ("<tenant>/<name>", minted by ScopedMetricsLabel)
// are exposed under the sanitized base name with a tenant label — a '/'
// never reaches a Prometheus metric name, and label values are escaped.
TEST_F(ObservabilityTest, PrometheusExpositionRewritesTenantScopedNames) {
  auto& reg = obs::MetricsRegistry::Instance();
  reg.GetCounter("srv.hits")->Add(5);
  reg.GetCounter("t03/srv.hits")->Add(7);
  reg.GetCounter("te\"n\\a/srv.hits")->Add(1);  // hostile tenant name
  obs::Histogram* h = reg.GetHistogram("t03/srv.lat-us", {1.0});
  h->Observe(0.5);
  h->Observe(9.0);  // overflow
  const std::string text = reg.PrometheusText();
  // Unlabeled and labeled samples share the sanitized base name; one
  // TYPE line covers the group.
  EXPECT_NE(text.find("# TYPE srv_hits counter"), std::string::npos);
  EXPECT_NE(text.find("srv_hits 5\n"), std::string::npos);
  EXPECT_NE(text.find("srv_hits{tenant=\"t03\"} 7\n"), std::string::npos);
  // The quote and backslash in the tenant name arrive escaped.
  EXPECT_NE(text.find("srv_hits{tenant=\"te\\\"n\\\\a\"} 1\n"),
            std::string::npos);
  // Histogram expansion keeps the label on every row, overflow included.
  EXPECT_NE(text.find("srv_lat_us_bucket{tenant=\"t03\",le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("srv_lat_us_count{tenant=\"t03\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("srv_lat_us_overflow{tenant=\"t03\"} 1\n"),
            std::string::npos);
  // No '/' survives in any exposed metric-name line.
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    EXPECT_EQ(line.substr(0, name_end).find('/'), std::string::npos) << line;
  }
}

TEST_F(ObservabilityTest, ScopedLatencyRespectsEnabledFlag) {
  obs::Histogram h({1e9});
  { obs::ScopedLatency t(&h); }  // disabled: records nothing
  EXPECT_EQ(h.Snap().count, 0);
  obs::EnableMetrics(true);
  { obs::ScopedLatency t(&h); }
  obs::EnableMetrics(false);
  EXPECT_EQ(h.Snap().count, 1);
  EXPECT_GE(h.Snap().sum, 0.0);
}

// --- 2. BenchJson + RunReport exporters ------------------------------

// Reads the whole BENCH_<name>.json the exporter wrote under `dir`.
std::string ReadBenchFile(const std::string& dir, const std::string& name) {
  std::ifstream f(dir + "/BENCH_" + name + ".json");
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST_F(ObservabilityTest, JsonEscapeCoversControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string("nul\x01") + "x"), "nul\\u0001x");
}

TEST_F(ObservabilityTest, BenchJsonWriteEscapesStrings) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "obs_bench_json").string();
  std::filesystem::create_directories(dir);
  setenv("AUTOSTATS_BENCH_JSON_DIR", dir.c_str(), 1);
  {
    bench::BenchJson json("escaping");
    json.Add("label", "he said \"hi\"\nand \\left");
    json.Write();
  }
  unsetenv("AUTOSTATS_BENCH_JSON_DIR");
  const std::string text = ReadBenchFile(dir, "escaping");
  ASSERT_FALSE(text.empty());
  // The quote, newline, and backslash must appear escaped — the file
  // stays one parseable JSON object.
  EXPECT_NE(text.find("he said \\\"hi\\\"\\nand \\\\left"),
            std::string::npos);
  // The raw (unescaped) quote and newline must NOT survive into the
  // value: that was the pre-fix corruption.
  EXPECT_EQ(text.find("he said \"hi\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

// RunReport with every field set to a distinct value (base, base+1, ...)
// in declaration order.
RunReport DistinctReport(double base) {
  RunReport r;
  r.label = "distinct";
  r.exec_cost = base + 0;
  r.creation_cost = base + 1;
  r.update_cost = base + 2;
  r.optimizer_calls = static_cast<int64_t>(base) + 3;
  r.stats_created = static_cast<int64_t>(base) + 4;
  r.stats_dropped = static_cast<int64_t>(base) + 5;
  r.num_queries = static_cast<int64_t>(base) + 6;
  r.num_dml = static_cast<int64_t>(base) + 7;
  r.builds_failed = static_cast<int64_t>(base) + 8;
  r.build_retries = static_cast<int64_t>(base) + 9;
  r.probes_aborted = static_cast<int64_t>(base) + 10;
  r.dml_retries = static_cast<int64_t>(base) + 11;
  r.degraded_queries = static_cast<int64_t>(base) + 12;
  r.degraded_dml = static_cast<int64_t>(base) + 13;
  r.durability_failures = static_cast<int64_t>(base) + 14;
  return r;
}

// Tripwire: adding a field to RunReport changes its size, and this
// assert then forces whoever adds it to extend operator+=,
// FormatReport, BenchJson::AddRunReport, and the field lists below.
static_assert(sizeof(RunReport) == sizeof(std::string) + 3 * sizeof(double) +
                                       12 * sizeof(int64_t),
              "RunReport field set changed: update operator+=, FormatReport, "
              "BenchJson::AddRunReport, and observability_test");

TEST_F(ObservabilityTest, RunReportAccumulatesEveryField) {
  RunReport a = DistinctReport(100);
  const RunReport b = DistinctReport(1000);
  a += b;
  EXPECT_DOUBLE_EQ(a.exec_cost, 1100);
  EXPECT_DOUBLE_EQ(a.creation_cost, 1102);
  EXPECT_DOUBLE_EQ(a.update_cost, 1104);
  EXPECT_EQ(a.optimizer_calls, 1106);
  EXPECT_EQ(a.stats_created, 1108);
  EXPECT_EQ(a.stats_dropped, 1110);
  EXPECT_EQ(a.num_queries, 1112);
  EXPECT_EQ(a.num_dml, 1114);
  EXPECT_EQ(a.builds_failed, 1116);
  EXPECT_EQ(a.build_retries, 1118);
  EXPECT_EQ(a.probes_aborted, 1120);
  EXPECT_EQ(a.dml_retries, 1122);
  EXPECT_EQ(a.degraded_queries, 1124);
  EXPECT_EQ(a.degraded_dml, 1126);
  EXPECT_EQ(a.durability_failures, 1128);
}

TEST_F(ObservabilityTest, FormatReportRendersFailureAccounting) {
  const std::string clean = FormatReport(RunReport{});
  EXPECT_EQ(clean.find("failed="), std::string::npos);
  EXPECT_EQ(clean.find("durability_failures="), std::string::npos);
  const std::string faulted = FormatReport(DistinctReport(1));
  EXPECT_NE(faulted.find("failed=9"), std::string::npos);
  EXPECT_NE(faulted.find("retries=10"), std::string::npos);
  EXPECT_NE(faulted.find("aborted_probes=11"), std::string::npos);
  EXPECT_NE(faulted.find("dml_retries=12"), std::string::npos);
  EXPECT_NE(faulted.find("degraded=13+14"), std::string::npos);
  EXPECT_NE(faulted.find("durability_failures=15"), std::string::npos);
}

TEST_F(ObservabilityTest, AddRunReportExportsEveryField) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "obs_runreport_json")
          .string();
  std::filesystem::create_directories(dir);
  setenv("AUTOSTATS_BENCH_JSON_DIR", dir.c_str(), 1);
  {
    bench::BenchJson json("runreport");
    json.AddRunReport("r", DistinctReport(20));
    json.Write();
  }
  unsetenv("AUTOSTATS_BENCH_JSON_DIR");
  const std::string text = ReadBenchFile(dir, "runreport");
  ASSERT_FALSE(text.empty());
  const char* expected[] = {
      "\"r_exec_cost\": 20",       "\"r_creation_cost\": 21",
      "\"r_update_cost\": 22",     "\"r_optimizer_calls\": 23",
      "\"r_stats_created\": 24",   "\"r_stats_dropped\": 25",
      "\"r_num_queries\": 26",     "\"r_num_dml\": 27",
      "\"r_builds_failed\": 28",   "\"r_build_retries\": 29",
      "\"r_probes_aborted\": 30",  "\"r_dml_retries\": 31",
      "\"r_degraded_queries\": 32", "\"r_degraded_dml\": 33",
      "\"r_durability_failures\": 34",
  };
  for (const char* field : expected) {
    EXPECT_NE(text.find(field), std::string::npos) << field;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ObservabilityTest, AddMetricsExportsHistogramPercentiles) {
  obs::MetricsRegistry::Instance().GetCounter("exp.calls")->Add(5);
  obs::Histogram* h =
      obs::MetricsRegistry::Instance().GetHistogram("exp.cost", {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5.0);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "obs_metrics_json").string();
  std::filesystem::create_directories(dir);
  setenv("AUTOSTATS_BENCH_JSON_DIR", dir.c_str(), 1);
  {
    bench::BenchJson json("metrics");
    json.AddMetrics("obs");
    json.Write();
  }
  unsetenv("AUTOSTATS_BENCH_JSON_DIR");
  const std::string text = ReadBenchFile(dir, "metrics");
  EXPECT_NE(text.find("\"obs_exp.calls\": 5"), std::string::npos);
  EXPECT_NE(text.find("\"obs_exp.cost_count\": 2"), std::string::npos);
  EXPECT_NE(text.find("\"obs_exp.cost_p50\""), std::string::npos);
  EXPECT_NE(text.find("\"obs_exp.cost_p99\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

// --- 3. Trace determinism across runs -------------------------------

// The fault_injection_test workload shape: queries + DML sized so
// creation, refresh triggering, probes, and drop detection all fire.
Workload MixedWorkload(const TwoTableDb& t) {
  Workload w("traced");
  w.AddQuery(MakeFilterQuery(t, 30));
  w.AddQuery(MakeJoinQuery(t, 60));
  DmlStatement insert;
  insert.kind = DmlKind::kInsert;
  insert.table = t.fact;
  insert.row_count = 400;
  insert.seed = 7;
  w.AddDml(insert);
  w.AddQuery(MakeFilterQuery(t, 80, /*group=*/true));
  DmlStatement update;
  update.kind = DmlKind::kUpdate;
  update.table = t.fact;
  update.update_column = t.fact_val.column;
  update.row_count = 300;
  update.seed = 11;
  w.AddDml(update);
  w.AddQuery(MakeJoinQuery(t, 20));
  return w;
}

// One traced MNSA/D run; returns the exact JSONL bytes.
std::string TracedRun() {
  TwoTableDb t = MakeTwoTableDb(4000, 100);
  StatsCatalog catalog(&t.db);
  Optimizer optimizer(&t.db);
  ManagerPolicy policy;
  policy.mode = CreationMode::kMnsaDOnTheFly;
  policy.update_trigger.fraction = 0.01;
  policy.update_trigger.floor = 1;
  policy.update_trigger.incremental = true;
  AutoStatsManager manager(&t.db, &catalog, &optimizer, policy);
  obs::TraceSink& sink = obs::TraceSink::Instance();
  sink.Clear();
  sink.SetLogicalClock(0);
  obs::EnableTrace(true);
  manager.Run(MixedWorkload(t));
  obs::EnableTrace(false);
  return sink.Dump();
}

TEST_F(ObservabilityTest, TraceIsByteIdenticalAcrossRuns) {
  const std::string t1 = TracedRun();
  const std::string t2 = TracedRun();
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  // The run produced the load-bearing event types.
  EXPECT_NE(t1.find("\"type\":\"stmt\""), std::string::npos);
  EXPECT_NE(t1.find("\"type\":\"mnsa.probe_pair\""), std::string::npos);
  EXPECT_NE(t1.find("\"type\":\"stat.create\""), std::string::npos);
}

TEST_F(ObservabilityTest, TraceIsByteIdenticalWithFaultsArmed) {
  auto arm = [] {
    FaultSchedule create_fail;
    create_fail.nth = 2;
    create_fail.count = 1;
    FaultInjector::Instance().Arm(faults::kStatsCreate, create_fail);
    FaultSchedule probe_fail;
    probe_fail.nth = 3;
    probe_fail.count = 2;
    FaultInjector::Instance().Arm(faults::kOptimizerProbe, probe_fail);
  };
  arm();
  const std::string t1 = TracedRun();
  arm();  // re-arm so the hit counters restart from zero
  const std::string t2 = TracedRun();
  FaultInjector::Instance().Reset();
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  EXPECT_NE(t1.find("\"type\":\"fault.fire\""), std::string::npos);
  EXPECT_NE(t1.find("\"point\":\"stats.create\""), std::string::npos);
}

// --- 4. Disabled mode: zero events, zero allocations ------------------

TEST_F(ObservabilityTest, DisabledTraceEmitsNothingAndNeverAllocates) {
  ASSERT_FALSE(obs::TraceEnabled());
  ASSERT_FALSE(obs::MetricsEnabled());
  // Pre-build the payloads so the region below only measures the
  // instrumentation itself (call sites pass existing strings).
  const std::string key = "a-statistic-key-well-past-sso-capacity:1,2,3";
  obs::Histogram* h = obs::MetricsRegistry::Instance().GetHistogram(
      "t.disabled_lat", obs::LatencyBoundsUs());
  obs::Counter* c =
      obs::MetricsRegistry::Instance().GetCounter("t.disabled_ctr");

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    // The exact shape of every instrumented call site in the library.
    if (obs::TraceEnabled()) {
      obs::TraceEvent("stat.create").Str("key", key).Num("cost", 812.5);
    }
    obs::ScopedLatency timer(h);
    if (obs::MetricsEnabled()) c->Add();
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after);
  EXPECT_EQ(obs::TraceSink::Instance().NumEvents(), 0u);
  EXPECT_EQ(h->Snap().count, 0);
  EXPECT_EQ(c->Value(), 0);

  // Even an unguarded disabled TraceEvent stays SSO-empty: no append,
  // no heap traffic.
  const uint64_t before2 = g_allocations.load(std::memory_order_relaxed);
  { obs::TraceEvent("stat.create").Str("key", key).Bool("fenced", false); }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before2);
  EXPECT_EQ(obs::TraceSink::Instance().NumEvents(), 0u);
}

TEST_F(ObservabilityTest, DisabledRunProducesNoEvents) {
  ASSERT_FALSE(obs::TraceEnabled());
  TwoTableDb t = MakeTwoTableDb(1000, 50);
  StatsCatalog catalog(&t.db);
  Optimizer optimizer(&t.db);
  ManagerPolicy policy;
  policy.mode = CreationMode::kMnsaDOnTheFly;
  AutoStatsManager manager(&t.db, &catalog, &optimizer, policy);
  manager.Run(MixedWorkload(t));
  EXPECT_EQ(obs::TraceSink::Instance().NumEvents(), 0u);
}

// --- 5. WAL lifecycle events ----------------------------------------

TEST_F(ObservabilityTest, WalCommitCheckpointAndRecoveryAreTraced) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "obs_wal_trace.dir").string();
  std::error_code ec;
  fs::remove_all(dir, ec);

  TwoTableDb t = MakeTwoTableDb(1000, 50);
  obs::EnableTrace(true);
  obs::EnableMetrics(true);
  {
    StatsCatalog catalog(&t.db);
    auto opened = CatalogDurability::Open(&catalog, {.dir = dir});
    ASSERT_TRUE(opened.ok());
    catalog.Tick();
    catalog.CreateStatistic({t.fact_val});
    ASSERT_TRUE((*opened)->CommitStatement().ok());
    ASSERT_TRUE((*opened)->Checkpoint().ok());
  }
  {
    // Reopen: recovery replays the snapshot and emits its summary.
    StatsCatalog catalog(&t.db);
    auto reopened = CatalogDurability::Open(&catalog, {.dir = dir});
    ASSERT_TRUE(reopened.ok());
  }
  obs::EnableTrace(false);
  obs::EnableMetrics(false);

  const std::string dump = obs::TraceSink::Instance().Dump();
  EXPECT_NE(dump.find("\"type\":\"wal.commit\""), std::string::npos);
  EXPECT_NE(dump.find("\"lsn\":1"), std::string::npos);
  EXPECT_NE(dump.find("\"type\":\"wal.checkpoint\""), std::string::npos);
  EXPECT_NE(dump.find("\"type\":\"wal.recovery\""), std::string::npos);
  EXPECT_NE(dump.find("\"recovered\":true"), std::string::npos);

  // And the WAL latency histograms saw the writes.
  bool append_seen = false, checkpoint_seen = false;
  for (const auto& [name, snap] :
       obs::MetricsRegistry::Instance().HistogramValues()) {
    if (name == "wal_append_us" && snap.count > 0) append_seen = true;
    if (name == "wal_checkpoint_us" && snap.count > 0) checkpoint_seen = true;
  }
  EXPECT_TRUE(append_seen);
  EXPECT_TRUE(checkpoint_seen);
  fs::remove_all(dir, ec);
}

TEST_F(ObservabilityTest, TraceSinkStampsDenseSeqAndLogicalClock) {
  obs::TraceSink& sink = obs::TraceSink::Instance();
  sink.Clear();
  sink.SetLogicalClock(41);
  obs::EnableTrace(true);
  obs::TraceEvent("a").Int("x", 1);
  sink.SetLogicalClock(42);
  obs::TraceEvent("b").Str("s", "v\"q");
  obs::EnableTrace(false);
  const std::vector<std::string> lines = sink.Lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"seq\":0,\"clock\":41,\"type\":\"a\",\"x\":1}");
  // String payloads pass through JsonEscape.
  EXPECT_EQ(lines[1], "{\"seq\":1,\"clock\":42,\"type\":\"b\",\"s\":\"v\\\"q\"}");
  // Clear resets seq but preserves the logical clock.
  sink.Clear();
  EXPECT_EQ(sink.NumEvents(), 0u);
  EXPECT_EQ(sink.LogicalClock(), 42u);
}

TEST_F(ObservabilityTest, TraceFormatNumberIsDeterministic) {
  EXPECT_EQ(obs::TraceFormatNumber(7.0), "7");
  EXPECT_EQ(obs::TraceFormatNumber(-3.0), "-3");
  EXPECT_EQ(obs::TraceFormatNumber(0.5), "0.5");
  EXPECT_NE(obs::TraceFormatNumber(1e300).find("e+300"), std::string::npos);
  EXPECT_EQ(obs::TraceFormatNumber(9007199254740992.0), "9007199254740992");
}

// Managed runs with metrics on populate the probe and build histograms
// BenchJson exports (the bench_policies percentile exhibit).
TEST_F(ObservabilityTest, ManagedRunPopulatesHotPathHistograms) {
  obs::EnableMetrics(true);
  TwoTableDb t = MakeTwoTableDb(2000, 50);
  StatsCatalog catalog(&t.db);
  Optimizer optimizer(&t.db);
  ManagerPolicy policy;
  policy.mode = CreationMode::kMnsaDOnTheFly;
  policy.update_trigger.fraction = 0.01;
  policy.update_trigger.floor = 1;
  AutoStatsManager manager(&t.db, &catalog, &optimizer, policy);
  manager.Run(MixedWorkload(t));
  obs::EnableMetrics(false);
  bool probe_seen = false, build_seen = false;
  for (const auto& [name, snap] :
       obs::MetricsRegistry::Instance().HistogramValues()) {
    if (name == "probe_latency_real_us" && snap.count > 0) probe_seen = true;
    if (name == "stat_build_cost" && snap.count > 0) build_seen = true;
  }
  EXPECT_TRUE(probe_seen);
  EXPECT_TRUE(build_seen);
}

// --- 8. Instance / tenant label dimension ---------------------------------
//
// Two catalogs in one process used to fold their series into the same
// singleton instruments; these tests pin the label dimension that keeps
// them apart (obs/metrics.h, ScopedMetricsLabel).

TEST_F(ObservabilityTest, ScopedMetricsLabelSplitsSeriesPerTenant) {
  obs::EnableMetrics(true);
  TwoTableDb a = MakeTwoTableDb(1500, 40);
  TwoTableDb b = MakeTwoTableDb(1500, 40);
  {
    obs::ScopedMetricsLabel label("tenA");
    StatsCatalog catalog(&a.db);
    catalog.CreateStatistic({a.fact_val});
  }
  {
    obs::ScopedMetricsLabel label("tenB");
    StatsCatalog catalog(&b.db);
    catalog.CreateStatistic({b.fact_val});
    catalog.CreateStatistic({b.fact_grp});
  }
  obs::EnableMetrics(false);
  int64_t ten_a = 0, ten_b = 0, unlabeled = 0;
  for (const auto& [name, snap] :
       obs::MetricsRegistry::Instance().HistogramValues()) {
    if (name == "tenA/stat_build_cost") ten_a = snap.count;
    if (name == "tenB/stat_build_cost") ten_b = snap.count;
    if (name == "stat_build_cost") unlabeled = snap.count;
  }
  EXPECT_EQ(ten_a, 1);
  EXPECT_EQ(ten_b, 2);
  // Nothing leaked into the unlabeled singleton series.
  EXPECT_EQ(unlabeled, 0);
}

// The server's rejection accounting: TrySubmit bounces land on the
// aggregate server.rejected_total counter AND the per-tenant
// "<tenant>/server.rejected_total" series, matching the per-tenant
// accessor exactly. Workers are never started, so admission outcomes are
// fully deterministic.
TEST_F(ObservabilityTest, ServerRejectionsCountedPerTenantAndAggregate) {
  obs::EnableMetrics(true);
  TwoTableDb a = MakeTwoTableDb(100, 10);
  TwoTableDb b = MakeTwoTableDb(100, 10);
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 2;
  AutoStatsServer server(options);
  server.AddTenant({.name = "tenA", .db = &a.db, .policy = ManagerPolicy()});
  server.AddTenant({.name = "tenB", .db = &b.db, .policy = ManagerPolicy()});
  const Statement q = Statement::MakeQuery(MakeFilterQuery(a, 30));
  for (int i = 0; i < 5; ++i) server.TrySubmit(0, q);  // 2 admit, 3 bounce
  for (int i = 0; i < 3; ++i) server.TrySubmit(1, q);  // 2 admit, 1 bounce
  obs::EnableMetrics(false);

  EXPECT_EQ(server.rejected_total(0), 3);
  EXPECT_EQ(server.rejected_total(1), 1);
  auto& reg = obs::MetricsRegistry::Instance();
  EXPECT_EQ(reg.GetCounter("server.rejected_total")->Value(), 4);
  EXPECT_EQ(reg.GetCounter("tenA/server.rejected_total")->Value(), 3);
  EXPECT_EQ(reg.GetCounter("tenB/server.rejected_total")->Value(), 1);
  // Rejections are not backpressure: the blocking-wait counter is
  // untouched.
  EXPECT_EQ(reg.GetCounter("server.backpressure_waits")->Value(), 0);
}

TEST_F(ObservabilityTest, ScopedMetricsLabelRestoresAndNests) {
  EXPECT_EQ(obs::ScopedMetricsLabel::Current(), "");
  const uint64_t epoch0 = obs::ScopedMetricsLabel::Epoch();
  {
    obs::ScopedMetricsLabel outer("outer");
    EXPECT_EQ(obs::ScopedMetricsLabel::Current(), "outer");
    EXPECT_NE(obs::ScopedMetricsLabel::Epoch(), epoch0);
    {
      obs::ScopedMetricsLabel inner("inner");
      EXPECT_EQ(obs::ScopedMetricsLabel::Current(), "inner");
      // A cached slot re-resolves under the new label.
      obs::LabeledSlot<obs::Counter> slot;
      obs::Counter* c = obs::GetLabeledCounter(slot, "label.probe");
      EXPECT_EQ(c,
                obs::MetricsRegistry::Instance().GetCounter(
                    "inner/label.probe"));
    }
    EXPECT_EQ(obs::ScopedMetricsLabel::Current(), "outer");
  }
  EXPECT_EQ(obs::ScopedMetricsLabel::Current(), "");
  // The epoch moved on every entry/exit, so stale slots cannot survive.
  EXPECT_NE(obs::ScopedMetricsLabel::Epoch(), epoch0);
  obs::LabeledSlot<obs::Counter> slot;
  EXPECT_EQ(obs::GetLabeledCounter(slot, "label.probe"),
            obs::MetricsRegistry::Instance().GetCounter("label.probe"));
}

TEST_F(ObservabilityTest, ScopedTraceSinkIsolatesStreamsAndSeqNumbers) {
  obs::EnableTrace(true);
  obs::TraceSink tenant_a;
  obs::TraceSink tenant_b;
  obs::TraceEvent("global.before").Int("n", 1);
  {
    obs::ScopedTraceSink scope(&tenant_a);
    obs::TraceEvent("a.one").Int("n", 1);
    {
      obs::ScopedTraceSink nested(&tenant_b);
      obs::TraceEvent("b.one").Int("n", 1);
    }
    obs::TraceEvent("a.two").Int("n", 2);
  }
  obs::TraceEvent("global.after").Int("n", 2);
  obs::EnableTrace(false);

  // Each sink numbered its own stream from seq 0 — no interleaving, no
  // collisions between two catalogs in one process.
  ASSERT_EQ(tenant_a.NumEvents(), 2u);
  EXPECT_NE(tenant_a.Lines()[0].find("\"seq\":0"), std::string::npos);
  EXPECT_NE(tenant_a.Lines()[0].find("a.one"), std::string::npos);
  EXPECT_NE(tenant_a.Lines()[1].find("\"seq\":1"), std::string::npos);
  EXPECT_NE(tenant_a.Lines()[1].find("a.two"), std::string::npos);
  ASSERT_EQ(tenant_b.NumEvents(), 1u);
  EXPECT_NE(tenant_b.Lines()[0].find("\"seq\":0"), std::string::npos);
  const std::vector<std::string> global = obs::TraceSink::Instance().Lines();
  ASSERT_EQ(global.size(), 2u);
  EXPECT_NE(global[0].find("global.before"), std::string::npos);
  EXPECT_NE(global[1].find("global.after"), std::string::npos);
}

TEST_F(ObservabilityTest, ScopedTraceSinkCarriesPerSinkLogicalClock) {
  obs::EnableTrace(true);
  TwoTableDb a = MakeTwoTableDb(500, 30);
  TwoTableDb b = MakeTwoTableDb(500, 30);
  StatsCatalog catalog_a(&a.db);
  StatsCatalog catalog_b(&b.db);
  obs::TraceSink sink_a;
  obs::TraceSink sink_b;
  {
    obs::ScopedTraceSink scope(&sink_a);
    catalog_a.Tick();
    catalog_a.Tick();
    obs::TraceEvent("a.ev");
  }
  {
    obs::ScopedTraceSink scope(&sink_b);
    catalog_b.Tick();
    obs::TraceEvent("b.ev");
  }
  obs::EnableTrace(false);
  // Each catalog's Tick advanced only its own sink's clock; the global
  // sink (clock 0) was never touched.
  EXPECT_EQ(sink_a.LogicalClock(), 2u);
  EXPECT_EQ(sink_b.LogicalClock(), 1u);
  EXPECT_EQ(obs::TraceSink::Instance().LogicalClock(), 0u);
  EXPECT_NE(sink_a.Lines()[0].find("\"clock\":2"), std::string::npos);
  EXPECT_NE(sink_b.Lines()[0].find("\"clock\":1"), std::string::npos);
}

}  // namespace
}  // namespace autostats
