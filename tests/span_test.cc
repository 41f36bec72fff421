// Per-statement span attribution, the tenant health plane, and the
// flight recorder (obs/span.h, server/health.h, obs/flight_recorder.h):
//  1. Determinism property: with spans in kLogical mode, every tenant's
//     span stream (the exact DumpJsonl bytes) is identical at 1, 2, 4,
//     and 8 workers — in-memory and with per-tenant WALs attached
//     (inline fsync, budget 0).
//  2. Causal clocks: logical stamps carry the documented meanings —
//     ingress/enqueue are the dense submit sequence, pickup/apply the
//     processed count, and the WAL sub-segments count the victim
//     tenant's appends and inline fsyncs (zero for in-memory tenants).
//  3. Degraded timeline: a tripped breaker parks statements as
//     stmt=0/degraded span records, and recovery replays them as
//     replay=true spans — all on the logical clock, all deterministic.
//  4. Disabled mode: every instrumented site is allocation-free and no
//     span is recorded (counting global operator new, the
//     observability_test contract).
//  5. Rings are bounded: SpanSink and FlightRecorder drop oldest past
//     capacity and report the drop count.
//  6. Flight recorder: a breaker trip dumps the victim's recent events
//     to "<dir>/<tenant>.trip<N>.flight.jsonl" (left on disk for the
//     stats_explain --replay fixture test), DumpTenant dumps on demand,
//     and metric rows carry deltas against the previous dump.
//  7. Health plane: AutoStatsServer::Health() reports every tenant
//     name-ordered with queue/park/breaker/WAL facts, and the JSON +
//     Prometheus serializations carry the same data.
//  8. Wall-mode fsync passes: with the coordinator on and several
//     workers committing, each pass records the LSN it left durable
//     (the ThreadSanitizer target for the coordinator/worker handoff).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "query/dml.h"
#include "server/autostats_server.h"
#include "server/health.h"
#include "tests/test_util.h"

// Counting global allocator (for the zero-allocation contract).
#include "tests/counting_new.h"

namespace autostats {
namespace {

namespace fs = std::filesystem;

using testing::MakeFilterQuery;
using testing::MakeJoinQuery;
using testing::MakeTwoTableDb;
using testing::TwoTableDb;

constexpr size_t kFactRows = 1200;
constexpr size_t kDimRows = 60;

std::string TenantName(size_t i) {
  return (i < 10 ? "t0" : "t") + std::to_string(i);
}

std::string FreshDir(const std::string& name) {
  const std::string dir = "span_test." + name + ".dir";
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

ManagerPolicy TenantPolicy() {
  ManagerPolicy policy;
  policy.mode = CreationMode::kMnsaDOnTheFly;
  policy.update_trigger.fraction = 0.01;
  policy.update_trigger.floor = 1;
  policy.update_trigger.incremental = true;
  policy.durability_checkpoint_every = 3;
  return policy;
}

// The server_test tenant streams: a deterministic query/DML mix per
// tenant index, with per-tenant lengths that differ.
Workload TenantStream(const TwoTableDb& t, size_t tenant) {
  Workload w(TenantName(tenant));
  Rng rng(1000 + tenant);
  for (size_t i = 0; i < 10 + tenant; ++i) {
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

struct SpanRunConfig {
  size_t tenants = 4;
  int workers = 1;
  uint64_t interleave_seed = 7;
  std::string durability_root;  // empty = in-memory tenants
};

// Runs every tenant's stream through one server with logical spans on
// and returns each tenant's exact span JSONL bytes.
std::vector<std::string> RunSpans(const SpanRunConfig& cfg) {
  obs::EnableSpans(obs::SpanMode::kLogical);
  std::vector<TwoTableDb> dbs;
  dbs.reserve(cfg.tenants);
  for (size_t i = 0; i < cfg.tenants; ++i) {
    dbs.push_back(MakeTwoTableDb(kFactRows, kDimRows));
  }
  std::vector<Workload> streams;
  for (size_t i = 0; i < cfg.tenants; ++i) {
    streams.push_back(TenantStream(dbs[i], i));
  }
  ServerOptions options;
  options.num_workers = cfg.workers;
  options.max_queue_depth = 4;
  options.max_batch = 3;
  // Inline fsync: the coordinator's wall-clock passes never touch
  // logical spans, but budget 0 keeps the WAL event counts themselves a
  // pure function of the stream.
  options.fsync_budget_per_sec = 0.0;
  AutoStatsServer server(options);
  for (size_t i = 0; i < cfg.tenants; ++i) {
    TenantConfig tc;
    tc.name = TenantName(i);
    tc.db = &dbs[i].db;
    tc.policy = TenantPolicy();
    if (!cfg.durability_root.empty()) {
      tc.durability_dir = cfg.durability_root + "/" + tc.name;
    }
    EXPECT_EQ(server.AddTenant(tc), i);
  }
  server.Start();
  size_t remaining = 0;
  std::vector<size_t> pos(cfg.tenants, 0);
  for (const Workload& s : streams) remaining += s.size();
  Rng rng(cfg.interleave_seed);
  while (remaining > 0) {
    size_t pick = rng.NextU64(cfg.tenants);
    while (pos[pick] >= streams[pick].size()) {
      pick = (pick + 1) % cfg.tenants;
    }
    server.Submit(pick, streams[pick].statements()[pos[pick]++]);
    --remaining;
  }
  server.Drain();
  std::vector<std::string> out(cfg.tenants);
  for (size_t i = 0; i < cfg.tenants; ++i) {
    out[i] = server.spans(i).DumpJsonl();
  }
  server.Stop();
  obs::EnableSpans(obs::SpanMode::kDisabled);
  return out;
}

class SpanTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::EnableSpans(obs::SpanMode::kDisabled);
    obs::EnableFlightRecorder(false);
    obs::EnableTrace(false);
    obs::EnableMetrics(false);
    obs::MetricsRegistry::Instance().ResetAll();
    FaultInjector::Instance().Reset();
  }
};

// --- 1. The span determinism property --------------------------------------

TEST_F(SpanTest, LogicalSpanStreamsByteIdenticalAcrossWorkers) {
  SpanRunConfig ref_cfg;
  const std::vector<std::string> ref = RunSpans(ref_cfg);
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_FALSE(ref[i].empty()) << "tenant " << i << " recorded no spans";
  }
  // The streams differ per tenant, so identical span streams would make
  // the property vacuous.
  for (size_t i = 1; i < ref.size(); ++i) EXPECT_NE(ref[i], ref[0]);

  for (int workers : {1, 2, 4, 8}) {
    for (uint64_t seed : {31u, 62u}) {
      SpanRunConfig cfg;
      cfg.workers = workers;
      cfg.interleave_seed = seed + static_cast<uint64_t>(workers);
      const std::vector<std::string> got = RunSpans(cfg);
      for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(got[i], ref[i])
            << "span stream diverged: tenant " << i << " workers=" << workers
            << " seed=" << cfg.interleave_seed;
      }
    }
  }

  // Durable subset: WAL appends and inline fsyncs join the spans as
  // deterministic event counts.
  SpanRunConfig dref_cfg;
  dref_cfg.tenants = 3;
  dref_cfg.durability_root = FreshDir("sweep_durable_ref");
  const std::vector<std::string> dref = RunSpans(dref_cfg);
  EXPECT_NE(dref[0].find("\"wal_append_us\":"), std::string::npos);
  for (int workers : {2, 4, 8}) {
    SpanRunConfig cfg = dref_cfg;
    cfg.workers = workers;
    cfg.interleave_seed = static_cast<uint64_t>(100 + workers);
    cfg.durability_root = FreshDir("sweep_durable_got");
    const std::vector<std::string> got = RunSpans(cfg);
    for (size_t i = 0; i < dref.size(); ++i) {
      EXPECT_EQ(got[i], dref[i])
          << "durable span stream diverged: tenant " << i
          << " workers=" << workers;
    }
  }
}

// --- 2. Logical stamps carry the documented clocks --------------------------

TEST_F(SpanTest, LogicalStampsCarrySubmitSequenceAndProcessedCount) {
  obs::EnableSpans(obs::SpanMode::kLogical);
  const std::string root = FreshDir("causal");
  TwoTableDb mem = MakeTwoTableDb(kFactRows, kDimRows);
  TwoTableDb dur = MakeTwoTableDb(kFactRows, kDimRows);
  ServerOptions options;
  options.num_workers = 1;
  options.fsync_budget_per_sec = 0.0;  // inline fsync
  AutoStatsServer server(options);
  server.AddTenant({.name = "mem", .db = &mem.db, .policy = TenantPolicy()});
  TenantConfig tc;
  tc.name = "dur";
  tc.db = &dur.db;
  tc.policy = TenantPolicy();
  tc.durability_dir = root + "/dur";
  server.AddTenant(tc);
  server.Start();
  const Workload stream = TenantStream(mem, 0);
  for (const Statement& s : stream.statements()) {
    server.Submit(0, s);
    server.Submit(1, s);
  }
  server.Drain();

  for (size_t tenant : {size_t{0}, size_t{1}}) {
    const std::vector<obs::StatementSpan> spans = server.spans(tenant).Spans();
    ASSERT_EQ(spans.size(), stream.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      const obs::StatementSpan& s = spans[i];
      // Dense 1-based submit sequence; no parking here, so the apply
      // order (== stream order) matches it and the LSN clock.
      EXPECT_EQ(s.ingress_seq, i + 1);
      EXPECT_EQ(s.stmt, i + 1);
      EXPECT_EQ(s.ingress, static_cast<double>(s.ingress_seq));
      EXPECT_EQ(s.enqueue, s.ingress);
      EXPECT_EQ(s.pickup, static_cast<double>(s.stmt));
      EXPECT_EQ(s.apply_begin, s.pickup);
      EXPECT_EQ(s.apply_end, s.pickup);
      EXPECT_FALSE(s.degraded);
      EXPECT_FALSE(s.replay);
      if (tenant == 0) {
        // In-memory tenant: no WAL segments at all.
        EXPECT_EQ(s.wal_append_us, 0);
        EXPECT_EQ(s.fsync_us, 0);
        EXPECT_FALSE(s.fsync_deferred);
      } else {
        // Durable tenant: every statement commits one journal record
        // and pays its fsync inline (budget 0), so the logical counts
        // are at least 1 and nothing was deferred.
        EXPECT_GE(s.wal_append_us, 1) << "stmt " << i;
        EXPECT_GE(s.fsync_us, 1) << "stmt " << i;
        EXPECT_FALSE(s.fsync_deferred);
      }
    }
    // Attribution covers exactly the applied spans.
    EXPECT_EQ(server.spans(tenant).Attribution().spans,
              static_cast<int64_t>(stream.size()));
  }
  server.Stop();
}

// --- 3. Degraded timeline: park and replay spans ----------------------------

TEST_F(SpanTest, BreakerParkAndReplayShowUpAsDegradedAndReplaySpans) {
  obs::EnableSpans(obs::SpanMode::kLogical);
  const std::string root = FreshDir("degraded");
  TwoTableDb t = MakeTwoTableDb(kFactRows, kDimRows);
  ServerOptions options;
  options.num_workers = 1;
  options.fsync_budget_per_sec = 0.0;
  options.breaker_trip_threshold = 1;
  options.breaker_probe_backoff_statements = 1 << 20;  // no organic probe
  AutoStatsServer server(options);
  TenantConfig tc;
  tc.name = "victim";
  tc.db = &t.db;
  tc.policy = TenantPolicy();
  tc.policy.durability_checkpoint_every = 0;
  tc.durability_dir = root + "/victim";
  server.AddTenant(tc);
  server.Start();

  FaultSchedule schedule;
  schedule.kind = FaultKind::kFailNth;
  schedule.nth = 1;
  schedule.count = INT64_MAX;
  schedule.match = "tenant=victim";
  FaultInjector::Instance().Arm(faults::kPersistenceFsync, schedule);

  const Statement q = Statement::MakeQuery(MakeFilterQuery(t, 30));
  ASSERT_TRUE(server.Submit(0, q).ok());
  server.Drain();  // fsync failure streak trips at threshold 1
  ASSERT_EQ(server.tenant_health(0), TenantHealth::kDegraded);
  ASSERT_TRUE(server.Submit(0, q).ok());
  server.Drain();
  ASSERT_TRUE(server.Submit(0, q).ok());
  server.Drain();
  ASSERT_EQ(server.parked_statements(0), 2);

  FaultInjector::Instance().Reset();
  ASSERT_TRUE(server.ProbeTenant(0).ok());
  server.Drain();
  server.Stop();

  const std::vector<obs::StatementSpan> spans = server.spans(0).Spans();
  // 1 applied (the tripping statement) + 2 parked + 2 replayed.
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_FALSE(spans[0].degraded);
  for (size_t i : {size_t{1}, size_t{2}}) {
    EXPECT_EQ(spans[i].stmt, 0u) << "park span " << i;  // never applied
    EXPECT_TRUE(spans[i].degraded);
    EXPECT_FALSE(spans[i].replay);
    EXPECT_EQ(spans[i].ingress_seq, i + 1);  // admission order preserved
  }
  for (size_t i : {size_t{3}, size_t{4}}) {
    EXPECT_TRUE(spans[i].replay);
    EXPECT_FALSE(spans[i].degraded);
    EXPECT_GT(spans[i].stmt, 0u);  // applied for real this time
    EXPECT_EQ(spans[i].ingress_seq, i - 1);  // the parked statements' seqs
  }
  // Park records never reach apply, so attribution skips them.
  EXPECT_EQ(server.spans(0).Attribution().spans, 3);
}

// --- 4. Disabled mode: zero spans, zero allocations --------------------------

TEST_F(SpanTest, DisabledSpansEmitNothingAndNeverAllocate) {
  ASSERT_FALSE(obs::SpansEnabled());
  obs::SpanSink sink;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    // The exact shape of every instrumented site: the worker's gate...
    if (obs::SpansEnabled()) {
      obs::StatementSpan span;
      span.stmt = static_cast<uint64_t>(i);
      sink.Append(span);
    }
    // ...the WAL layer's RAII stages with no scratch installed...
    obs::SpanStage append_stage(obs::SpanStage::kWalAppend);
    obs::SpanStage fsync_stage(obs::SpanStage::kFsync);
    obs::SpanNoteFsyncDeferred();
    // ...and the scratch scope the worker installs around Process().
    obs::ScopedSpanScratch scope(nullptr);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after);
  EXPECT_EQ(sink.NumSpans(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST_F(SpanTest, DisabledServerRunRecordsNoSpans) {
  ASSERT_FALSE(obs::SpansEnabled());
  TwoTableDb t = MakeTwoTableDb(kFactRows, kDimRows);
  ServerOptions options;
  options.num_workers = 2;
  AutoStatsServer server(options);
  server.AddTenant({.name = "quiet", .db = &t.db, .policy = TenantPolicy()});
  server.Start();
  const Workload stream = TenantStream(t, 0);
  for (const Statement& s : stream.statements()) server.Submit(0, s);
  server.Drain();
  server.Stop();
  EXPECT_EQ(server.spans(0).NumSpans(), 0u);
  EXPECT_TRUE(server.spans(0).DumpJsonl().empty());
}

// --- 5. Bounded rings --------------------------------------------------------

TEST_F(SpanTest, SpanSinkDropsOldestPastCapacity) {
  obs::SpanSink sink;
  sink.set_capacity(4, 2);
  for (uint64_t i = 1; i <= 10; ++i) {
    obs::StatementSpan span;
    span.stmt = i;
    sink.Append(span);
  }
  EXPECT_EQ(sink.NumSpans(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  const std::vector<obs::StatementSpan> kept = sink.Spans();
  EXPECT_EQ(kept.front().stmt, 7u);  // oldest surviving
  EXPECT_EQ(kept.back().stmt, 10u);
  for (int i = 0; i < 5; ++i) sink.AppendFsyncPass({});
  EXPECT_EQ(sink.NumFsyncPasses(), 2u);
  sink.Clear();
  EXPECT_EQ(sink.NumSpans(), 0u);
  EXPECT_EQ(sink.NumFsyncPasses(), 0u);
}

TEST_F(SpanTest, FlightRecorderRingAndMetricDeltas) {
  obs::FlightRecorder recorder;
  recorder.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    recorder.RecordLine("{\"seq\":" + std::to_string(i) + "}");
  }
  EXPECT_EQ(recorder.NumLines(), 4u);
  EXPECT_EQ(recorder.dropped(), 6u);
  const std::string first =
      recorder.Dump("t", "manual", {{"t/server.rejected_total", 4}});
  EXPECT_NE(first.find("\"flight\":\"header\""), std::string::npos);
  EXPECT_NE(first.find("\"dropped\":6"), std::string::npos);
  EXPECT_NE(first.find("{\"seq\":6}"), std::string::npos);  // oldest kept
  EXPECT_EQ(first.find("{\"seq\":5}"), std::string::npos);  // dropped
  // First dump: delta == value. Second dump: delta is the change since.
  EXPECT_NE(first.find("\"value\":4,\"delta\":4"), std::string::npos);
  const std::string second =
      recorder.Dump("t", "manual", {{"t/server.rejected_total", 9}});
  EXPECT_NE(second.find("\"value\":9,\"delta\":5"), std::string::npos);
}

// --- 6. Flight dumps: breaker trip + on-demand -------------------------------

// Leaves "span_flight_dump.dir/victim.trip1.flight.jsonl" on disk: the
// stats_explain_replay ctest (FIXTURES_REQUIRED flight_dump) renders it.
TEST_F(SpanTest, BreakerTripDumpsFlightRecorderForTheVictim) {
  const std::string dump_dir = "span_flight_dump.dir";
  std::error_code ec;
  fs::remove_all(dump_dir, ec);
  const std::string root = FreshDir("flight");
  // Production shape: trace display off, flight recording on — events
  // are buffered for the post-mortem without a visible trace.
  obs::EnableFlightRecorder(true);
  obs::EnableMetrics(true);
  TwoTableDb t = MakeTwoTableDb(kFactRows, kDimRows);
  ServerOptions options;
  options.num_workers = 1;
  options.fsync_budget_per_sec = 0.0;
  options.breaker_trip_threshold = 1;
  options.breaker_probe_backoff_statements = 1 << 20;
  options.flight_dump_dir = dump_dir;
  AutoStatsServer server(options);
  TenantConfig tc;
  tc.name = "victim";
  tc.db = &t.db;
  tc.policy = TenantPolicy();
  tc.policy.durability_checkpoint_every = 0;
  tc.durability_dir = root + "/victim";
  server.AddTenant(tc);
  server.Start();

  const Workload stream = TenantStream(t, 0);
  for (size_t i = 0; i + 1 < stream.size(); ++i) {
    server.Submit(0, stream.statements()[i]);
  }
  server.Drain();  // healthy traffic fills the ring

  FaultSchedule schedule;
  schedule.kind = FaultKind::kFailNth;
  schedule.nth = 1;
  schedule.count = INT64_MAX;
  schedule.match = "tenant=victim";
  FaultInjector::Instance().Arm(faults::kPersistenceFsync, schedule);
  server.Submit(0, stream.statements()[stream.size() - 1]);
  server.Drain();  // trips — and dumps the post-mortem
  ASSERT_EQ(server.tenant_health(0), TenantHealth::kDegraded);

  const std::string trip_path = dump_dir + "/victim.trip1.flight.jsonl";
  ASSERT_TRUE(fs::exists(trip_path)) << trip_path;
  std::stringstream ss;
  ss << std::ifstream(trip_path).rdbuf();
  const std::string dump = ss.str();
  EXPECT_NE(dump.find("\"flight\":\"header\""), std::string::npos);
  EXPECT_NE(dump.find("\"tenant\":\"victim\""), std::string::npos);
  EXPECT_NE(dump.find("\"reason\":\"breaker_trip\""), std::string::npos);
  // The ring caught the trip itself and the healthy traffic before it.
  EXPECT_NE(dump.find("\"type\":\"tenant.lifecycle\""), std::string::npos);
  EXPECT_NE(dump.find("\"type\":\"stmt\""), std::string::npos);
  // Tenant-scoped metric rows with deltas.
  EXPECT_NE(dump.find("\"flight\":\"metric\""), std::string::npos);
  EXPECT_NE(dump.find("\"delta\":"), std::string::npos);
  // Flight recording alone must not leak into the visible trace.
  EXPECT_EQ(server.trace(0).NumEvents(), 0u);

  // On-demand dump, and the not-found contract.
  const std::string manual_path = dump_dir + "/victim.manual.flight.jsonl";
  ASSERT_TRUE(server.DumpTenant(0, manual_path).ok());
  EXPECT_TRUE(fs::exists(manual_path));
  EXPECT_EQ(server.DumpTenant(99, manual_path).code(), StatusCode::kNotFound);

  FaultInjector::Instance().Reset();
  server.Stop();
  fs::remove(manual_path, ec);
  // Keep trip_path: the stats_explain_replay fixture consumes it.
}

// --- 7. The tenant health plane ----------------------------------------------

TEST_F(SpanTest, HealthSnapshotIsNameOrderedAndSerializes) {
  obs::EnableSpans(obs::SpanMode::kLogical);
  TwoTableDb a = MakeTwoTableDb(kFactRows, kDimRows);
  TwoTableDb b = MakeTwoTableDb(kFactRows, kDimRows);
  TwoTableDb c = MakeTwoTableDb(kFactRows, kDimRows);
  ServerOptions options;
  options.num_workers = 2;
  AutoStatsServer server(options);
  // Registration order differs from name order on purpose.
  server.AddTenant({.name = "zeta", .db = &a.db, .policy = TenantPolicy()});
  server.AddTenant({.name = "alpha", .db = &b.db, .policy = TenantPolicy()});
  server.AddTenant({.name = "mid", .db = &c.db, .policy = TenantPolicy()});
  server.Start();
  const Workload stream = TenantStream(a, 0);
  for (const Statement& s : stream.statements()) {
    server.Submit(0, s);
    server.Submit(1, s);
  }
  server.Drain();

  const HealthSnapshot snap = server.Health();
  ASSERT_EQ(snap.tenants.size(), 3u);
  EXPECT_EQ(snap.tenants[0].name, "alpha");
  EXPECT_EQ(snap.tenants[1].name, "mid");
  EXPECT_EQ(snap.tenants[2].name, "zeta");
  EXPECT_EQ(snap.active, 3u);
  EXPECT_EQ(snap.degraded, 0u);
  EXPECT_EQ(snap.probing, 0u);
  EXPECT_EQ(snap.queue_depth_total, 0u);  // drained
  for (const TenantHealthSnapshot& t : snap.tenants) {
    EXPECT_EQ(t.state, "active");
    EXPECT_EQ(t.health, "healthy");
    EXPECT_FALSE(t.durable);
  }
  EXPECT_EQ(snap.tenants[0].processed, static_cast<int64_t>(stream.size()));
  EXPECT_EQ(snap.tenants[1].processed, 0);  // "mid" got no traffic
  // The busy tenants carry span attribution; logical stamps make the
  // percentiles event counts, but the span count is exact.
  EXPECT_EQ(snap.tenants[0].attribution.spans,
            static_cast<int64_t>(stream.size()));

  const std::string json = HealthJson(snap);
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_LT(json.find("\"name\":\"alpha\""), json.find("\"name\":\"zeta\""));
  EXPECT_NE(json.find("\"active\":3"), std::string::npos);
  EXPECT_NE(json.find("\"attribution\":{"), std::string::npos);

  const std::string prom = HealthPrometheus(snap);
  EXPECT_NE(prom.find("autostats_tenant_up{tenant=\"alpha\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("autostats_tenant_processed_total{tenant=\"zeta\"} " +
                      std::to_string(stream.size())),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE autostats_tenant_queue_depth gauge"),
            std::string::npos);

  // Second call: the rolling window has a previous sample to diff
  // against, so rate fields are defined (>= 0) and the window advanced.
  const HealthSnapshot again = server.Health();
  EXPECT_GE(again.tenants[0].window_seconds, 0.0);
  EXPECT_GE(again.tenants[0].processed_per_sec, 0.0);
  server.Stop();
}

TEST_F(SpanTest, HealthReportsDegradedTenantWithParkedWork) {
  const std::string root = FreshDir("health_degraded");
  TwoTableDb t = MakeTwoTableDb(kFactRows, kDimRows);
  ServerOptions options;
  options.num_workers = 1;
  options.fsync_budget_per_sec = 0.0;
  options.breaker_trip_threshold = 1;
  options.breaker_probe_backoff_statements = 1 << 20;
  AutoStatsServer server(options);
  TenantConfig tc;
  tc.name = "victim";
  tc.db = &t.db;
  tc.policy = TenantPolicy();
  tc.policy.durability_checkpoint_every = 0;
  tc.durability_dir = root + "/victim";
  server.AddTenant(tc);
  server.Start();
  FaultSchedule schedule;
  schedule.kind = FaultKind::kFailNth;
  schedule.nth = 1;
  schedule.count = INT64_MAX;
  schedule.match = "tenant=victim";
  FaultInjector::Instance().Arm(faults::kPersistenceFsync, schedule);
  const Statement q = Statement::MakeQuery(MakeFilterQuery(t, 30));
  ASSERT_TRUE(server.Submit(0, q).ok());
  server.Drain();
  ASSERT_TRUE(server.Submit(0, q).ok());
  server.Drain();

  const HealthSnapshot snap = server.Health();
  ASSERT_EQ(snap.tenants.size(), 1u);
  EXPECT_EQ(snap.tenants[0].health, "degraded");
  EXPECT_EQ(snap.tenants[0].parked, 1u);
  EXPECT_EQ(snap.tenants[0].trips, 1);
  EXPECT_TRUE(snap.tenants[0].durable);
  EXPECT_TRUE(snap.tenants[0].wal_sealed);
  EXPECT_EQ(snap.degraded, 1u);
  EXPECT_NE(HealthPrometheus(snap)
                .find("autostats_tenant_degraded{tenant=\"victim\"} 1"),
            std::string::npos);

  FaultInjector::Instance().Reset();
  EXPECT_TRUE(server.ProbeTenant(0).ok());
  server.Drain();
  server.Stop();
  EXPECT_EQ(server.Health().tenants[0].health, "healthy");
}

// --- 8. Wall-mode fsync passes under concurrent commits ----------------------

// Durable tenants, the fsync coordinator on, wall-clock spans, and several
// workers: every commit defers its fsync, and the coordinator thread
// flushes journals while their owning workers commit the next statements.
// Each pass records the LSN it left durable — never decreasing, never
// past the stream — and Drain's final pass covers the whole stream.
TEST_F(SpanTest, WallFsyncPassesRecordDurableLsnUnderConcurrentCommits) {
  obs::EnableSpans(obs::SpanMode::kWall);
  const std::string root = FreshDir("wall_passes");
  constexpr size_t kTenants = 4;
  std::vector<TwoTableDb> dbs;
  std::vector<Workload> streams;
  for (size_t i = 0; i < kTenants; ++i) {
    dbs.push_back(MakeTwoTableDb(kFactRows, kDimRows));
    streams.push_back(TenantStream(dbs[i], i));
  }
  ServerOptions options;
  options.num_workers = 4;
  options.fsync_budget_per_sec = 2000.0;  // coordinator on, frequent passes
  options.fsync_max_coalesce_us = 200;
  AutoStatsServer server(options);
  for (size_t i = 0; i < kTenants; ++i) {
    TenantConfig tc;
    tc.name = TenantName(i);
    tc.db = &dbs[i].db;
    tc.policy = TenantPolicy();
    tc.policy.durability_checkpoint_every = 0;  // every fsync is a pass's
    tc.durability_dir = root + "/" + tc.name;
    server.AddTenant(tc);
  }
  server.Start();
  for (size_t s = 0; s < streams[kTenants - 1].size(); ++s) {
    for (size_t i = 0; i < kTenants; ++i) {
      if (s < streams[i].size()) server.Submit(i, streams[i].statements()[s]);
    }
  }
  server.Drain();

  ASSERT_NE(server.coordinator(), nullptr);
  EXPECT_GT(server.coordinator()->passes(), 0);
  for (size_t i = 0; i < kTenants; ++i) {
    const std::vector<obs::FsyncPassSpan> passes =
        server.spans(i).FsyncPasses();
    ASSERT_FALSE(passes.empty()) << "tenant " << i;
    uint64_t prev = 0;
    for (const obs::FsyncPassSpan& pass : passes) {
      EXPECT_LE(pass.begin, pass.end);
      EXPECT_GE(pass.synced_lsn, prev) << "tenant " << i;
      EXPECT_LE(pass.synced_lsn, streams[i].size()) << "tenant " << i;
      prev = pass.synced_lsn;
    }
    EXPECT_EQ(prev, streams[i].size()) << "tenant " << i;
    EXPECT_EQ(server.durability(i)->unsynced_appends(), 0);
    for (const obs::StatementSpan& span : server.spans(i).Spans()) {
      EXPECT_TRUE(span.fsync_deferred);
    }
  }
  server.Stop();
}

}  // namespace
}  // namespace autostats
