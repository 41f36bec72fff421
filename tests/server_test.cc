// Multi-tenant server tests (server/autostats_server.h):
//  1. Determinism property: the same per-tenant statement streams, run at
//     1, 2, 4, and 8 workers and under several seeded ingress
//     interleavings, yield bit-identical per-tenant catalogs (the
//     canonical digest dump) and byte-identical per-tenant traces.
//  2. Durable determinism: the property holds with per-tenant WAL
//     directories attached and the fsync coordinator on, and each
//     tenant's durable state recovers to the bit-identical catalog in a
//     fresh process ("process" = fresh catalog + CatalogDurability::Open).
//  3. Fault isolation: a schedule armed with match "tenant=<name>" under
//     concurrent multi-tenant traffic degrades only that tenant —
//     sibling catalogs and traces are byte-identical to a no-fault run —
//     across the stats.refresh, dml.apply, and persistence.* points.
//  4. Admission control: TrySubmit rejects at the configured queue bound;
//     blocking Submit counts backpressure waits; both are per-tenant.
//  5. Round-robin: the single ready queue serves ready tenants one
//     max_batch turn each, in FIFO order.
//  6. Cross-tenant async group commit: Drain quiesces the server's
//     fsync coordinator, remove/reopen pay and re-arm a tenant's deferred
//     fsync, and a kill injected mid cross-tenant fsync batch seals only
//     the victim — every tenant independently recovers to its own
//     statement boundary.
//  7. Drain's quiescent-ingress precondition trips the debug check.
#include "server/autostats_server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "query/dml.h"
#include "server/catalog_digest.h"
#include "stats/durability.h"
#include "tests/test_util.h"

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
  const std::string dir = "server_test." + name + ".dir";
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
  policy.enable_aging = true;
  policy.aging.cooldown_ticks = 2;
  policy.durability_checkpoint_every = 3;
  return policy;
}

// Each tenant's statement stream is a deterministic function of its
// index, mixing filter/join queries with inserts and updates so no two
// tenants evolve the same catalog. Stream lengths differ per tenant, so
// even two streams that happen to converge to the same statistics leave
// different logical clocks — the divergence check below never goes
// vacuous.
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

struct TenantResult {
  std::string dump;   // CatalogCanonicalDump — the bit-level oracle
  uint32_t digest = 0;
  std::string trace;  // the tenant sink's exact JSONL bytes
  std::string spans;  // the tenant span ring's exact JSONL bytes
  RunReport report;
};

struct RunConfig {
  size_t tenants = 5;
  int workers = 1;
  uint64_t interleave_seed = 0;
  std::string durability_root;  // empty = in-memory tenants
  // The fault-isolation tests run tenants on the SQL Server 7 policy:
  // unconditional creation keeps statistics active (MNSA-D drop-lists
  // them almost immediately, and drop-listed statistics are never
  // refreshed), so the stats.refresh path actually executes.
  CreationMode mode = CreationMode::kMnsaDOnTheFly;
  // Record per-statement spans in kLogical mode alongside the run (the
  // spans-on determinism rider; see obs/span.h).
  bool spans = false;
};

// Runs every tenant's stream through one server instance, interleaving
// submissions across tenants in a seeded order (per-tenant order is
// always preserved — that is the determinism input).
std::vector<TenantResult> RunServer(const RunConfig& cfg) {
  obs::EnableTrace(true);
  if (cfg.spans) obs::EnableSpans(obs::SpanMode::kLogical);
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
  options.max_queue_depth = 4;  // small, so ingress really backpressures
  options.max_batch = 3;
  AutoStatsServer server(options);
  for (size_t i = 0; i < cfg.tenants; ++i) {
    TenantConfig tc;
    tc.name = TenantName(i);
    tc.db = &dbs[i].db;
    tc.policy = TenantPolicy();
    tc.policy.mode = cfg.mode;
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
  server.Stop();

  std::vector<TenantResult> out(cfg.tenants);
  for (size_t i = 0; i < cfg.tenants; ++i) {
    out[i].dump = CatalogCanonicalDump(server.catalog(i));
    out[i].digest = CatalogDigest(server.catalog(i));
    out[i].trace = server.trace(i).Dump();
    out[i].spans = server.spans(i).DumpJsonl();
    out[i].report = server.Report(i);
  }
  obs::EnableTrace(false);
  obs::EnableSpans(obs::SpanMode::kDisabled);
  return out;
}

class ServerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Instance().Reset();
    obs::EnableTrace(false);
  }
};

// --- 1. The determinism property ------------------------------------------

TEST_F(ServerTest, DeterministicAcrossWorkersAndInterleavings) {
  RunConfig ref_cfg;
  ref_cfg.workers = 1;
  ref_cfg.interleave_seed = 7;
  const std::vector<TenantResult> ref = RunServer(ref_cfg);

  // The streams really diverge per tenant (a trivially identical catalog
  // would make the property vacuous).
  for (size_t i = 1; i < ref.size(); ++i) {
    EXPECT_NE(ref[i].dump, ref[0].dump) << "tenant streams did not diverge";
  }
  for (const TenantResult& r : ref) {
    EXPECT_GT(r.report.stats_created, 0);
    EXPECT_GT(r.report.num_queries, 0);
    EXPECT_GT(r.report.num_dml, 0);
  }

  for (int workers : {1, 2, 4, 8}) {
    for (uint64_t seed : {11u, 22u, 33u, 44u}) {
      RunConfig cfg;
      cfg.workers = workers;
      cfg.interleave_seed = seed;
      const std::vector<TenantResult> got = RunServer(cfg);
      ASSERT_EQ(got.size(), ref.size());
      for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(got[i].dump, ref[i].dump)
            << "catalog diverged: tenant " << i << " workers=" << workers
            << " seed=" << seed;
        EXPECT_EQ(got[i].digest, ref[i].digest);
        EXPECT_EQ(got[i].trace, ref[i].trace)
            << "trace diverged: tenant " << i << " workers=" << workers
            << " seed=" << seed;
      }
    }
  }

  // Durable subset: WAL directories attached, fsync coordinator live (the
  // default budget) — its wall-clock passes must not leak into results.
  RunConfig dref_cfg;
  dref_cfg.tenants = 3;
  dref_cfg.workers = 1;
  dref_cfg.interleave_seed = 5;
  dref_cfg.durability_root = FreshDir("durable_sweep_ref");
  const std::vector<TenantResult> dref = RunServer(dref_cfg);
  for (int workers : {1, 2, 4, 8}) {
    RunConfig cfg = dref_cfg;
    cfg.workers = workers;
    cfg.interleave_seed = static_cast<uint64_t>(7 * workers + 1);
    cfg.durability_root = FreshDir("durable_sweep_got");
    const std::vector<TenantResult> got = RunServer(cfg);
    for (size_t i = 0; i < dref.size(); ++i) {
      EXPECT_EQ(got[i].dump, dref[i].dump)
          << "durable catalog diverged: tenant " << i << " workers=" << workers;
      EXPECT_EQ(got[i].trace, dref[i].trace);
      EXPECT_EQ(got[i].report.durability_failures, 0);
    }
  }
}

// Span attribution is an observer, not a participant: the same run with
// logical spans recording yields byte-identical catalogs, digests, AND
// traces to the spans-off reference (the PR 7 contract is untouched),
// and the span streams themselves are byte-identical across worker
// counts.
TEST_F(ServerTest, SpansOnPreservesDeterminismContract) {
  RunConfig off_cfg;
  off_cfg.workers = 1;
  off_cfg.interleave_seed = 7;
  const std::vector<TenantResult> off = RunServer(off_cfg);

  RunConfig on_cfg = off_cfg;
  on_cfg.spans = true;
  const std::vector<TenantResult> on = RunServer(on_cfg);
  ASSERT_EQ(on.size(), off.size());
  for (size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(on[i].dump, off[i].dump)
        << "catalog perturbed by span recording: tenant " << i;
    EXPECT_EQ(on[i].digest, off[i].digest);
    EXPECT_EQ(on[i].trace, off[i].trace)
        << "trace bytes perturbed by span recording: tenant " << i;
    EXPECT_FALSE(on[i].spans.empty());
    EXPECT_TRUE(off[i].spans.empty());  // disabled mode records nothing
  }

  for (int workers : {2, 4, 8}) {
    RunConfig cfg = on_cfg;
    cfg.workers = workers;
    cfg.interleave_seed = static_cast<uint64_t>(17 + workers);
    const std::vector<TenantResult> got = RunServer(cfg);
    for (size_t i = 0; i < off.size(); ++i) {
      EXPECT_EQ(got[i].dump, off[i].dump);
      EXPECT_EQ(got[i].trace, off[i].trace);
      EXPECT_EQ(got[i].spans, on[i].spans)
          << "span stream diverged: tenant " << i << " workers=" << workers;
    }
  }
}

// --- 2. Durable determinism + recovery round trip -------------------------

TEST_F(ServerTest, DurableTenantsDeterministicAndRecoverable) {
  RunConfig ref_cfg;
  ref_cfg.tenants = 3;
  ref_cfg.workers = 1;
  ref_cfg.interleave_seed = 5;
  ref_cfg.durability_root = FreshDir("durable_ref");
  const std::vector<TenantResult> ref = RunServer(ref_cfg);
  for (const TenantResult& r : ref) {
    EXPECT_EQ(r.report.durability_failures, 0);
  }

  RunConfig cfg;
  cfg.tenants = 3;
  cfg.workers = 4;
  cfg.interleave_seed = 99;
  cfg.durability_root = FreshDir("durable_par");
  const std::vector<TenantResult> got = RunServer(cfg);
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i].dump, ref[i].dump) << "tenant " << i;
    EXPECT_EQ(got[i].trace, ref[i].trace) << "tenant " << i;
  }

  // Each tenant's WAL directory reopens to the bit-identical catalog.
  for (size_t i = 0; i < ref.size(); ++i) {
    TwoTableDb t = MakeTwoTableDb(kFactRows, kDimRows);
    StatsCatalog recovered(&t.db);
    RecoveryInfo info;
    Result<std::unique_ptr<CatalogDurability>> opened = CatalogDurability::
        Open(&recovered, {.dir = cfg.durability_root + "/" + TenantName(i)},
             &info);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_TRUE(info.recovered);
    // Recovery fences tables with unconsumed modifications
    // (pending_full_rebuild), which the canonical dump includes — compare
    // everything but the pending flags, then the digest of the live run.
    const std::string live = ref[i].dump;
    std::string rec = CatalogCanonicalDump(recovered);
    // The recovered catalog matches the live one exactly on every field
    // the journal carries; pending flags legitimately differ (the live
    // process's DeltaStore died with it). Normalize both.
    auto strip_pending = [](std::string s) {
      for (size_t p = s.find(" pending="); p != std::string::npos;
           p = s.find(" pending=", p)) {
        s.erase(p, 10);  // " pending=X"
      }
      return s;
    };
    EXPECT_EQ(strip_pending(rec), strip_pending(live)) << "tenant " << i;
  }
}

// --- 3. Fault isolation ----------------------------------------------------

// Arms `point` so it fails permanently, but only for the victim tenant;
// runs concurrent multi-tenant traffic; the victim degrades fail-open
// while every sibling's catalog and trace are byte-identical to the
// no-fault reference.
TEST_F(ServerTest, TenantScopedFaultsDegradeOnlyTheVictim) {
  const size_t kVictim = 2;
  RunConfig base_cfg;
  base_cfg.tenants = 4;
  base_cfg.workers = 4;
  base_cfg.interleave_seed = 13;
  base_cfg.durability_root = FreshDir("isolation_ref");
  base_cfg.mode = CreationMode::kSqlServer7;
  const std::vector<TenantResult> ref = RunServer(base_cfg);

  const std::vector<std::string> points = {
      faults::kStatsRefresh,      faults::kDmlApply,
      faults::kPersistenceAppend, faults::kPersistenceFsync,
      faults::kPersistenceRename,
  };
  for (const std::string& point : points) {
    SCOPED_TRACE("fault point: " + point);
    FaultSchedule schedule;
    schedule.kind = FaultKind::kFailNth;
    schedule.nth = 1;
    schedule.count = INT64_MAX;
    schedule.match = "tenant=" + TenantName(kVictim);
    FaultInjector::Instance().Arm(point, schedule);

    RunConfig cfg = base_cfg;
    cfg.durability_root = FreshDir("isolation_" + point);
    const std::vector<TenantResult> got = RunServer(cfg);

    const FaultPointStats stats = FaultInjector::Instance().PointStats(point);
    FaultInjector::Instance().Reset();
    EXPECT_GT(stats.fires, 0) << "schedule never fired";

    for (size_t i = 0; i < got.size(); ++i) {
      if (i == kVictim) continue;
      EXPECT_EQ(got[i].dump, ref[i].dump)
          << "fault leaked into sibling tenant " << i;
      EXPECT_EQ(got[i].trace, ref[i].trace)
          << "fault leaked into sibling tenant " << i << "'s trace";
    }
    // The victim completed its whole stream (fail-open), visibly degraded.
    const RunReport& victim = got[kVictim].report;
    EXPECT_EQ(victim.num_queries + victim.num_dml,
              ref[kVictim].report.num_queries + ref[kVictim].report.num_dml);
    EXPECT_GT(victim.degraded_queries + victim.degraded_dml +
                  victim.durability_failures + victim.dml_retries +
                  victim.build_retries,
              0)
        << "victim shows no degradation signal";
  }
}

// A schedule with an empty match hits every tenant; this is not an
// isolation property, but firings must still be deterministic: two runs
// with the same streams and schedule produce identical victim sets.
TEST_F(ServerTest, UnscopedFaultsFireDeterministically) {
  auto run = [&] {
    FaultSchedule schedule;
    schedule.kind = FaultKind::kFailNth;
    schedule.nth = 2;
    schedule.count = 3;
    schedule.match = "tenant=" + TenantName(1);
    FaultInjector::Instance().Arm(faults::kStatsRefresh, schedule);
    RunConfig cfg;
    cfg.tenants = 3;
    cfg.workers = 4;
    cfg.interleave_seed = 21;
    cfg.mode = CreationMode::kSqlServer7;
    std::vector<TenantResult> out = RunServer(cfg);
    FaultInjector::Instance().Reset();
    return out;
  };
  const std::vector<TenantResult> a = run();
  const std::vector<TenantResult> b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dump, b[i].dump) << "tenant " << i;
    EXPECT_EQ(a[i].trace, b[i].trace) << "tenant " << i;
  }
}

// --- 4. Admission control --------------------------------------------------

TEST_F(ServerTest, TrySubmitRejectsAtTheBoundPerTenant) {
  TwoTableDb t0 = MakeTwoTableDb(200, 20);
  TwoTableDb t1 = MakeTwoTableDb(200, 20);
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 3;
  AutoStatsServer server(options);
  server.AddTenant({.name = "a", .db = &t0.db, .policy = TenantPolicy()});
  server.AddTenant({.name = "b", .db = &t1.db, .policy = TenantPolicy()});
  // Workers not started: queues only fill.
  const Statement q = Statement::MakeQuery(MakeFilterQuery(t0, 30));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(server.TrySubmit(0, q).ok());
  }
  const Status full = server.TrySubmit(0, q);
  EXPECT_EQ(full.code(), StatusCode::kUnavailable)
      << "admission bound not enforced";
  // Backpressure is per-tenant: tenant b still admits.
  EXPECT_TRUE(server.TrySubmit(1, q).ok());
  EXPECT_EQ(server.backpressure_waits(0), 0);  // TrySubmit never waits

  // Blocking Submit on the saturated tenant counts a wait and completes
  // once workers drain the queue.
  server.Start();
  server.Submit(0, q);
  server.Drain();
  server.Stop();
  // Tenant a admitted 3 TrySubmits + 1 Submit; the 4th TrySubmit bounced.
  EXPECT_EQ(server.Report(0).num_queries, 4);
  EXPECT_EQ(server.Report(1).num_queries, 1);
}

TEST_F(ServerTest, BackpressureWaitsAreCounted) {
  TwoTableDb t = MakeTwoTableDb(800, 40);
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 1;  // every second submission must wait
  options.max_batch = 1;
  AutoStatsServer server(options);
  server.AddTenant({.name = "only", .db = &t.db, .policy = TenantPolicy()});
  server.Start();
  const Workload stream = TenantStream(t, 0);
  for (const Statement& s : stream.statements()) {
    server.Submit(0, s);
  }
  server.Drain();
  server.Stop();
  EXPECT_EQ(static_cast<size_t>(server.Report(0).num_queries +
                                server.Report(0).num_dml),
            stream.size());
  // With depth 1 and a slower consumer than producer, at least one
  // submission must have blocked.
  EXPECT_GT(server.backpressure_waits(0), 0);
}

// --- 5. Round-robin --------------------------------------------------------

// Two tenants and one worker, queued before Start so the schedule is
// fully deterministic: the ready queue is FIFO, so each tenant takes one
// max_batch turn and then yields to the other.
TEST_F(ServerTest, ReadyQueueAlternatesTenantsOneBatchPerTurn) {
  TwoTableDb ta = MakeTwoTableDb(200, 20);
  TwoTableDb tb = MakeTwoTableDb(200, 20);
  ServerOptions options;
  options.num_workers = 1;
  options.max_batch = 2;
  options.max_queue_depth = 8;
  std::mutex mu;
  std::vector<size_t> order;
  options.post_statement_hook = [&](size_t tenant) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(tenant);
  };
  AutoStatsServer server(options);
  server.AddTenant({.name = "a", .db = &ta.db, .policy = TenantPolicy()});
  server.AddTenant({.name = "b", .db = &tb.db, .policy = TenantPolicy()});
  const Statement qa = Statement::MakeQuery(MakeFilterQuery(ta, 30));
  const Statement qb = Statement::MakeQuery(MakeFilterQuery(tb, 30));
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(server.TrySubmit(0, qa).ok());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(server.TrySubmit(1, qb).ok());
  server.Start();
  server.Drain();
  server.Stop();

  const std::vector<size_t> expected = {0, 0, 1, 1, 0, 0, 1, 1, 0, 0};
  EXPECT_EQ(order, expected);
}

// --- 6. Cross-tenant async group commit -----------------------------------

// With a starved budget and a huge coalesce window, no fsync pass runs
// during the stream — Drain must quiesce the coordinator so every
// tenant's group-commit window is closed (unsynced_appends == 0) before
// it returns, and the journals recover the full streams.
TEST_F(ServerTest, DrainQuiescesTheFsyncCoordinator) {
  const size_t kTenants = 2;
  const std::string root = FreshDir("coordinator_drain");
  std::vector<TwoTableDb> dbs;
  std::vector<Workload> streams;
  for (size_t i = 0; i < kTenants; ++i) {
    dbs.push_back(MakeTwoTableDb(kFactRows, kDimRows));
    streams.push_back(TenantStream(dbs[i], i));
  }

  ServerOptions options;
  options.num_workers = 2;
  options.fsync_budget_per_sec = 0.001;   // one pass per ~17 minutes
  options.fsync_max_coalesce_us = 10000000;  // 10 s lag bound
  AutoStatsServer server(options);
  for (size_t i = 0; i < kTenants; ++i) {
    TenantConfig tc;
    tc.name = TenantName(i);
    tc.db = &dbs[i].db;
    tc.policy = TenantPolicy();
    tc.policy.durability_checkpoint_every = 0;  // journal-only durability
    tc.durability_dir = root + "/" + tc.name;
    server.AddTenant(tc);
  }
  server.Start();
  for (size_t i = 0; i < kTenants; ++i) {
    for (const Statement& s : streams[i].statements()) server.Submit(i, s);
  }
  server.Drain();

  const FsyncCoordinator* coordinator = server.coordinator();
  ASSERT_NE(coordinator, nullptr);
  EXPECT_GE(coordinator->passes(), 1);
  EXPECT_GE(coordinator->fsyncs(), static_cast<int64_t>(kTenants));
  // Every commit deferred its fsync; most rode a sibling's pass.
  EXPECT_GE(coordinator->requests(), static_cast<int64_t>(kTenants));
  EXPECT_GT(coordinator->coalesced(), 0);
  for (size_t i = 0; i < kTenants; ++i) {
    EXPECT_EQ(server.Report(i).durability_failures, 0);
    ASSERT_NE(server.durability(i), nullptr);
    EXPECT_EQ(server.durability(i)->unsynced_appends(), 0)
        << "Drain left tenant " << i << "'s group-commit window open";
  }
  server.Stop();

  for (size_t i = 0; i < kTenants; ++i) {
    TwoTableDb t = MakeTwoTableDb(kFactRows, kDimRows);
    StatsCatalog recovered(&t.db);
    RecoveryInfo info;
    Result<std::unique_ptr<CatalogDurability>> opened = CatalogDurability::
        Open(&recovered, {.dir = root + "/" + TenantName(i)}, &info);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(info.last_lsn, streams[i].size()) << "tenant " << i;
  }
}

int64_t HistogramCount(const std::string& name) {
  for (const auto& [series, snap] :
       obs::MetricsRegistry::Instance().HistogramValues()) {
    if (series == name) return snap.count;
  }
  return 0;
}

// Remove and reopen a durable tenant while a starved coordinator holds
// its owed fsync: RemoveTenant pays that fsync exactly once, on the
// removing thread, and retires the tenant's coordinator id so no later
// pass touches it; ReopenTenant recovers the full stream and re-arms the
// deferral, so the reopened tenant's commits defer to the coordinator
// again.
TEST_F(ServerTest, RemoveAndReopenWithTheCoordinatorOn) {
  const std::string root = FreshDir("coordinator_lifecycle");
  TwoTableDb t = MakeTwoTableDb(kFactRows, kDimRows);
  obs::MetricsRegistry::Instance().ResetAll();
  obs::EnableMetrics(true);
  ServerOptions options;
  options.num_workers = 1;
  options.fsync_budget_per_sec = 0.001;      // one pass per ~17 minutes
  options.fsync_max_coalesce_us = 10000000;  // 10 s lag bound
  AutoStatsServer server(options);
  TenantConfig tc;
  tc.name = "lc";
  tc.db = &t.db;
  tc.policy = TenantPolicy();
  tc.policy.durability_checkpoint_every = 0;  // journal-only durability
  tc.durability_dir = root + "/lc";
  server.AddTenant(tc);
  server.Start();
  const FsyncCoordinator* coordinator = server.coordinator();
  ASSERT_NE(coordinator, nullptr);

  const Workload stream = TenantStream(t, 0);
  const size_t half = stream.size() / 2;
  const int64_t fsyncs_before = HistogramCount("lc/wal_fsync_us");
  for (size_t i = 0; i < half; ++i) server.Submit(0, stream.statements()[i]);
  // No Drain: it would force the owed fsync through a pass. RemoveTenant
  // waits for the worker itself.
  ASSERT_TRUE(server.RemoveTenant(0).ok());
  EXPECT_EQ(HistogramCount("lc/wal_fsync_us"), fsyncs_before + 1)
      << "RemoveTenant must pay the owed fsync exactly once";
  EXPECT_EQ(coordinator->fsyncs(), 0) << "the fsync ran on a pass";
  const int64_t requests_at_remove = coordinator->requests();
  EXPECT_GE(requests_at_remove, 1) << "commits did not defer their fsync";

  // Drain forces a pass over everything pending: the removed tenant's
  // request is gone with its id, so there is nothing to flush.
  server.Drain();
  EXPECT_EQ(coordinator->passes(), 0);
  EXPECT_EQ(coordinator->fsyncs(), 0);
  EXPECT_EQ(HistogramCount("lc/wal_fsync_us"), fsyncs_before + 1);

  ASSERT_TRUE(server.ReopenTenant(0).ok());
  ASSERT_NE(server.durability(0), nullptr);
  EXPECT_EQ(server.durability(0)->last_committed_lsn(), half)
      << "reopen did not recover the full stream";
  for (size_t i = half; i < stream.size(); ++i) {
    server.Submit(0, stream.statements()[i]);
  }
  server.Drain();
  EXPECT_GT(coordinator->requests(), requests_at_remove)
      << "the reopened tenant's commits no longer defer";
  EXPECT_GE(coordinator->fsyncs(), 1);
  EXPECT_EQ(server.durability(0)->last_committed_lsn(), stream.size());
  EXPECT_EQ(server.durability(0)->unsynced_appends(), 0);
  EXPECT_EQ(server.Report(0).durability_failures, 0);
  server.Stop();
  obs::EnableMetrics(false);
}

// A kill injected mid cross-tenant fsync batch (the persistence.fsync
// point now fires on the coordinator thread, under the victim's fault
// scope) seals exactly the victim; every tenant — victim included —
// independently recovers to its own statement boundary.
TEST_F(ServerTest, CrashMidCrossTenantFsyncBatchRecoversPerTenant) {
  const size_t kTenants = 3;
  const size_t kVictim = 1;
  const std::string root = FreshDir("fsync_batch_crash");
  std::vector<TwoTableDb> dbs;
  std::vector<Workload> streams;
  for (size_t i = 0; i < kTenants; ++i) {
    dbs.push_back(MakeTwoTableDb(kFactRows, kDimRows));
    streams.push_back(TenantStream(dbs[i], i));
  }

  ServerOptions options;
  options.num_workers = 2;
  options.fsync_budget_per_sec = 2000.0;
  options.fsync_max_coalesce_us = 200;
  std::vector<std::string> live_dumps(kTenants);
  std::vector<uint64_t> recovered_lsn(kTenants, 0);
  {
    AutoStatsServer server(options);
    for (size_t i = 0; i < kTenants; ++i) {
      TenantConfig tc;
      tc.name = TenantName(i);
      tc.db = &dbs[i].db;
      tc.policy = TenantPolicy();
      tc.policy.durability_checkpoint_every = 0;  // journal fsyncs only
      tc.durability_dir = root + "/" + tc.name;
      server.AddTenant(tc);
    }
    server.Start();

    // Armed after Start so the victim's (fault-scoped) recovery open is
    // untouched: the first journal fsync for the victim — a coordinator
    // pass — is a simulated kill.
    FaultSchedule schedule;
    schedule.kind = FaultKind::kFailNth;
    schedule.nth = 1;
    schedule.count = INT64_MAX;
    schedule.match = "tenant=" + TenantName(kVictim);
    schedule.torn_write_bytes = 0;
    FaultInjector::Instance().Arm(faults::kPersistenceFsync, schedule);

    size_t remaining = 0;
    std::vector<size_t> pos(kTenants, 0);
    for (const Workload& s : streams) remaining += s.size();
    size_t pick = 0;
    while (remaining > 0) {
      while (pos[pick] >= streams[pick].size()) pick = (pick + 1) % kTenants;
      server.Submit(pick, streams[pick].statements()[pos[pick]++]);
      pick = (pick + 1) % kTenants;
      --remaining;
    }
    server.Drain();
    server.Stop();

    const FaultPointStats stats =
        FaultInjector::Instance().PointStats(faults::kPersistenceFsync);
    FaultInjector::Instance().Reset();
    EXPECT_GT(stats.fires, 0) << "kill schedule never fired";

    for (size_t i = 0; i < kTenants; ++i) {
      ASSERT_NE(server.durability(i), nullptr);
      // Fail-open: every tenant processed its whole stream regardless.
      EXPECT_EQ(static_cast<size_t>(server.Report(i).num_queries +
                                    server.Report(i).num_dml),
                streams[i].size());
      if (i == kVictim) {
        EXPECT_TRUE(server.durability(i)->crashed())
            << "kill did not seal the victim's writer";
      } else {
        EXPECT_FALSE(server.durability(i)->crashed())
            << "kill leaked into sibling tenant " << i;
        EXPECT_EQ(server.Report(i).durability_failures, 0);
      }
      live_dumps[i] = CatalogCanonicalDump(server.catalog(i));
    }
  }

  auto strip_pending = [](std::string s) {
    for (size_t p = s.find(" pending="); p != std::string::npos;
         p = s.find(" pending=", p)) {
      s.erase(p, 10);  // " pending=X"
    }
    return s;
  };

  // Independent recovery: siblings reopen to their full streams; the
  // victim reopens to the statement boundary its journal durably reached
  // — bit-identical to a serial replay of exactly that stream prefix.
  for (size_t i = 0; i < kTenants; ++i) {
    TwoTableDb t = MakeTwoTableDb(kFactRows, kDimRows);
    StatsCatalog recovered(&t.db);
    RecoveryInfo info;
    Result<std::unique_ptr<CatalogDurability>> opened = CatalogDurability::
        Open(&recovered, {.dir = root + "/" + TenantName(i)}, &info);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    recovered_lsn[i] = info.last_lsn;
    if (i != kVictim) {
      EXPECT_EQ(info.last_lsn, streams[i].size()) << "tenant " << i;
      EXPECT_EQ(strip_pending(CatalogCanonicalDump(recovered)),
                strip_pending(live_dumps[i]))
          << "sibling " << i << " lost durable state";
      continue;
    }
    // The victim's journal holds every record appended before the seal
    // (appends are flushed; only the physical fsync was killed): a
    // consistent prefix of its stream, never a torn statement.
    EXPECT_LE(info.last_lsn, streams[i].size());
    TwoTableDb ot = MakeTwoTableDb(kFactRows, kDimRows);
    StatsCatalog oracle_catalog(&ot.db);
    Optimizer oracle_optimizer(&ot.db);
    ManagerPolicy oracle_policy = TenantPolicy();
    oracle_policy.durability_checkpoint_every = 0;
    AutoStatsManager oracle(&ot.db, &oracle_catalog, &oracle_optimizer,
                            oracle_policy);
    for (uint64_t s = 0; s < info.last_lsn; ++s) {
      oracle.Process(streams[i].statements()[s]);
    }
    EXPECT_EQ(strip_pending(CatalogCanonicalDump(recovered)),
              strip_pending(CatalogCanonicalDump(oracle_catalog)))
        << "victim did not recover to a statement boundary (last_lsn="
        << info.last_lsn << ")";
  }
}

// --- 7. Drain precondition (debug builds) ----------------------------------

#ifndef NDEBUG
// Drain requires quiescent ingress: a Submit racing a Drain trips the
// debug check instead of silently racing the aggregate pending count.
TEST_F(ServerTest, DrainConcurrentWithSubmitTripsDebugCheck) {
  EXPECT_DEATH_IF_SUPPORTED(
      {
        TwoTableDb t = MakeTwoTableDb(100, 10);
        ServerOptions options;
        options.num_workers = 1;
        AutoStatsServer server(options);
        server.AddTenant(
            {.name = "a", .db = &t.db, .policy = TenantPolicy()});
        const Statement q = Statement::MakeQuery(MakeFilterQuery(t, 30));
        // Workers never started: pending stays nonzero and Drain blocks.
        server.Submit(0, q);
        std::thread drainer([&] { server.Drain(); });
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        server.Submit(0, q);  // must abort: ingress during Drain
        drainer.join();
      },
      "drains_active_");
}
#endif  // !NDEBUG

// --- 8. Typed admission on lifecycle states ---------------------------------

// Unknown, removed, and draining tenants get a typed Status from BOTH
// admission entry points — never a DCHECK or a read through freed state.
TEST_F(ServerTest, SubmitAndTrySubmitReturnTypedStatusOnUnknownAndRemoved) {
  TwoTableDb t = MakeTwoTableDb(200, 20);
  ServerOptions options;
  options.num_workers = 1;
  AutoStatsServer server(options);
  server.AddTenant({.name = "only", .db = &t.db, .policy = TenantPolicy()});
  const Statement q = Statement::MakeQuery(MakeFilterQuery(t, 30));

  EXPECT_EQ(server.Submit(9, q).code(), StatusCode::kNotFound);
  EXPECT_EQ(server.TrySubmit(9, q).code(), StatusCode::kNotFound);

  server.Start();
  EXPECT_TRUE(server.Submit(0, q).ok());
  server.Drain();
  ASSERT_TRUE(server.RemoveTenant(0).ok());
  EXPECT_EQ(server.tenant_state(0), TenantState::kRemoved);
  EXPECT_EQ(server.Submit(0, q).code(), StatusCode::kNotFound);
  EXPECT_EQ(server.TrySubmit(0, q).code(), StatusCode::kNotFound);
  // Double remove is a typed precondition failure, not a crash.
  EXPECT_EQ(server.RemoveTenant(0).code(), StatusCode::kFailedPrecondition);
  // Reopen restores admission; the report survives the remove/reopen.
  ASSERT_TRUE(server.ReopenTenant(0).ok());
  EXPECT_EQ(server.tenant_state(0), TenantState::kActive);
  EXPECT_TRUE(server.Submit(0, q).ok());
  server.Drain();
  server.Stop();
  EXPECT_EQ(server.Report(0).num_queries, 2);
}

// --- 9. Circuit breakers ----------------------------------------------------

// A persistently failing persistence.fsync trips the breaker; the
// quarantined tenant answers degraded (parking up to the bound, shedding
// past it) without ever blocking its caller, and an operator probe after
// the fault clears re-admits durable traffic and replays the parked work.
TEST_F(ServerTest, QuarantinedTenantParksToTheBoundThenSheds) {
  const std::string root = FreshDir("quarantine_shed");
  TwoTableDb t = MakeTwoTableDb(kFactRows, kDimRows);
  ServerOptions options;
  options.num_workers = 1;
  options.fsync_budget_per_sec = 0.0;  // inline fsync: failures synchronous
  options.breaker_trip_threshold = 1;
  options.breaker_probe_backoff_statements = 1 << 20;  // no organic probe
  options.max_parked_statements = 2;
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
  server.Drain();  // commit fsync failed; streak of 1 trips at threshold 1
  EXPECT_EQ(server.tenant_health(0), TenantHealth::kDegraded);
  EXPECT_EQ(server.breaker_trips(0), 1);

  // Two statements park (answered with magic numbers, replayed later)...
  ASSERT_TRUE(server.Submit(0, q).ok());
  server.Drain();
  ASSERT_TRUE(server.Submit(0, q).ok());
  server.Drain();
  EXPECT_EQ(server.parked_statements(0), 2);
  // ...and the next one sheds: past the bound a quarantined tenant
  // refuses work with a typed status instead of parking without limit.
  EXPECT_EQ(server.Submit(0, q).code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.shed_total(0), 1);

  FaultInjector::Instance().Reset();
  EXPECT_TRUE(server.ProbeTenant(0).ok());
  EXPECT_EQ(server.tenant_health(0), TenantHealth::kHealthy);
  EXPECT_EQ(server.parked_statements(0), 0);
  EXPECT_EQ(server.breaker_recoveries(0), 1);
  server.Drain();
  server.Stop();
  // Every admitted statement accounted exactly once; the shed statement
  // was never admitted. All three count degraded: the tripping statement
  // itself was answered on non-durable statistics (manager-level
  // degradation), the two parked ones at park time (server-level).
  EXPECT_EQ(server.Report(0).num_queries, 3);
  EXPECT_EQ(server.Report(0).degraded_queries, 3);
}

// An fsync failure on the ASYNC coordinator pass must reach the victim's
// breaker (account + trip), not just a counter: the trip request lands at
// the tenant's next batch boundary on its owning worker.
TEST_F(ServerTest, AsyncFsyncPassFailurePropagatesToBreaker) {
  const std::string root = FreshDir("async_pass_breaker");
  TwoTableDb t = MakeTwoTableDb(kFactRows, kDimRows);
  ServerOptions options;
  options.num_workers = 1;
  options.fsync_budget_per_sec = 2000.0;  // coordinator on
  options.fsync_max_coalesce_us = 200;
  options.breaker_trip_threshold = 1;
  options.breaker_probe_backoff_statements = 1 << 20;
  AutoStatsServer server(options);
  TenantConfig tc;
  tc.name = "victim";
  tc.db = &t.db;
  tc.policy = TenantPolicy();
  tc.policy.durability_checkpoint_every = 0;  // journal-only: every fsync
                                              // rides the async pass
  tc.durability_dir = root + "/victim";
  server.AddTenant(tc);
  server.Start();

  FaultSchedule schedule;
  schedule.kind = FaultKind::kFailNth;
  schedule.nth = 1;
  schedule.count = INT64_MAX;
  schedule.match = "tenant=victim";
  FaultInjector::Instance().Arm(faults::kPersistenceFsync, schedule);

  const Workload stream = TenantStream(t, 0);
  for (const Statement& s : stream.statements()) server.Submit(0, s);
  server.Drain();  // quiesces the coordinator: failed passes have landed
  EXPECT_GT(server.Report(0).durability_failures, 0)
      << "async pass failure was silently dropped";

  // The trip finalizes at a batch boundary; feed one if none ran since.
  const Statement q = Statement::MakeQuery(MakeFilterQuery(t, 30));
  server.Submit(0, q);
  server.Drain();
  EXPECT_EQ(server.tenant_health(0), TenantHealth::kDegraded);
  EXPECT_GE(server.breaker_trips(0), 1);

  FaultInjector::Instance().Reset();
  EXPECT_TRUE(server.ProbeTenant(0).ok());
  EXPECT_EQ(server.tenant_health(0), TenantHealth::kHealthy);
  server.Drain();
  server.Stop();
  // Nothing lost: processed + parked-and-replayed covers the full stream.
  EXPECT_EQ(static_cast<size_t>(server.Report(0).num_queries +
                                server.Report(0).num_dml),
            stream.size() + 1);
}

// Breaker trips, failed half-open probes, and the eventual recovery all
// ride the logical degraded-statement clock: the victim's full trace (and
// every catalog byte) is identical across worker counts, and after the
// fault disarms the tenant returns Healthy with its durable directory
// equal to the live catalog.
TEST_F(ServerTest, BreakerProbeScheduleIsDeterministicAcrossWorkers) {
  constexpr size_t kTenants = 3;
  constexpr size_t kVictim = 0;
  auto run = [&](int workers, const std::string& tag) {
    const std::string root = FreshDir("breaker_prop_" + tag);
    obs::EnableTrace(true);
    std::vector<TwoTableDb> dbs;
    std::vector<Workload> streams;
    for (size_t i = 0; i < kTenants; ++i) {
      dbs.push_back(MakeTwoTableDb(kFactRows, kDimRows));
      streams.push_back(TenantStream(dbs[i], i));
    }
    ServerOptions options;
    options.num_workers = workers;
    options.max_queue_depth = 4;
    options.max_batch = 3;
    options.fsync_budget_per_sec = 0.0;
    options.breaker_trip_threshold = 2;
    options.breaker_probe_backoff_statements = 2;
    options.breaker_probe_backoff_max_statements = 8;
    AutoStatsServer server(options);
    for (size_t i = 0; i < kTenants; ++i) {
      TenantConfig tc;
      tc.name = TenantName(i);
      tc.db = &dbs[i].db;
      tc.policy = TenantPolicy();
      tc.durability_dir = root + "/" + tc.name;
      server.AddTenant(tc);
    }
    server.Start();

    FaultSchedule schedule;  // persistent plain fsync failure, victim only
    schedule.kind = FaultKind::kFailNth;
    schedule.nth = 1;
    schedule.count = INT64_MAX;
    schedule.match = "tenant=" + TenantName(kVictim);
    FaultInjector::Instance().Arm(faults::kPersistenceFsync, schedule);

    size_t remaining = 0;
    std::vector<size_t> pos(kTenants, 0);
    for (const Workload& s : streams) remaining += s.size();
    Rng rng(7);
    while (remaining > 0) {
      size_t pick = rng.NextU64(kTenants);
      while (pos[pick] >= streams[pick].size()) pick = (pick + 1) % kTenants;
      server.Submit(pick, streams[pick].statements()[pos[pick]++]);
      --remaining;
    }
    server.Drain();

    // The fault was armed throughout: the victim tripped, and every
    // half-open probe the logical clock scheduled failed against the
    // still-broken disk (bounded backoff, no hot loop).
    EXPECT_EQ(server.tenant_health(kVictim), TenantHealth::kDegraded);
    EXPECT_GE(server.breaker_trips(kVictim), 1);
    EXPECT_GT(server.breaker_probes(kVictim), 0);
    EXPECT_EQ(server.breaker_recoveries(kVictim), 0);

    FaultInjector::Instance().Reset();
    EXPECT_TRUE(server.ProbeTenant(kVictim).ok());
    EXPECT_EQ(server.tenant_health(kVictim), TenantHealth::kHealthy);
    EXPECT_EQ(server.breaker_recoveries(kVictim), 1);
    server.Drain();
    server.Stop();

    EXPECT_EQ(static_cast<size_t>(server.Report(kVictim).num_queries +
                                  server.Report(kVictim).num_dml),
              streams[kVictim].size())
        << "victim lost statements across trip/park/replay";

    std::vector<TenantResult> out(kTenants);
    for (size_t i = 0; i < kTenants; ++i) {
      out[i].dump = CatalogCanonicalDump(server.catalog(i));
      out[i].digest = CatalogDigest(server.catalog(i));
      out[i].trace = server.trace(i).Dump();
      out[i].report = server.Report(i);
    }
    obs::EnableTrace(false);

    // Durable round trip: the Resume snapshot + post-recovery journal
    // reopen to the live catalog.
    auto strip_pending = [](std::string s) {
      for (size_t p = s.find(" pending="); p != std::string::npos;
           p = s.find(" pending=", p)) {
        s.erase(p, 10);
      }
      return s;
    };
    TwoTableDb fresh = MakeTwoTableDb(kFactRows, kDimRows);
    StatsCatalog recovered(&fresh.db);
    Result<std::unique_ptr<CatalogDurability>> opened = CatalogDurability::
        Open(&recovered, {.dir = root + "/" + TenantName(kVictim)});
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    if (opened.ok()) {
      EXPECT_EQ(strip_pending(CatalogCanonicalDump(recovered)),
                strip_pending(out[kVictim].dump))
          << "victim durable state diverged from live catalog";
    }
    return out;
  };

  const std::vector<TenantResult> a = run(1, "w1");
  const std::vector<TenantResult> b = run(4, "w4");
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dump, b[i].dump) << "tenant " << i;
    EXPECT_EQ(a[i].trace, b[i].trace)
        << "tenant " << i << ": breaker schedule depends on worker count";
  }
}

// --- 10. Lifecycle x concurrency matrix -------------------------------------

// Remove + reopen + live AddTenant mid-stream, at every worker count:
// the whole fleet — lifecycle target included — must be byte-identical
// (catalogs AND traces) across worker counts, and the untouched tenants
// bit-identical to a serial single-threaded replay.
TEST_F(ServerTest, LifecycleMidStreamDeterministicAcrossWorkers) {
  constexpr size_t kTenants = 4;    // initial fleet; one more added live
  constexpr size_t kLifecycle = 1;  // removed + reopened mid-stream

  auto run = [&](int workers) {
    const std::string root = FreshDir("lifecycle_matrix");
    obs::EnableTrace(true);
    std::vector<TwoTableDb> dbs;
    std::vector<Workload> streams;
    for (size_t i = 0; i < kTenants + 1; ++i) {
      dbs.push_back(MakeTwoTableDb(kFactRows, kDimRows));
      streams.push_back(TenantStream(dbs[i], i));
    }
    ServerOptions options;
    options.num_workers = workers;
    options.max_queue_depth = 4;
    options.max_batch = 3;
    options.fsync_budget_per_sec = 0.0;
    AutoStatsServer server(options);
    auto config = [&](size_t i) {
      TenantConfig tc;
      tc.name = TenantName(i);
      tc.db = &dbs[i].db;
      tc.policy = TenantPolicy();
      tc.durability_dir = root + "/" + tc.name;
      return tc;
    };
    for (size_t i = 0; i < kTenants; ++i) {
      EXPECT_EQ(server.AddTenant(config(i)), i);
    }
    server.Start();

    size_t active = kTenants;
    size_t total = 0;
    std::vector<size_t> pos(kTenants, 0);
    for (size_t i = 0; i < kTenants; ++i) total += streams[i].size();
    const size_t half = total / 2;
    size_t submitted = 0;
    bool ops_done = false;
    Rng rng(42);
    while (submitted < total) {
      if (!ops_done && submitted >= half) {
        ops_done = true;
        // Live ops while the workers drain the rest of the fleet: the
        // removal quiesces exactly one tenant, the reopen recovers it
        // bit-identically from its WAL, and the add grows the fleet.
        EXPECT_TRUE(server.RemoveTenant(kLifecycle).ok());
        EXPECT_TRUE(server.ReopenTenant(kLifecycle).ok());
        EXPECT_EQ(server.AddTenant(config(kTenants)), kTenants);
        pos.push_back(0);
        ++active;
        total += streams[kTenants].size();
      }
      size_t pick = rng.NextU64(active);
      while (pos[pick] >= streams[pick].size()) pick = (pick + 1) % active;
      EXPECT_TRUE(
          server.Submit(pick, streams[pick].statements()[pos[pick]++]).ok());
      ++submitted;
    }
    server.Drain();
    server.Stop();

    std::vector<TenantResult> out(active);
    for (size_t i = 0; i < active; ++i) {
      out[i].dump = CatalogCanonicalDump(server.catalog(i));
      out[i].digest = CatalogDigest(server.catalog(i));
      out[i].trace = server.trace(i).Dump();
      out[i].report = server.Report(i);
    }
    obs::EnableTrace(false);
    return out;
  };

  const std::vector<TenantResult> ref = run(1);
  ASSERT_EQ(ref.size(), kTenants + 1);
  for (size_t i = 0; i < ref.size(); ++i) {
    // No statements lost anywhere — including across the remove/reopen
    // and for the tenant added mid-stream.
    TwoTableDb t = MakeTwoTableDb(kFactRows, kDimRows);
    EXPECT_EQ(static_cast<size_t>(ref[i].report.num_queries +
                                  ref[i].report.num_dml),
              TenantStream(t, i).size())
        << "tenant " << i;
  }

  for (int workers : {2, 4, 8}) {
    const std::vector<TenantResult> got = run(workers);
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].dump, ref[i].dump)
          << "tenant " << i << " at " << workers << " workers";
      EXPECT_EQ(got[i].trace, ref[i].trace)
          << "tenant " << i << " at " << workers << " workers";
    }
  }

  // Untouched tenants equal a serial single-threaded manager replay (the
  // lifecycle tenant legitimately differs from a replay without the
  // remove/reopen: recovery fences force full rebuilds — its oracle is
  // the cross-configuration identity above).
  auto strip_pending = [](std::string s) {
    for (size_t p = s.find(" pending="); p != std::string::npos;
         p = s.find(" pending=", p)) {
      s.erase(p, 10);
    }
    return s;
  };
  for (size_t i = 0; i < ref.size(); ++i) {
    if (i == kLifecycle) continue;
    TwoTableDb ot = MakeTwoTableDb(kFactRows, kDimRows);
    const Workload stream = TenantStream(ot, i);
    StatsCatalog oracle_catalog(&ot.db);
    Optimizer oracle_optimizer(&ot.db);
    AutoStatsManager oracle(&ot.db, &oracle_catalog, &oracle_optimizer,
                            TenantPolicy());
    for (const Statement& s : stream.statements()) oracle.Process(s);
    EXPECT_EQ(strip_pending(ref[i].dump),
              strip_pending(CatalogCanonicalDump(oracle_catalog)))
        << "tenant " << i << " diverged from the serial oracle";
  }
}

// --- Digest sanity ---------------------------------------------------------

TEST_F(ServerTest, CatalogDigestTracksCatalogState) {
  TwoTableDb t = MakeTwoTableDb(500, 30);
  StatsCatalog catalog(&t.db);
  const uint32_t empty_digest = CatalogDigest(catalog);
  catalog.CreateStatistic({t.fact_val});
  const uint32_t one_stat = CatalogDigest(catalog);
  EXPECT_NE(empty_digest, one_stat);
  // Digest is a pure function of state: recomputing does not change it.
  EXPECT_EQ(CatalogDigest(catalog), one_stat);
  // pending_full_rebuild is part of the digest (unlike the durability
  // test oracle, the server gate pins it).
  catalog.FlagAllPendingFullRebuild();
  EXPECT_NE(CatalogDigest(catalog), one_stat);
}

}  // namespace
}  // namespace autostats
