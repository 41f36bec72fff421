// Deterministic failure-schedule harness for the fault-injection layer
// (common/fault.h) and the degradation ladder it drives:
//  1. Zero-cost when disabled: the no-fault run reports no failures.
//  2. Fail-Nth sweep: replay the same seeded workload under fail-Nth
//     schedules at every injection point; no crash, the retry counters
//     match the schedule's fires exactly, and once retries succeed the
//     final statistics catalog equals the no-fault run.
//  3. Persistent failures degrade gracefully: queries keep executing on
//     magic/stale statistics, DML is skipped, nothing aborts.
//  4. Honest call accounting: probes aborted by injected faults never
//     reach Optimizer::num_calls(), and MNSA / Shrinking Set count every
//     aborted and successful probe when a fault hits them mid-run.
#include "common/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/auto_manager.h"
#include "core/mnsa.h"
#include "core/shrinking_set.h"
#include "stats/durability.h"
#include "stats/stats_catalog.h"
#include "tests/test_util.h"

namespace autostats {
namespace {

using testing::MakeFilterQuery;
using testing::MakeJoinQuery;
using testing::MakeTwoTableDb;
using testing::TwoTableDb;

constexpr int64_t kForever = std::numeric_limits<int64_t>::max();

// One line per catalog entry: key, drop-list flag, update count, creation
// cost. Equal snapshots mean the catalogs are interchangeable.
std::vector<std::string> SnapshotCatalog(const StatsCatalog& catalog) {
  std::vector<std::string> out;
  std::vector<StatKey> keys = catalog.ActiveKeys();
  const std::vector<StatKey> dropped = catalog.DropListKeys();
  keys.insert(keys.end(), dropped.begin(), dropped.end());
  for (const StatKey& key : keys) {
    const StatEntry* e = catalog.FindEntry(key);
    char line[256];
    std::snprintf(line, sizeof(line), "%s drop=%d updates=%d cost=%.17g",
                  key.c_str(), e->in_drop_list ? 1 : 0, e->update_count,
                  e->creation_cost);
    out.emplace_back(line);
  }
  return out;
}

// The replayed workload: a mix of queries and DML sized so that statistic
// creation, refresh triggering, MNSA probes, and DML application all hit
// their fault points several times.
Workload MixedWorkload(const TwoTableDb& t) {
  Workload w("faulted");
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

struct RunArtifacts {
  RunReport report;
  std::vector<std::string> catalog;
  size_t fact_rows = 0;
};

// One full manager run over the mixed workload against a fresh database
// and catalog. Whatever schedule is armed when this is called applies.
RunArtifacts RunManagedWorkload() {
  TwoTableDb t = MakeTwoTableDb(4000, 100);
  StatsCatalog catalog(&t.db);
  Optimizer optimizer(&t.db);
  ManagerPolicy policy;
  policy.mode = CreationMode::kMnsaDOnTheFly;
  policy.update_trigger.fraction = 0.01;
  policy.update_trigger.floor = 1;
  policy.enable_aging = true;
  policy.aging.cooldown_ticks = 2;
  AutoStatsManager manager(&t.db, &catalog, &optimizer, policy);
  RunArtifacts out;
  out.report = manager.Run(MixedWorkload(t));
  out.catalog = SnapshotCatalog(catalog);
  out.fact_rows = t.db.table(t.fact).num_rows();
  return out;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// --- 1. Zero-cost when disabled ---

TEST_F(FaultInjectionTest, NoFaultRunReportsNoFailures) {
  const RunArtifacts run = RunManagedWorkload();
  EXPECT_EQ(run.report.builds_failed, 0);
  EXPECT_EQ(run.report.build_retries, 0);
  EXPECT_EQ(run.report.probes_aborted, 0);
  EXPECT_EQ(run.report.degraded_queries, 0);
  EXPECT_EQ(run.report.degraded_dml, 0);
}

// --- 2. Fail-Nth schedule sweep over every injection point ---

TEST_F(FaultInjectionTest, FailNthSweepRecoversViaRetry) {
  const RunArtifacts baseline = RunManagedWorkload();

  // Workload-exercised points; the persistence pair has its own test below
  // (the manager run never saves or loads a catalog file).
  const std::vector<std::string> swept = {
      std::string(faults::kStatsCreate), std::string(faults::kStatsRefresh),
      std::string(faults::kOptimizerProbe), std::string(faults::kDmlApply)};
  for (const std::string& point : swept) {
    SCOPED_TRACE(point);
    for (int64_t n = 1; n <= 4; ++n) {
      SCOPED_TRACE(::testing::Message() << "nth=" << n);
      FaultSchedule schedule;
      schedule.nth = n;
      FaultInjector::Instance().Arm(point, schedule);
      const RunArtifacts run = RunManagedWorkload();
      const FaultPointStats stats =
          FaultInjector::Instance().PointStats(point);
      FaultInjector::Instance().Reset();

      // Every injected failure was absorbed by one retry, so the failure
      // counters match the schedule exactly...
      EXPECT_EQ(run.report.builds_failed, 0);
      if (point == faults::kStatsCreate || point == faults::kStatsRefresh) {
        EXPECT_EQ(run.report.build_retries, stats.fires);
        EXPECT_EQ(run.report.probes_aborted, 0);
        EXPECT_EQ(run.report.dml_retries, 0);
      } else if (point == faults::kOptimizerProbe) {
        EXPECT_EQ(run.report.probes_aborted, stats.fires);
        EXPECT_EQ(run.report.build_retries, 0);
        EXPECT_EQ(run.report.dml_retries, 0);
      } else {
        EXPECT_EQ(run.report.dml_retries, stats.fires);
        EXPECT_EQ(run.report.build_retries, 0);
        EXPECT_EQ(run.report.probes_aborted, 0);
      }
      EXPECT_EQ(run.report.degraded_queries, 0);
      EXPECT_EQ(run.report.degraded_dml, 0);

      // ...and once retries succeed the run is indistinguishable from the
      // no-fault baseline: same accounting, same final catalog, same data.
      EXPECT_EQ(run.report.exec_cost, baseline.report.exec_cost);
      EXPECT_EQ(run.report.creation_cost, baseline.report.creation_cost);
      EXPECT_EQ(run.report.stats_created, baseline.report.stats_created);
      EXPECT_EQ(run.report.optimizer_calls, baseline.report.optimizer_calls);
      EXPECT_EQ(run.catalog, baseline.catalog);
      EXPECT_EQ(run.fact_rows, baseline.fact_rows);
    }
  }
}

// Re-running the identical schedule replays the identical failures — the
// schedule is a pure function of the workload, not of timing.
TEST_F(FaultInjectionTest, ArmedRunsAreReproducible) {
  FaultSchedule schedule;
  schedule.nth = 2;
  schedule.count = 3;
  FaultInjector::Instance().Arm(faults::kOptimizerProbe, schedule);
  const RunArtifacts first = RunManagedWorkload();
  const int64_t fires_first =
      FaultInjector::Instance().PointStats(faults::kOptimizerProbe).fires;

  FaultInjector::Instance().Arm(faults::kOptimizerProbe, schedule);
  const RunArtifacts second = RunManagedWorkload();
  const int64_t fires_second =
      FaultInjector::Instance().PointStats(faults::kOptimizerProbe).fires;

  EXPECT_GT(fires_first, 0);
  EXPECT_EQ(fires_first, fires_second);
  EXPECT_EQ(FormatReport(first.report), FormatReport(second.report));
  EXPECT_EQ(first.catalog, second.catalog);
}

// --- 3. Persistent failures: the degradation ladder's lower rungs ---

TEST_F(FaultInjectionTest, PersistentBuildFailureServesOnMagicNumbers) {
  FaultSchedule schedule;
  schedule.count = kForever;
  FaultInjector::Instance().Arm(faults::kStatsCreate, schedule);
  const RunArtifacts run = RunManagedWorkload();

  EXPECT_GT(run.report.builds_failed, 0);
  EXPECT_GT(run.report.build_retries, 0);
  EXPECT_GT(run.report.degraded_queries, 0);
  EXPECT_EQ(run.report.stats_created, 0);
  EXPECT_TRUE(run.catalog.empty());
  // Never abort a query: all of them executed, on magic numbers.
  EXPECT_EQ(run.report.num_queries, 4);
  EXPECT_GT(run.report.exec_cost, 0.0);
}

TEST_F(FaultInjectionTest, PersistentProbeFailureStopsAnalysisNotQueries) {
  FaultSchedule schedule;
  schedule.count = kForever;
  FaultInjector::Instance().Arm(faults::kOptimizerProbe, schedule);
  const RunArtifacts run = RunManagedWorkload();

  EXPECT_GT(run.report.probes_aborted, 0);
  EXPECT_EQ(run.report.degraded_queries, run.report.num_queries);
  // The serving path is not a fault point: every query still executed.
  EXPECT_EQ(run.report.num_queries, 4);
  EXPECT_GT(run.report.exec_cost, 0.0);
}

TEST_F(FaultInjectionTest, PersistentDmlFailureSkipsStatementsOnly) {
  const RunArtifacts baseline = RunManagedWorkload();
  FaultSchedule schedule;
  schedule.count = kForever;
  FaultInjector::Instance().Arm(faults::kDmlApply, schedule);
  const RunArtifacts run = RunManagedWorkload();

  EXPECT_GT(run.report.dml_retries, 0);
  EXPECT_EQ(run.report.degraded_dml, run.report.num_dml);
  EXPECT_EQ(run.report.degraded_queries, 0);
  // Skipped DML leaves the data untouched: the insert never landed.
  EXPECT_EQ(run.fact_rows, baseline.fact_rows - 400);
  EXPECT_DOUBLE_EQ(run.report.update_cost, 0.0);
}

TEST_F(FaultInjectionTest, StaleFallbackKeepsLastGoodStatistic) {
  TwoTableDb t = MakeTwoTableDb(4000, 100);
  StatsCatalog catalog(&t.db);
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());
  const std::string before =
      SnapshotCatalog(catalog).front();  // updates=0

  FaultSchedule schedule;
  schedule.count = kForever;
  FaultInjector::Instance().Arm(faults::kStatsRefresh, schedule);
  catalog.RecordModifications(t.fact, 4000);
  UpdateTriggerPolicy trigger;
  trigger.fraction = 0.01;
  trigger.floor = 1;
  EXPECT_DOUBLE_EQ(catalog.RefreshIfTriggered(trigger), 0.0);

  // Rung 2 of the ladder: the stale statistic survives, the failure is
  // counted, and the modification counter is kept so a later trigger
  // retries the refresh.
  EXPECT_EQ(catalog.failure_counters().stale_fallbacks, 1);
  EXPECT_EQ(catalog.failure_counters().builds_failed, 1);
  EXPECT_TRUE(catalog.HasActive(MakeStatKey({t.fact_val})));
  EXPECT_EQ(SnapshotCatalog(catalog).front(), before);
  EXPECT_EQ(catalog.modified_rows(t.fact), 4000u);

  FaultInjector::Instance().Reset();
  EXPECT_GT(catalog.RefreshIfTriggered(trigger), 0.0);
  EXPECT_EQ(catalog.modified_rows(t.fact), 0u);
  EXPECT_EQ(catalog.FindEntry(MakeStatKey({t.fact_val}))->update_count, 1);
}

// --- Persistence round-trip under injected failures ---

TEST_F(FaultInjectionTest, PersistenceFaultsLeaveBothSidesIntact) {
  TwoTableDb t = MakeTwoTableDb(2000, 50);
  StatsCatalog catalog(&t.db);
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_fk}).ok());
  const std::string path =
      ::testing::TempDir() + "fault_injection_catalog.txt";

  FaultSchedule schedule;
  schedule.count = kForever;
  FaultInjector::Instance().Arm(faults::kPersistenceSave, schedule);
  EXPECT_FALSE(SaveCatalog(catalog, path).ok());
  FaultInjector::Instance().Reset();
  ASSERT_TRUE(SaveCatalog(catalog, path).ok());

  StatsCatalog restored(&t.db);
  FaultInjector::Instance().Arm(faults::kPersistenceLoad, schedule);
  EXPECT_FALSE(LoadCatalog(&restored, path).ok());
  // The failed load touched nothing.
  EXPECT_EQ(restored.num_active(), 0u);
  FaultInjector::Instance().Reset();
  ASSERT_TRUE(LoadCatalog(&restored, path).ok());
  EXPECT_EQ(SnapshotCatalog(restored), SnapshotCatalog(catalog));
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, SaveKilledAtRenameKeepsThePreviousFile) {
  // SaveCatalog publishes through tmp + fsync + rename, so a kill before
  // the rename leaves the previous file whole and loadable.
  TwoTableDb t = MakeTwoTableDb(2000, 50);
  StatsCatalog catalog(&t.db);
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());
  const std::string path =
      ::testing::TempDir() + "fault_injection_killed_save.catalog";
  const auto read_file = [&path] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  ASSERT_TRUE(SaveCatalog(catalog, path).ok());
  const std::string before = read_file();

  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_fk}).ok());
  FaultSchedule kill;
  kill.torn_write_bytes = 0;
  FaultInjector::Instance().Arm(faults::kPersistenceRename, kill);
  EXPECT_FALSE(SaveCatalog(catalog, path).ok());
  FaultInjector::Instance().Reset();

  EXPECT_EQ(read_file(), before);
  StatsCatalog restored(&t.db);
  ASSERT_TRUE(LoadCatalog(&restored, path).ok());
  EXPECT_EQ(restored.num_active(), 1u);
  EXPECT_TRUE(restored.HasActive(MakeStatKey({t.fact_val})));
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// --- Latency spikes: counted but harmless ---

TEST_F(FaultInjectionTest, LatencySpikeChangesNothingButIsCounted) {
  const RunArtifacts baseline = RunManagedWorkload();
  FaultSchedule schedule;
  schedule.kind = FaultKind::kLatencySpike;
  schedule.nth = 1;
  schedule.count = 3;
  schedule.latency_micros = 200;
  FaultInjector::Instance().Arm(faults::kOptimizerProbe, schedule);
  const RunArtifacts run = RunManagedWorkload();
  const FaultPointStats stats =
      FaultInjector::Instance().PointStats(faults::kOptimizerProbe);

  EXPECT_EQ(stats.fires, 3);
  EXPECT_EQ(FormatReport(run.report), FormatReport(baseline.report));
  EXPECT_EQ(run.catalog, baseline.catalog);
}

// --- Probe faults inside MNSA and Shrinking Set ---

FaultSchedule ProbeWindow(int64_t nth, int64_t count) {
  FaultSchedule schedule;
  schedule.nth = nth;
  schedule.count = count;
  return schedule;
}

// RunMnsa with drop detection on an empty catalog under `schedule` at
// optimizer.probe; returns the result and reports the point's hit count.
MnsaResult MnsaUnderProbeFault(const FaultSchedule& schedule,
                               int64_t* probe_hits) {
  TwoTableDb t = MakeTwoTableDb(4000, 100);
  Optimizer optimizer(&t.db);
  StatsCatalog catalog(&t.db);
  MnsaConfig config;
  config.drop_detection = true;
  FaultInjector::Instance().Arm(faults::kOptimizerProbe, schedule);
  const MnsaResult r = RunMnsa(optimizer, &catalog, MakeJoinQuery(t), config);
  *probe_hits =
      FaultInjector::Instance().PointStats(faults::kOptimizerProbe).hits;
  FaultInjector::Instance().Reset();
  return r;
}

TEST_F(FaultInjectionTest, MnsaProbesBothTwinsBeforeGivingUp) {
  // Hit 1 is the initial plan; hits 2-4 exhaust P_low's three attempts.
  // P_high still runs (hit 5) before the failed pair stops the sweep.
  int64_t hits = 0;
  const MnsaResult r = MnsaUnderProbeFault(ProbeWindow(2, 3), &hits);
  EXPECT_EQ(r.optimizer_calls, 2);
  EXPECT_EQ(r.probes_aborted, 3);
  EXPECT_EQ(hits, 5);
  EXPECT_TRUE(r.degraded);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.created.empty());
}

TEST_F(FaultInjectionTest, MnsaStopsAtALaterRoundsFailedTwin) {
  // Round 2's P_low exhausts its retries after round 1 built statistics.
  int64_t hits = 0;
  const MnsaResult r = MnsaUnderProbeFault(ProbeWindow(5, 3), &hits);
  EXPECT_EQ(r.optimizer_calls, 5);
  EXPECT_EQ(r.probes_aborted, 3);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.created.size(), 2u);
}

// RunShrinkingSet over the six single-column statistics of the two-table
// database, with `schedule` armed at optimizer.probe (nullptr: no fault).
ShrinkingSetResult ShrinkUnderProbeFault(const FaultSchedule* schedule) {
  TwoTableDb t = MakeTwoTableDb(4000, 100);
  Optimizer optimizer(&t.db);
  StatsCatalog catalog(&t.db);
  for (const ColumnRef& col : {t.fact_fk, t.fact_val, t.fact_grp,
                               t.fact_flag, t.dim_pk, t.dim_attr}) {
    catalog.CreateStatistic({col});
  }
  Workload w;
  w.AddQuery(MakeJoinQuery(t, 30));
  w.AddQuery(MakeJoinQuery(t, 70));
  w.AddQuery(MakeFilterQuery(t, 20));
  w.AddQuery(MakeFilterQuery(t, 80, /*group=*/true));
  if (schedule != nullptr) {
    FaultInjector::Instance().Arm(faults::kOptimizerProbe, *schedule);
  }
  const ShrinkingSetResult r =
      RunShrinkingSet(optimizer, &catalog, w, ShrinkingSetConfig{});
  FaultInjector::Instance().Reset();
  return r;
}

TEST_F(FaultInjectionTest, ShrinkingSetKeepsEveryRelevantStatWhenBlind) {
  // Every baseline exhausts its retries (4 queries x 3 attempts), so each
  // statistic relevant to some query is kept unprobed; the two relevant
  // to none are still removed.
  FaultSchedule forever;
  forever.count = kForever;
  const ShrinkingSetResult r = ShrinkUnderProbeFault(&forever);
  EXPECT_EQ(r.optimizer_calls, 0);
  EXPECT_EQ(r.probes_aborted, 12);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.essential.size(), 4u);
  EXPECT_EQ(r.removed.size(), 2u);
}

TEST_F(FaultInjectionTest, ShrinkingSetFailedAlternateProbeKeepsTheStat) {
  const FaultSchedule window = ProbeWindow(6, 3);
  const ShrinkingSetResult r = ShrinkUnderProbeFault(&window);
  EXPECT_EQ(r.optimizer_calls, 12);
  EXPECT_EQ(r.probes_aborted, 3);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.essential.size(), 1u);
}

TEST_F(FaultInjectionTest, ShrinkingSetRetriedProbeMatchesNoFaultRun) {
  const ShrinkingSetResult clean = ShrinkUnderProbeFault(nullptr);
  EXPECT_EQ(clean.optimizer_calls, 13);
  EXPECT_EQ(clean.removed.size(), 6u);
  EXPECT_EQ(clean.probes_aborted, 0);

  const FaultSchedule once = ProbeWindow(3, 1);
  const ShrinkingSetResult r = ShrinkUnderProbeFault(&once);
  EXPECT_EQ(r.optimizer_calls, clean.optimizer_calls);
  EXPECT_EQ(r.essential, clean.essential);
  EXPECT_EQ(r.removed, clean.removed);
  EXPECT_EQ(r.probes_aborted, 1);
  EXPECT_FALSE(r.degraded);
}

// --- 4. Honest optimizer-call accounting (the probe counter regression) ---

TEST_F(FaultInjectionTest, AbortedProbesAreNotOptimizerCalls) {
  TwoTableDb t = MakeTwoTableDb(2000, 50);
  Optimizer optimizer(&t.db);
  StatsCatalog catalog(&t.db);
  const Query q = MakeJoinQuery(t);
  const StatsView view(&catalog);

  FaultSchedule schedule;
  schedule.count = kForever;
  FaultInjector::Instance().Arm(faults::kOptimizerProbe, schedule);
  EXPECT_FALSE(optimizer.TryOptimize(q, view).ok());
  EXPECT_EQ(optimizer.num_calls(), 0);
  EXPECT_EQ(optimizer.num_aborted_probes(), 1);

  // A retried probe that eventually succeeds counts exactly once.
  FaultSchedule once;
  once.nth = 1;
  once.count = 1;
  FaultInjector::Instance().Arm(faults::kOptimizerProbe, once);
  int64_t aborted = 0;
  const Result<OptimizeResult> r =
      optimizer.TryOptimizeWithRetry(q, view, {}, RetryPolicy{}, &aborted);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(aborted, 1);
  EXPECT_EQ(optimizer.num_calls(), 1);
  EXPECT_EQ(optimizer.num_aborted_probes(), 2);

  // Disarmed, TryOptimize is exactly Optimize.
  FaultInjector::Instance().Reset();
  ASSERT_TRUE(optimizer.TryOptimize(q, view).ok());
  EXPECT_EQ(optimizer.num_calls(), 2);
  EXPECT_EQ(optimizer.num_aborted_probes(), 2);
}

// --- FaultInjector unit behavior ---

TEST_F(FaultInjectionTest, FailNthWindowAndMatchFilter) {
  FaultSchedule schedule;
  schedule.nth = 2;
  schedule.count = 2;
  schedule.match = "hot";
  schedule.code = StatusCode::kFailedPrecondition;
  FaultInjector::Instance().Arm("unit.point", schedule);

  EXPECT_TRUE(PokeFault("unit.point", "cold").ok());   // filtered out
  EXPECT_TRUE(PokeFault("unit.point", "hot-1").ok());  // eligible #1
  const Status s = PokeFault("unit.point", "hot-2");   // eligible #2: fires
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(PokeFault("unit.point", "hot-3").ok());  // eligible #3: fires
  EXPECT_TRUE(PokeFault("unit.point", "hot-4").ok());   // window passed

  const FaultPointStats stats =
      FaultInjector::Instance().PointStats("unit.point");
  EXPECT_EQ(stats.hits, 5);
  EXPECT_EQ(stats.eligible, 4);
  EXPECT_EQ(stats.fires, 2);
  EXPECT_EQ(FaultInjector::Instance().TotalFires(), 2);
}

TEST_F(FaultInjectionTest, ProbabilityScheduleIsSeedDeterministic) {
  auto pattern = [](uint64_t seed) {
    FaultSchedule schedule;
    schedule.kind = FaultKind::kFailProbability;
    schedule.probability = 0.5;
    schedule.seed = seed;
    FaultInjector::Instance().Arm("unit.prob", schedule);
    std::string bits;
    for (int i = 0; i < 64; ++i) {
      bits += PokeFault("unit.prob").ok() ? '0' : '1';
    }
    return bits;
  };
  const std::string a = pattern(42);
  const std::string b = pattern(42);
  const std::string c = pattern(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a.find('1'), std::string::npos);
  EXPECT_NE(a.find('0'), std::string::npos);
}

TEST_F(FaultInjectionTest, BackoffGrowsGeometricallyAndRetriesAreCounted) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_micros = 100;
  policy.backoff_multiplier = 2.0;
  EXPECT_EQ(BackoffDelayMicros(policy, 1), 100);
  EXPECT_EQ(BackoffDelayMicros(policy, 2), 200);
  EXPECT_EQ(BackoffDelayMicros(policy, 3), 400);

  int attempts = 0;
  int64_t retries = 0;
  const Status ok = RetryWithBackoff(
      policy,
      [&]() -> Status {
        return ++attempts < 3 ? Status::Internal("transient")
                              : Status::OK();
      },
      &retries);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(retries, 2);

  attempts = 0;
  retries = 0;
  const Status fail = RetryWithBackoff(
      policy, [&]() -> Status { return ++attempts, Status::Internal("hard"); },
      &retries);
  EXPECT_FALSE(fail.ok());
  EXPECT_EQ(attempts, 4);
  EXPECT_EQ(retries, 3);
}

TEST_F(FaultInjectionTest, AllFaultPointsAreRegistered) {
  const std::vector<std::string>& points = AllFaultPoints();
  EXPECT_EQ(points.size(), 10u);
  for (const char* expected :
       {faults::kStatsCreate, faults::kStatsRefresh, faults::kPersistenceSave,
        faults::kPersistenceLoad, faults::kOptimizerProbe,
        faults::kDmlApply, faults::kStatsDelta, faults::kPersistenceAppend,
        faults::kPersistenceFsync, faults::kPersistenceRename}) {
    EXPECT_NE(std::find(points.begin(), points.end(), expected),
              points.end())
        << expected;
  }
}

}  // namespace
}  // namespace autostats
