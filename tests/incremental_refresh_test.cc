// The incremental statistics refresh pipeline: delta sketches recorded by
// DML execution (executor/dml_exec.cc), merged into the base distribution
// and re-bucketed by StatsCatalog::RefreshIfTriggered.
//  1. DeltaSketch / DeltaStore unit behavior: compaction, cancellation,
//     volume accounting, poisoning.
//  2. Exactness: under full-scan builds an incremental refresh produces a
//     statistic bit-identical to a full rebuild of the mutated table —
//     insert-only and mixed insert/update/delete streams alike.
//  3. Degradation: a stats.delta fault poisons the stream and downgrades
//     the next refresh to a full rescan; a faulted merge falls back to the
//     stale statistic and the retry rescans — both recover to the exact
//     catalog.
//  4. Plan-cache friendliness: a refresh that does not change the
//     statistic leaves stats_version untouched.
//  5. Delta-consumption fencing: a statistic created while its table has
//     unconsumed deltas, or resurrected after a refresh round consumed
//     the delta without it, rescans once instead of merging modifications
//     its base already includes (or misses); bases that stayed exact
//     through a partially-failed round keep merging.
//  6. Persistence: a catalog reloaded from a catalog file comes back
//     fenced (its exact bases missed the DML since the save), so the first
//     triggered refresh rescans and later ones merge — both exact.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/fault.h"
#include "executor/dml_exec.h"
#include "stats/builder.h"
#include "stats/delta_sketch.h"
#include "stats/durability.h"
#include "stats/stats_catalog.h"
#include "tests/test_util.h"

namespace autostats {
namespace {

using testing::MakeTwoTableDb;
using testing::TwoTableDb;

constexpr int64_t kForever = std::numeric_limits<int64_t>::max();

// Full-precision rendering of every field of a statistic; equal strings
// mean bit-identical statistics.
std::string DumpStat(const Statistic& s) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf), "rows=%.17g w=%d\n", s.rows_at_build(),
                s.width());
  out += buf;
  for (int k = 1; k <= s.width(); ++k) {
    std::snprintf(buf, sizeof(buf), "d%d=%.17g\n", k, s.PrefixDistinct(k));
    out += buf;
  }
  const Histogram& h = s.histogram();
  std::snprintf(buf, sizeof(buf), "hist rows=%.17g distinct=%.17g\n",
                h.total_rows(), h.total_distinct());
  out += buf;
  for (const HistogramBucket& b : h.buckets()) {
    std::snprintf(buf, sizeof(buf), "%.17g %.17g %.17g %.17g\n", b.lo, b.hi,
                  b.rows, b.distinct);
    out += buf;
  }
  if (s.has_grid2d()) {
    for (const GridBucket& g : s.grid2d().buckets()) {
      std::snprintf(buf, sizeof(buf), "%.17g %.17g %.17g %.17g %.17g %.17g\n",
                    g.lo1, g.hi1, g.lo2, g.hi2, g.rows, g.distinct);
      out += buf;
    }
  }
  return out;
}

// The ground truth an incremental refresh must reproduce: a fresh catalog
// full-building the statistic from the table's current data.
std::string FullRebuildDump(const Database& db,
                            const std::vector<ColumnRef>& columns) {
  return DumpStat(BuildStatistic(db, columns, StatsBuildConfig{}));
}

DmlStatement Insert(TableId table, size_t rows, uint64_t seed) {
  DmlStatement dml;
  dml.kind = DmlKind::kInsert;
  dml.table = table;
  dml.row_count = rows;
  dml.seed = seed;
  return dml;
}

DmlStatement Update(TableId table, ColumnId col, size_t rows, uint64_t seed) {
  DmlStatement dml;
  dml.kind = DmlKind::kUpdate;
  dml.table = table;
  dml.update_column = col;
  dml.row_count = rows;
  dml.seed = seed;
  return dml;
}

DmlStatement Delete(TableId table, size_t rows, uint64_t seed) {
  DmlStatement dml;
  dml.kind = DmlKind::kDelete;
  dml.table = table;
  dml.row_count = rows;
  dml.seed = seed;
  return dml;
}

// Incremental trigger that fires on any modification and never hits the
// full-rebuild cadence — every refresh takes the merge path.
UpdateTriggerPolicy MergeAlways() {
  UpdateTriggerPolicy trigger;
  trigger.fraction = 0.0;
  trigger.floor = 0;
  trigger.incremental = true;
  trigger.full_rebuild_every = 1 << 20;
  return trigger;
}

class IncrementalRefreshTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// --- 1. Sketch and store units ---

TEST_F(IncrementalRefreshTest, SketchMergesAndCancelsRuns) {
  DeltaSketch sketch;
  sketch.Add(2.0, 1);
  sketch.Add(1.0, 1);
  sketch.Add(2.0, 1);
  sketch.Add(3.0, 1);
  sketch.Add(3.0, -1);  // cancels to zero: run must disappear
  const std::vector<ValueDelta>& runs = sketch.runs();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].value, 1.0);
  EXPECT_EQ(runs[0].count, 1);
  EXPECT_EQ(runs[1].value, 2.0);
  EXPECT_EQ(runs[1].count, 2);
  EXPECT_EQ(sketch.rows_touched(), 5);  // |count| volume, not net effect
}

TEST_F(IncrementalRefreshTest, SketchCompactsLargeTails) {
  DeltaSketch sketch;
  const int kAdds = 100000;  // far past the compaction threshold
  for (int i = 0; i < kAdds; ++i) {
    sketch.Add(static_cast<double>(i % 100), 1);
  }
  const std::vector<ValueDelta>& runs = sketch.runs();
  ASSERT_EQ(runs.size(), 100u);
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].value, static_cast<double>(i));
    EXPECT_EQ(runs[i].count, kAdds / 100);
  }
}

TEST_F(IncrementalRefreshTest, ApplyDeltaMergesAndDropsEmptied) {
  const std::vector<ValueFreq> base = {{1.0, 5.0}, {2.0, 3.0}};
  const std::vector<ValueDelta> delta = {{1.0, -5}, {2.0, 2}, {7.0, 4}};
  const std::vector<ValueFreq> merged = ApplyDelta(base, delta);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].value, 2.0);
  EXPECT_EQ(merged[0].freq, 5.0);
  EXPECT_EQ(merged[1].value, 7.0);
  EXPECT_EQ(merged[1].freq, 4.0);
}

TEST_F(IncrementalRefreshTest, StoreTracksPoisonsAndClears) {
  DeltaStore store;
  EXPECT_FALSE(store.Tracked(1));
  store.Record(1, 0, 42.0, 1);
  EXPECT_TRUE(store.Tracked(1));
  EXPECT_TRUE(store.Valid(1));
  ASSERT_NE(store.Find(1, 0), nullptr);
  EXPECT_EQ(store.Find(1, 3), nullptr);  // untouched column: empty delta
  store.Invalidate(1);
  EXPECT_TRUE(store.Tracked(1));
  EXPECT_FALSE(store.Valid(1));
  store.ClearTable(1);
  EXPECT_FALSE(store.Tracked(1));  // consumed: validity restored too
  EXPECT_TRUE(store.Valid(1));
}

// --- 2. Incremental refresh == full rebuild (exact under full scans) ---

TEST_F(IncrementalRefreshTest, InsertOnlyMergeEqualsFullRebuild) {
  for (uint64_t seed : {7u, 19u, 101u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    TwoTableDb t = MakeTwoTableDb(4000, 100);
    StatsCatalog catalog(&t.db);
    ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());

    Result<size_t> applied =
        TryApplyDml(&t.db, Insert(t.fact, 300, seed), catalog.mutable_deltas());
    ASSERT_TRUE(applied.ok());
    catalog.RecordModifications(t.fact, *applied);
    EXPECT_GT(catalog.RefreshIfTriggered(MergeAlways()), 0.0);

    EXPECT_EQ(DumpStat(*catalog.Find(MakeStatKey({t.fact_val}))),
              FullRebuildDump(t.db, {t.fact_val}));
  }
}

TEST_F(IncrementalRefreshTest, MixedDmlMergeEqualsFullRebuild) {
  TwoTableDb t = MakeTwoTableDb(4000, 100);
  StatsCatalog catalog(&t.db);
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_fk}).ok());

  // Three refresh rounds, each consuming a fresh mixed delta, so merged
  // bases themselves become the base of the next merge.
  uint64_t seed = 5;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(::testing::Message() << "round=" << round);
    size_t modified = 0;
    for (const DmlStatement& dml :
         {Insert(t.fact, 250, seed++),
          Update(t.fact, t.fact_val.column, 150, seed++),
          Delete(t.fact, 120, seed++)}) {
      Result<size_t> applied =
          TryApplyDml(&t.db, dml, catalog.mutable_deltas());
      ASSERT_TRUE(applied.ok());
      modified += *applied;
    }
    catalog.RecordModifications(t.fact, modified);
    EXPECT_GT(catalog.RefreshIfTriggered(MergeAlways()), 0.0);

    // Every merge is exact: both statistics equal a from-scratch rebuild
    // of the mutated table, including the one whose column no DML
    // statement updated in place (inserts and deletes still moved it).
    EXPECT_EQ(DumpStat(*catalog.Find(MakeStatKey({t.fact_val}))),
              FullRebuildDump(t.db, {t.fact_val}));
    EXPECT_EQ(DumpStat(*catalog.Find(MakeStatKey({t.fact_fk}))),
              FullRebuildDump(t.db, {t.fact_fk}));
  }
}

TEST_F(IncrementalRefreshTest, CadenceForcesPeriodicFullRebuild) {
  TwoTableDb t = MakeTwoTableDb(4000, 100);
  StatsCatalog catalog(&t.db);
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());
  UpdateTriggerPolicy trigger = MergeAlways();
  trigger.full_rebuild_every = 2;

  uint64_t seed = 31;
  double merge_cost = 0.0;
  double rebuild_cost = 0.0;
  for (int round = 1; round <= 2; ++round) {
    Result<size_t> applied =
        TryApplyDml(&t.db, Insert(t.fact, 100, seed++),
                    catalog.mutable_deltas());
    ASSERT_TRUE(applied.ok());
    catalog.RecordModifications(t.fact, *applied);
    const double cost = catalog.RefreshIfTriggered(trigger);
    if (round == 1) {
      merge_cost = cost;  // 1st refresh: merge (1 % 2 != 0)
    } else {
      rebuild_cost = cost;  // 2nd refresh: cadence rescan (2 % 2 == 0)
    }
  }
  // The cadence rescan is charged for the whole table, the merge only for
  // the delta — and both leave the exact statistic behind.
  EXPECT_GT(rebuild_cost, 5.0 * merge_cost);
  EXPECT_EQ(catalog.FindEntry(MakeStatKey({t.fact_val}))->update_count, 2);
  EXPECT_EQ(DumpStat(*catalog.Find(MakeStatKey({t.fact_val}))),
            FullRebuildDump(t.db, {t.fact_val}));
}

TEST_F(IncrementalRefreshTest, IncrementalRefreshIsFarCheaperThanRebuild) {
  TwoTableDb t = MakeTwoTableDb(20000, 100);
  StatsCatalog catalog(&t.db);
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());

  // A 1% delta.
  Result<size_t> applied =
      TryApplyDml(&t.db, Insert(t.fact, 200, 3), catalog.mutable_deltas());
  ASSERT_TRUE(applied.ok());
  catalog.RecordModifications(t.fact, *applied);
  const double incremental = catalog.RefreshIfTriggered(MergeAlways());

  const double full = catalog.cost_model().UpdateCost(
      t.db.table(t.fact).num_rows(), /*width=*/1);
  ASSERT_GT(incremental, 0.0);
  EXPECT_GE(full / incremental, 5.0);
}

// --- 3. Degradation: poisoned deltas and faulted merges recover ---

TEST_F(IncrementalRefreshTest, DeltaFaultPoisonsStreamAndRescanRecovers) {
  TwoTableDb t = MakeTwoTableDb(4000, 100);
  StatsCatalog catalog(&t.db);
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());

  FaultSchedule schedule;
  schedule.count = kForever;
  FaultInjector::Instance().Arm(faults::kStatsDelta, schedule);
  Result<size_t> applied =
      TryApplyDml(&t.db, Insert(t.fact, 300, 9), catalog.mutable_deltas());
  FaultInjector::Instance().Reset();

  // The DML itself must proceed — losing a statistics delta never loses
  // data — but the stream is now poisoned.
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(t.db.table(t.fact).num_rows(), 4300u);
  EXPECT_TRUE(catalog.deltas().Tracked(t.fact));
  EXPECT_FALSE(catalog.deltas().Valid(t.fact));

  // The triggered refresh downgrades to a full rescan (charged for the
  // whole table, not the delta) and recovers the exact catalog.
  catalog.RecordModifications(t.fact, *applied);
  const double cost = catalog.RefreshIfTriggered(MergeAlways());
  EXPECT_DOUBLE_EQ(cost, catalog.cost_model().UpdateCost(4300, 1));
  EXPECT_EQ(DumpStat(*catalog.Find(MakeStatKey({t.fact_val}))),
            FullRebuildDump(t.db, {t.fact_val}));
  EXPECT_FALSE(catalog.deltas().Tracked(t.fact));  // consumed, re-validated

  // With the fault gone the next refresh merges incrementally again.
  applied =
      TryApplyDml(&t.db, Insert(t.fact, 200, 11), catalog.mutable_deltas());
  ASSERT_TRUE(applied.ok());
  catalog.RecordModifications(t.fact, *applied);
  const double merge_cost = catalog.RefreshIfTriggered(MergeAlways());
  EXPECT_GT(merge_cost, 0.0);
  EXPECT_LT(merge_cost, cost / 5.0);
  EXPECT_EQ(DumpStat(*catalog.Find(MakeStatKey({t.fact_val}))),
            FullRebuildDump(t.db, {t.fact_val}));
}

TEST_F(IncrementalRefreshTest, FaultedMergeFallsBackStaleThenRescans) {
  TwoTableDb t = MakeTwoTableDb(4000, 100);
  StatsCatalog catalog(&t.db);
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());
  const std::string stale = DumpStat(*catalog.Find(MakeStatKey({t.fact_val})));

  Result<size_t> applied =
      TryApplyDml(&t.db, Insert(t.fact, 300, 41), catalog.mutable_deltas());
  ASSERT_TRUE(applied.ok());
  catalog.RecordModifications(t.fact, *applied);

  FaultSchedule schedule;
  schedule.count = kForever;
  FaultInjector::Instance().Arm(faults::kStatsRefresh, schedule);
  EXPECT_DOUBLE_EQ(catalog.RefreshIfTriggered(MergeAlways()), 0.0);
  FaultInjector::Instance().Reset();

  // Rung 2 of the ladder: the stale statistic survives, the failure is
  // counted, the modification counter is kept for a retry — and since the
  // delta was consumed, the retry is flagged to rescan.
  const StatEntry* entry = catalog.FindEntry(MakeStatKey({t.fact_val}));
  EXPECT_EQ(DumpStat(entry->stat), stale);
  EXPECT_EQ(catalog.failure_counters().stale_fallbacks, 1);
  EXPECT_EQ(catalog.failure_counters().builds_failed, 1);
  EXPECT_TRUE(entry->pending_full_rebuild);
  EXPECT_EQ(catalog.modified_rows(t.fact), 300u);

  EXPECT_DOUBLE_EQ(catalog.RefreshIfTriggered(MergeAlways()),
                   catalog.cost_model().UpdateCost(4300, 1));
  EXPECT_EQ(catalog.modified_rows(t.fact), 0u);
  EXPECT_FALSE(
      catalog.FindEntry(MakeStatKey({t.fact_val}))->pending_full_rebuild);
  EXPECT_EQ(DumpStat(*catalog.Find(MakeStatKey({t.fact_val}))),
            FullRebuildDump(t.db, {t.fact_val}));
}

// --- 4. No-op refreshes leave stats_version (and so the PlanCache) alone ---

TEST_F(IncrementalRefreshTest, NoOpMergeDoesNotBumpStatsVersion) {
  TwoTableDb t = MakeTwoTableDb(4000, 100);
  StatsCatalog catalog(&t.db);
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());

  // A delta that cancels to nothing: the merged distribution, and so the
  // re-bucketed histogram, is bit-identical to the current statistic.
  catalog.mutable_deltas()->Record(t.fact, t.fact_val.column, 42.0, 1);
  catalog.mutable_deltas()->Record(t.fact, t.fact_val.column, 42.0, -1);
  catalog.RecordModifications(t.fact, 100);  // bumps (data may have moved)
  const uint64_t version = catalog.stats_version();

  EXPECT_GT(catalog.RefreshIfTriggered(MergeAlways()), 0.0);  // cost charged
  EXPECT_EQ(catalog.stats_version(), version);  // ...but plans stay valid

  // A refresh that does change the statistic bumps as before.
  Result<size_t> applied =
      TryApplyDml(&t.db, Insert(t.fact, 300, 77), catalog.mutable_deltas());
  ASSERT_TRUE(applied.ok());
  catalog.RecordModifications(t.fact, *applied);
  const uint64_t before = catalog.stats_version();
  EXPECT_GT(catalog.RefreshIfTriggered(MergeAlways()), 0.0);
  EXPECT_GT(catalog.stats_version(), before);
}

TEST_F(IncrementalRefreshTest, NoOpScaleDoesNotBumpStatsVersion) {
  // An entry without a base distribution (as restored from a state that
  // had none) takes the legacy scaling path — with an unchanged row count
  // it is also a no-op.
  TwoTableDb t = MakeTwoTableDb(4000, 100);
  StatsCatalog catalog(&t.db);
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());
  StatEntry restored = *catalog.FindEntry(MakeStatKey({t.fact_val}));
  restored.base_dist.clear();
  catalog.RestoreEntry(std::move(restored));
  catalog.RecordModifications(t.fact, 100);
  const uint64_t version = catalog.stats_version();
  EXPECT_GT(catalog.RefreshIfTriggered(MergeAlways()), 0.0);
  EXPECT_EQ(catalog.stats_version(), version);
}

TEST_F(IncrementalRefreshTest, NoOpEmptyMergeDoesNotBumpStatsVersion) {
  // Modifications recorded with no delta stream at all: an entry with an
  // exact base treats the untracked table as an empty delta (keeping the
  // base) and the unchanged statistic leaves stats_version alone.
  TwoTableDb t = MakeTwoTableDb(4000, 100);
  StatsCatalog catalog(&t.db);
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());
  catalog.RecordModifications(t.fact, 100);
  const uint64_t version = catalog.stats_version();
  EXPECT_GT(catalog.RefreshIfTriggered(MergeAlways()), 0.0);
  EXPECT_EQ(catalog.stats_version(), version);
  EXPECT_FALSE(
      catalog.FindEntry(MakeStatKey({t.fact_val}))->base_dist.empty());
}

// --- 5. Delta-consumption fencing ---

TEST_F(IncrementalRefreshTest, CreateAfterUnconsumedDmlDoesNotDoubleCount) {
  TwoTableDb t = MakeTwoTableDb(4000, 100);
  StatsCatalog catalog(&t.db);
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_fk}).ok());

  // DML below the trigger threshold accumulates a delta; then a second
  // statistic on the same table is auto-created. Its freshly-scanned base
  // already includes that delta.
  Result<size_t> applied =
      TryApplyDml(&t.db, Insert(t.fact, 200, 61), catalog.mutable_deltas());
  ASSERT_TRUE(applied.ok());
  catalog.RecordModifications(t.fact, *applied);
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());

  // The new entry is fenced to rescan once; the sketch survives because
  // the pre-existing statistic still needs it.
  EXPECT_TRUE(
      catalog.FindEntry(MakeStatKey({t.fact_val}))->pending_full_rebuild);
  EXPECT_TRUE(catalog.deltas().Tracked(t.fact));

  // More DML trips the trigger: the old statistic merges the whole
  // sketch, the fenced one rescans — both must equal a full rebuild (a
  // merge of the fenced entry would apply the first delta twice).
  applied =
      TryApplyDml(&t.db, Insert(t.fact, 150, 67), catalog.mutable_deltas());
  ASSERT_TRUE(applied.ok());
  catalog.RecordModifications(t.fact, *applied);
  const double cost = catalog.RefreshIfTriggered(MergeAlways());
  const double rescan =
      catalog.cost_model().UpdateCost(t.db.table(t.fact).num_rows(), 1);
  EXPECT_GE(cost, rescan);        // the fenced entry paid a full rescan
  EXPECT_LT(cost, 2.0 * rescan);  // ...but the other entry merged
  EXPECT_EQ(DumpStat(*catalog.Find(MakeStatKey({t.fact_val}))),
            FullRebuildDump(t.db, {t.fact_val}));
  EXPECT_EQ(DumpStat(*catalog.Find(MakeStatKey({t.fact_fk}))),
            FullRebuildDump(t.db, {t.fact_fk}));
  EXPECT_FALSE(
      catalog.FindEntry(MakeStatKey({t.fact_val}))->pending_full_rebuild);

  // With the fence consumed, the next refresh merges incrementally.
  applied =
      TryApplyDml(&t.db, Insert(t.fact, 150, 71), catalog.mutable_deltas());
  ASSERT_TRUE(applied.ok());
  catalog.RecordModifications(t.fact, *applied);
  EXPECT_LT(catalog.RefreshIfTriggered(MergeAlways()), rescan);
  EXPECT_EQ(DumpStat(*catalog.Find(MakeStatKey({t.fact_val}))),
            FullRebuildDump(t.db, {t.fact_val}));
}

TEST_F(IncrementalRefreshTest, PartialFailureKeepsMergedBasesExact) {
  TwoTableDb t = MakeTwoTableDb(4000, 100);
  StatsCatalog catalog(&t.db);
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_fk}).ok());

  Result<size_t> applied =
      TryApplyDml(&t.db, Insert(t.fact, 300, 83), catalog.mutable_deltas());
  ASSERT_TRUE(applied.ok());
  catalog.RecordModifications(t.fact, *applied);

  // Fail only the fk statistic's merge (the schedule's match filter keys
  // on its stat key): the round ends with one merged entry, one stale
  // fallback, the modification counter kept — and the delta consumed.
  FaultSchedule schedule;
  schedule.count = kForever;
  schedule.match = MakeStatKey({t.fact_fk});
  FaultInjector::Instance().Arm(faults::kStatsRefresh, schedule);
  catalog.RefreshIfTriggered(MergeAlways());
  FaultInjector::Instance().Reset();

  EXPECT_EQ(DumpStat(*catalog.Find(MakeStatKey({t.fact_val}))),
            FullRebuildDump(t.db, {t.fact_val}));
  EXPECT_TRUE(
      catalog.FindEntry(MakeStatKey({t.fact_fk}))->pending_full_rebuild);
  EXPECT_GT(catalog.modified_rows(t.fact), 0u);
  EXPECT_FALSE(catalog.deltas().Tracked(t.fact));

  // The kept counter re-triggers the table with its delta already
  // consumed. The merged entry's base is still exact: it must see an
  // empty delta and keep the base, not degrade to row-count scaling.
  catalog.RefreshIfTriggered(MergeAlways());
  EXPECT_FALSE(
      catalog.FindEntry(MakeStatKey({t.fact_val}))->base_dist.empty());
  EXPECT_EQ(catalog.modified_rows(t.fact), 0u);

  // ...so the next real delta still merges exactly, for both entries.
  applied =
      TryApplyDml(&t.db, Insert(t.fact, 250, 89), catalog.mutable_deltas());
  ASSERT_TRUE(applied.ok());
  catalog.RecordModifications(t.fact, *applied);
  catalog.RefreshIfTriggered(MergeAlways());
  EXPECT_EQ(DumpStat(*catalog.Find(MakeStatKey({t.fact_val}))),
            FullRebuildDump(t.db, {t.fact_val}));
  EXPECT_EQ(DumpStat(*catalog.Find(MakeStatKey({t.fact_fk}))),
            FullRebuildDump(t.db, {t.fact_fk}));
}

TEST_F(IncrementalRefreshTest, ResurrectionAfterConsumedDeltaRescans) {
  TwoTableDb t = MakeTwoTableDb(4000, 100);
  StatsCatalog catalog(&t.db);
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_fk}).ok());
  catalog.MoveToDropList(MakeStatKey({t.fact_val}));

  // A refresh round runs while the statistic sits in the drop-list: the
  // other statistic consumes the table's delta, which the dropped one
  // never sees.
  Result<size_t> applied =
      TryApplyDml(&t.db, Insert(t.fact, 300, 91), catalog.mutable_deltas());
  ASSERT_TRUE(applied.ok());
  catalog.RecordModifications(t.fact, *applied);
  catalog.RefreshIfTriggered(MergeAlways());
  EXPECT_FALSE(catalog.deltas().Tracked(t.fact));
  EXPECT_TRUE(
      catalog.FindEntry(MakeStatKey({t.fact_val}))->pending_full_rebuild);

  // Resurrect and trigger again: the first refresh must rescan — a merge
  // would bolt the new delta onto a base missing the drop-period DML.
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());
  EXPECT_TRUE(catalog.HasActive(MakeStatKey({t.fact_val})));
  applied =
      TryApplyDml(&t.db, Insert(t.fact, 250, 97), catalog.mutable_deltas());
  ASSERT_TRUE(applied.ok());
  catalog.RecordModifications(t.fact, *applied);
  catalog.RefreshIfTriggered(MergeAlways());
  EXPECT_EQ(DumpStat(*catalog.Find(MakeStatKey({t.fact_val}))),
            FullRebuildDump(t.db, {t.fact_val}));
  EXPECT_FALSE(
      catalog.FindEntry(MakeStatKey({t.fact_val}))->pending_full_rebuild);
}

TEST_F(IncrementalRefreshTest, ResurrectionWithUnconsumedDeltaStillMerges) {
  TwoTableDb t = MakeTwoTableDb(4000, 100);
  StatsCatalog catalog(&t.db);
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());

  // Accumulate a delta, drop, resurrect with no refresh round in between:
  // the base missed nothing (the sketch still holds every modification
  // since the build), so the cheap merge stays available and stays exact.
  Result<size_t> applied =
      TryApplyDml(&t.db, Insert(t.fact, 200, 101), catalog.mutable_deltas());
  ASSERT_TRUE(applied.ok());
  catalog.RecordModifications(t.fact, *applied);
  catalog.MoveToDropList(MakeStatKey({t.fact_val}));
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());

  applied =
      TryApplyDml(&t.db, Insert(t.fact, 150, 103), catalog.mutable_deltas());
  ASSERT_TRUE(applied.ok());
  catalog.RecordModifications(t.fact, *applied);
  const double cost = catalog.RefreshIfTriggered(MergeAlways());
  EXPECT_GT(cost, 0.0);
  EXPECT_LT(cost, catalog.cost_model().UpdateCost(
                      t.db.table(t.fact).num_rows(), 1));
  EXPECT_EQ(DumpStat(*catalog.Find(MakeStatKey({t.fact_val}))),
            FullRebuildDump(t.db, {t.fact_val}));
}

// --- 6. Persistence round trips ---

TEST_F(IncrementalRefreshTest, ReloadedCatalogRefreshEqualsFullRebuild) {
  const std::string path = "incremental_reload_test.catalog";
  TwoTableDb t = MakeTwoTableDb(4000, 100);

  // First life: create, mutate, merge-refresh — the entry now carries a
  // merged base distribution.
  StatsCatalog catalog(&t.db);
  ASSERT_TRUE(catalog.TryCreateStatistic({t.fact_val}).ok());
  Result<size_t> applied =
      TryApplyDml(&t.db, Insert(t.fact, 300, 23), catalog.mutable_deltas());
  ASSERT_TRUE(applied.ok());
  catalog.RecordModifications(t.fact, *applied);
  EXPECT_GT(catalog.RefreshIfTriggered(MergeAlways()), 0.0);
  const std::vector<ValueFreq> saved_base =
      catalog.FindEntry(MakeStatKey({t.fact_val}))->base_dist;
  ASSERT_FALSE(saved_base.empty());
  ASSERT_TRUE(SaveCatalog(catalog, path).ok());

  // Second life: the base comes back bit-exact, but the entry must come
  // back fenced — this process's DeltaStore never saw the DML since the
  // save, so a merge onto the base could miss modifications.
  StatsCatalog reloaded(&t.db);
  ASSERT_TRUE(LoadCatalog(&reloaded, path).ok());
  const StatEntry* entry = reloaded.FindEntry(MakeStatKey({t.fact_val}));
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->pending_full_rebuild);
  ASSERT_EQ(entry->base_dist.size(), saved_base.size());
  EXPECT_EQ(std::memcmp(entry->base_dist.data(), saved_base.data(),
                        saved_base.size() * sizeof(ValueFreq)),
            0);  // bit-identical

  // Mixed DML against the reloaded catalog, then a triggered refresh: the
  // fence forces a rescan, which is exact by construction and re-arms the
  // merge path with a fresh base.
  uint64_t seed = 41;
  size_t modified = 0;
  for (const DmlStatement& dml :
       {Insert(t.fact, 250, seed++), Update(t.fact, t.fact_val.column, 150,
                                            seed++),
        Delete(t.fact, 120, seed++)}) {
    applied = TryApplyDml(&t.db, dml, reloaded.mutable_deltas());
    ASSERT_TRUE(applied.ok());
    modified += *applied;
  }
  reloaded.RecordModifications(t.fact, modified);
  EXPECT_GT(reloaded.RefreshIfTriggered(MergeAlways()), 0.0);
  EXPECT_EQ(DumpStat(*reloaded.Find(MakeStatKey({t.fact_val}))),
            FullRebuildDump(t.db, {t.fact_val}));
  EXPECT_FALSE(
      reloaded.FindEntry(MakeStatKey({t.fact_val}))->pending_full_rebuild);

  // Third round: the post-reload base is trustworthy, so the next refresh
  // merges — and still equals the from-scratch rebuild.
  applied = TryApplyDml(&t.db, Insert(t.fact, 200, seed++),
                        reloaded.mutable_deltas());
  ASSERT_TRUE(applied.ok());
  reloaded.RecordModifications(t.fact, *applied);
  const double cost = reloaded.RefreshIfTriggered(MergeAlways());
  EXPECT_GT(cost, 0.0);
  EXPECT_LT(cost, reloaded.cost_model().UpdateCost(
                      t.db.table(t.fact).num_rows(), 1));
  EXPECT_EQ(DumpStat(*reloaded.Find(MakeStatKey({t.fact_val}))),
            FullRebuildDump(t.db, {t.fact_val}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace autostats
