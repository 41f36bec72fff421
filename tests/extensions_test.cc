// Tests for the extension features: end-biased histograms, catalog
// persistence, the execution-tree MNSA variant, and the periodic offline
// policy.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/auto_manager.h"
#include "core/mnsa.h"
#include "stats/endbiased.h"
#include "stats/equidepth.h"
#include "stats/durability.h"
#include "tests/test_util.h"

namespace autostats {
namespace {

// --- end-biased histograms ---

std::vector<ValueFreq> SkewedWithHitters(int n) {
  std::vector<ValueFreq> out;
  for (int i = 0; i < n; ++i) {
    out.push_back({static_cast<double>(i), 1.0});
  }
  out[10].freq = 500.0;
  out[70].freq = 300.0;
  return out;
}

TEST(EndBiasedTest, HeavyHittersExact) {
  const std::vector<ValueFreq> dist = SkewedWithHitters(100);
  const Histogram h = BuildEndBiased(dist, 8);
  const double total = 98.0 + 800.0;
  EXPECT_NEAR(h.SelectivityEq(10.0), 500.0 / total, 1e-9);
  EXPECT_NEAR(h.SelectivityEq(70.0), 300.0 / total, 1e-9);
}

TEST(EndBiasedTest, TotalsPreserved) {
  const std::vector<ValueFreq> dist = SkewedWithHitters(100);
  const Histogram h = BuildEndBiased(dist, 8);
  double rows = 0.0;
  for (const HistogramBucket& b : h.buckets()) rows += b.rows;
  EXPECT_NEAR(rows, h.total_rows(), 1e-6);
  EXPECT_NEAR(h.SelectivityRange(-1e300, false, 1e300, true), 1.0, 1e-9);
}

TEST(EndBiasedTest, BeatsEquiDepthOnHitters) {
  const std::vector<ValueFreq> dist = SkewedWithHitters(512);
  const double total = 510.0 + 800.0;
  const Histogram eb = BuildEndBiased(dist, 8);
  const Histogram ed = BuildEquiDepth(dist, 8);
  const double truth = 500.0 / total;
  EXPECT_LT(std::abs(eb.SelectivityEq(10.0) - truth),
            std::abs(ed.SelectivityEq(10.0) - truth));
}

TEST(EndBiasedTest, UniformDataDegradesGracefully) {
  std::vector<ValueFreq> uniform;
  for (int i = 0; i < 100; ++i) {
    uniform.push_back({static_cast<double>(i), 10.0});
  }
  const Histogram h = BuildEndBiased(uniform, 8);
  ASSERT_FALSE(h.empty());
  // No value exceeds the mean -> no singleton buckets, plain equi-depth.
  for (const HistogramBucket& b : h.buckets()) {
    EXPECT_GT(b.hi, b.lo);
  }
  EXPECT_NEAR(h.SelectivityRange(-1e300, false, 49.5, true), 0.5, 0.1);
}

TEST(EndBiasedTest, BuilderIntegration) {
  testing::TwoTableDb t = testing::MakeTwoTableDb(1000, 50);
  StatsBuildConfig config;
  config.histogram_kind = HistogramKind::kEndBiased;
  config.num_buckets = 16;
  const Statistic s = BuildStatistic(t.db, {t.fact_flag}, config);
  // flag is 1 for 5% of rows, 0 for 95%: the 0 value is a heavy hitter.
  EXPECT_NEAR(s.histogram().SelectivityEq(0.0), 0.95, 0.01);
  EXPECT_NEAR(s.histogram().SelectivityEq(1.0), 0.05, 0.01);
}

// --- persistence ---

class PersistenceTest : public ::testing::Test {
 protected:
  PersistenceTest()
      : t_(testing::MakeTwoTableDb(1000, 50)),
        catalog_(&t_.db),
        path_(std::filesystem::temp_directory_path() /
              "autostats_catalog_test.catalog") {}
  ~PersistenceTest() override {
    std::filesystem::remove(path_);
  }

  testing::TwoTableDb t_;
  StatsCatalog catalog_;
  std::filesystem::path path_;
};

TEST_F(PersistenceTest, RoundTripPreservesEverything) {
  catalog_.CreateStatistic({t_.fact_val, t_.fact_grp});
  catalog_.CreateStatistic({t_.fact_flag});
  catalog_.CreateStatistic({t_.dim_pk});
  catalog_.MoveToDropList(MakeStatKey({t_.fact_flag}));

  ASSERT_TRUE(SaveCatalog(catalog_, path_.string()).ok());

  StatsCatalog restored(&t_.db);
  ASSERT_TRUE(LoadCatalog(&restored, path_.string()).ok());

  EXPECT_EQ(restored.num_active(), catalog_.num_active());
  EXPECT_EQ(restored.num_drop_listed(), catalog_.num_drop_listed());
  EXPECT_TRUE(restored.HasActive(MakeStatKey({t_.fact_val, t_.fact_grp})));
  EXPECT_FALSE(restored.HasActive(MakeStatKey({t_.fact_flag})));
  EXPECT_TRUE(restored.Exists(MakeStatKey({t_.fact_flag})));

  // Statistic content round-trips: same selectivity estimates.
  const Statistic* orig =
      catalog_.Find(MakeStatKey({t_.fact_val, t_.fact_grp}));
  const Statistic* back =
      restored.Find(MakeStatKey({t_.fact_val, t_.fact_grp}));
  ASSERT_NE(back, nullptr);
  EXPECT_DOUBLE_EQ(back->rows_at_build(), orig->rows_at_build());
  EXPECT_DOUBLE_EQ(back->PrefixDistinct(1), orig->PrefixDistinct(1));
  EXPECT_DOUBLE_EQ(back->PrefixDistinct(2), orig->PrefixDistinct(2));
  for (double key : {5.0, 42.0, 99.0}) {
    EXPECT_DOUBLE_EQ(back->histogram().SelectivityEq(key),
                     orig->histogram().SelectivityEq(key));
  }
}

TEST_F(PersistenceTest, LoadChargesNoCost) {
  catalog_.CreateStatistic({t_.fact_val});
  ASSERT_TRUE(SaveCatalog(catalog_, path_.string()).ok());
  StatsCatalog restored(&t_.db);
  ASSERT_TRUE(LoadCatalog(&restored, path_.string()).ok());
  EXPECT_DOUBLE_EQ(restored.total_creation_cost(), 0.0);
}

TEST_F(PersistenceTest, MissingFileIsNotFound) {
  StatsCatalog restored(&t_.db);
  const Status s = LoadCatalog(&restored, "/nonexistent/nope.txt");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(PersistenceTest, GarbageFileRejected) {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  std::fputs("not a catalog\n", f);
  std::fclose(f);
  StatsCatalog restored(&t_.db);
  const Status s = LoadCatalog(&restored, path_.string());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(PersistenceTest, GridStatisticsRoundTrip) {
  StatsBuildConfig build;
  build.build_2d_grids = true;
  StatsCatalog with_grids(&t_.db, build);
  with_grids.CreateStatistic({t_.fact_val, t_.fact_grp});
  ASSERT_TRUE(
      with_grids.Find(MakeStatKey({t_.fact_val, t_.fact_grp}))->has_grid2d());
  ASSERT_TRUE(SaveCatalog(with_grids, path_.string()).ok());

  StatsCatalog restored(&t_.db);
  ASSERT_TRUE(LoadCatalog(&restored, path_.string()).ok());
  const Statistic* back =
      restored.Find(MakeStatKey({t_.fact_val, t_.fact_grp}));
  ASSERT_NE(back, nullptr);
  ASSERT_TRUE(back->has_grid2d());
  const Statistic* orig =
      with_grids.Find(MakeStatKey({t_.fact_val, t_.fact_grp}));
  EXPECT_DOUBLE_EQ(back->grid2d().total_rows(),
                   orig->grid2d().total_rows());
  EXPECT_EQ(back->grid2d().buckets().size(),
            orig->grid2d().buckets().size());
  EXPECT_NEAR(back->grid2d().SelectivityBox(0.0, 49.0, 0.0, 4.0),
              orig->grid2d().SelectivityBox(0.0, 49.0, 0.0, 4.0), 1e-12);
}

TEST_F(PersistenceTest, EmptyCatalogRoundTrips) {
  ASSERT_TRUE(SaveCatalog(catalog_, path_.string()).ok());
  StatsCatalog restored(&t_.db);
  ASSERT_TRUE(LoadCatalog(&restored, path_.string()).ok());
  EXPECT_EQ(restored.num_active(), 0u);
}

TEST_F(PersistenceTest, ReloadFencesEntriesThatHeldABase) {
  // A freshly built statistic carries an in-memory base distribution. It
  // round-trips bit-exactly, but the loading process never saw the DML
  // since the save, so the reloaded entry must come back flagged for a
  // full rescan: a merge onto the base could miss modifications.
  catalog_.CreateStatistic({t_.fact_val});
  const StatEntry saved = *catalog_.FindEntry(MakeStatKey({t_.fact_val}));
  ASSERT_FALSE(saved.base_dist.empty());
  ASSERT_TRUE(SaveCatalog(catalog_, path_.string()).ok());

  StatsCatalog restored(&t_.db);
  ASSERT_TRUE(LoadCatalog(&restored, path_.string()).ok());
  const StatEntry* entry = restored.FindEntry(MakeStatKey({t_.fact_val}));
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->pending_full_rebuild);
  ASSERT_EQ(entry->base_dist.size(), saved.base_dist.size());
  EXPECT_EQ(std::memcmp(entry->base_dist.data(), saved.base_dist.data(),
                        saved.base_dist.size() * sizeof(ValueFreq)),
            0);  // bit-identical

  // The converse: an entry saved with no base and no fence loads unfenced
  // — only entries whose base could miss modifications are fenced.
  StatEntry baseless = saved;
  baseless.base_dist.clear();
  catalog_.RestoreEntry(std::move(baseless));
  ASSERT_TRUE(SaveCatalog(catalog_, path_.string()).ok());
  StatsCatalog unfenced(&t_.db);
  ASSERT_TRUE(LoadCatalog(&unfenced, path_.string()).ok());
  EXPECT_FALSE(
      unfenced.FindEntry(MakeStatKey({t_.fact_val}))->pending_full_rebuild);
}

TEST_F(PersistenceTest, TruncatedFileIsAllOrNothing) {
  catalog_.CreateStatistic({t_.fact_val});
  catalog_.CreateStatistic({t_.dim_pk});
  ASSERT_TRUE(SaveCatalog(catalog_, path_.string()).ok());
  // Chop the file mid-way through the second entry.
  std::filesystem::resize_file(path_, std::filesystem::file_size(path_) - 40);

  // The target catalog already holds state; a failed load must not touch
  // it.
  StatsCatalog restored(&t_.db);
  restored.CreateStatistic({t_.fact_grp});
  const uint64_t version_before = restored.stats_version();
  const Status s = LoadCatalog(&restored, path_.string());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find(path_.string()), std::string::npos)
      << s.message();
  EXPECT_EQ(restored.num_active(), 1u);
  EXPECT_FALSE(restored.HasActive(MakeStatKey({t_.fact_val})));
  EXPECT_EQ(restored.stats_version(), version_before);
}

TEST_F(PersistenceTest, FlippedPayloadByteIsRejectedWithPath) {
  catalog_.CreateStatistic({t_.fact_val});
  ASSERT_TRUE(SaveCatalog(catalog_, path_.string()).ok());
  {
    // A zero byte of the payload's stats_version (past the 8-byte file
    // magic and the 12-byte frame header).
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    f.put('\x5A');
  }
  StatsCatalog restored(&t_.db);
  restored.CreateStatistic({t_.fact_grp});
  const uint64_t version_before = restored.stats_version();
  const Status s = LoadCatalog(&restored, path_.string());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find(path_.string()), std::string::npos)
      << s.message();
  EXPECT_EQ(restored.num_active(), 1u);
  EXPECT_EQ(restored.stats_version(), version_before);
}

TEST_F(PersistenceTest, ColumnsOutsideTheDatabaseAreRejected) {
  // Installed, a statistic on a column the database lacks would abort the
  // first Statistic::Name or rebuild. The target has one table of one
  // column: a saved dim.pk names a missing table, fact.flag a missing
  // column of an existing one.
  Database narrow;
  narrow.AddTable(Schema("fact", {{"fk", ValueType::kInt64}}));
  StatsCatalog target(&narrow);
  const uint64_t version_before = target.stats_version();
  for (const ColumnRef& column : {t_.dim_pk, t_.fact_flag}) {
    StatsCatalog source(&t_.db);
    source.CreateStatistic({column});
    ASSERT_TRUE(SaveCatalog(source, path_.string()).ok());
    const Status s = LoadCatalog(&target, path_.string());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find(path_.string()), std::string::npos)
        << s.message();
    EXPECT_EQ(target.num_active(), 0u);
    EXPECT_EQ(target.stats_version(), version_before);
  }
}

TEST_F(PersistenceTest, ReloadBumpsStatsVersionPerReplacedEntry) {
  catalog_.CreateStatistic({t_.fact_val});
  catalog_.CreateStatistic({t_.dim_pk});
  ASSERT_TRUE(SaveCatalog(catalog_, path_.string()).ok());

  // Loading over a live catalog replaces entries in place; every cached
  // plan costed against the old statistics must see a new stats_version.
  const uint64_t before = catalog_.stats_version();
  ASSERT_TRUE(LoadCatalog(&catalog_, path_.string()).ok());
  EXPECT_GE(catalog_.stats_version(), before + 2);
  EXPECT_EQ(catalog_.num_active(), 2u);
}

// --- execution-tree MNSA variant ---

TEST(MnsaEquivalenceTest, ExecutionTreeVariantBuildsAtLeastAsMuch) {
  testing::TwoTableDb t = testing::MakeTwoTableDb(10000, 100);
  Optimizer optimizer(&t.db);
  const Query q = testing::MakeJoinQuery(t);

  StatsCatalog cost_catalog(&t.db);
  MnsaConfig cost_config;
  cost_config.t_percent = 20.0;
  RunMnsa(optimizer, &cost_catalog, q, cost_config);

  StatsCatalog tree_catalog(&t.db);
  MnsaConfig tree_config;
  tree_config.equivalence = EquivalenceKind::kExecutionTree;
  const MnsaResult r = RunMnsa(optimizer, &tree_catalog, q, tree_config);

  // Execution-tree equivalence is the strongest notion (§3.2): it can only
  // demand more statistics than t-cost at t = 20%.
  EXPECT_GE(tree_catalog.num_active(), cost_catalog.num_active());

  // And when it converges, the extreme plans really are the same tree.
  if (r.converged) {
    const OptimizeResult current =
        optimizer.Optimize(q, StatsView(&tree_catalog));
    SelectivityOverrides low, high;
    for (const SelVarBinding& b : current.uncertain) {
      low[b.var] = b.low;
      high[b.var] = b.high;
    }
    EXPECT_EQ(
        optimizer.Optimize(q, StatsView(&tree_catalog), low).plan.Signature(),
        optimizer.Optimize(q, StatsView(&tree_catalog), high)
            .plan.Signature());
  }
}

// --- periodic offline policy ---

TEST(PeriodicPolicyTest, OfflinePassRunsAtInterval) {
  testing::TwoTableDb t = testing::MakeTwoTableDb(5000, 100);
  StatsCatalog catalog(&t.db);
  Optimizer optimizer(&t.db);
  ManagerPolicy policy;
  policy.mode = CreationMode::kPeriodicOffline;
  policy.periodic_interval = 4;
  AutoStatsManager manager(&t.db, &catalog, &optimizer, policy);

  Workload w("w");
  // A selective filter makes the statistics genuinely essential.
  for (int i = 0; i < 8; ++i) w.AddQuery(testing::MakeJoinQuery(t, 1));
  const RunReport report = manager.Run(w);
  // Two passes ran; the essential statistics survive the shrink step.
  EXPECT_GT(report.stats_created, 0);
  EXPECT_GT(catalog.num_active() + catalog.num_drop_listed(), 0u);
  EXPECT_GT(catalog.num_active(), 0u);
}

TEST(PeriodicPolicyTest, NoCreationBeforeFirstPass) {
  testing::TwoTableDb t = testing::MakeTwoTableDb(5000, 100);
  StatsCatalog catalog(&t.db);
  Optimizer optimizer(&t.db);
  ManagerPolicy policy;
  policy.mode = CreationMode::kPeriodicOffline;
  policy.periodic_interval = 100;  // never reached in this run
  AutoStatsManager manager(&t.db, &catalog, &optimizer, policy);
  Workload w("w");
  for (int i = 0; i < 5; ++i) w.AddQuery(testing::MakeFilterQuery(t));
  const RunReport report = manager.Run(w);
  EXPECT_EQ(report.stats_created, 0);
  EXPECT_EQ(catalog.num_active(), 0u);
  EXPECT_GT(report.exec_cost, 0.0);  // queries still executed
}

TEST(PeriodicPolicyTest, ShrinkStepRemovesNonEssential) {
  testing::TwoTableDb t = testing::MakeTwoTableDb(5000, 100);
  Optimizer optimizer(&t.db);
  Workload w("w");
  for (int i = 0; i < 6; ++i) {
    Query q = testing::MakeJoinQuery(t, 10 + i * 10);
    q.AddGroupBy(t.fact_grp);
    w.AddQuery(q);
  }
  auto run = [&](bool shrink) {
    testing::TwoTableDb fresh = testing::MakeTwoTableDb(5000, 100);
    StatsCatalog catalog(&fresh.db);
    Optimizer opt(&fresh.db);
    ManagerPolicy policy;
    policy.mode = CreationMode::kPeriodicOffline;
    policy.periodic_interval = 6;
    policy.periodic_shrink = shrink;
    policy.mnsa.t_percent = 1.0;
    AutoStatsManager manager(&fresh.db, &catalog, &opt, policy);
    manager.Run(w);
    return catalog.num_active();
  };
  EXPECT_LE(run(true), run(false));
}

}  // namespace
}  // namespace autostats
