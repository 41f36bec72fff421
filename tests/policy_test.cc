#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/aging.h"
#include "core/auto_manager.h"
#include "core/drop_list.h"
#include "core/mnsa.h"
#include "executor/executor.h"
#include "rags/rags.h"
#include "tests/test_util.h"
#include "tpcd/dbgen.h"
#include "tpcd/schema.h"

namespace autostats {
namespace {

class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest()
      : t_(testing::MakeTwoTableDb(5000, 100)),
        catalog_(&t_.db),
        optimizer_(&t_.db) {}

  testing::TwoTableDb t_;
  StatsCatalog catalog_;
  Optimizer optimizer_;
};

// --- drop-list policy ---

TEST_F(PolicyTest, DropListAgeEviction) {
  catalog_.CreateStatistic({t_.fact_val});
  catalog_.MoveToDropList(MakeStatKey({t_.fact_val}));
  DropListPolicy policy;
  policy.max_age = 10;
  for (int i = 0; i < 5; ++i) catalog_.Tick();
  EXPECT_TRUE(EnforceDropListPolicy(&catalog_, policy).empty());
  for (int i = 0; i < 10; ++i) catalog_.Tick();
  const std::vector<StatKey> deleted =
      EnforceDropListPolicy(&catalog_, policy);
  ASSERT_EQ(deleted.size(), 1u);
  EXPECT_FALSE(catalog_.Exists(deleted[0]));
}

TEST_F(PolicyTest, DropListSizeEviction) {
  catalog_.CreateStatistic({t_.fact_val});
  catalog_.Tick();
  catalog_.CreateStatistic({t_.fact_grp});
  catalog_.Tick();
  catalog_.CreateStatistic({t_.fact_flag});
  catalog_.MoveToDropList(MakeStatKey({t_.fact_val}));
  catalog_.Tick();
  catalog_.MoveToDropList(MakeStatKey({t_.fact_grp}));
  catalog_.Tick();
  catalog_.MoveToDropList(MakeStatKey({t_.fact_flag}));
  DropListPolicy policy;
  policy.max_entries = 1;
  policy.max_age = 1000000;
  const std::vector<StatKey> deleted =
      EnforceDropListPolicy(&catalog_, policy);
  EXPECT_EQ(deleted.size(), 2u);
  // Oldest-dropped evicted first; the newest stays.
  EXPECT_TRUE(catalog_.Exists(MakeStatKey({t_.fact_flag})));
  EXPECT_FALSE(catalog_.Exists(MakeStatKey({t_.fact_val})));
}

// --- aging ---

TEST_F(PolicyTest, AgingDampensRecentDrops) {
  catalog_.CreateStatistic({t_.fact_val});
  const StatKey key = MakeStatKey({t_.fact_val});
  catalog_.MoveToDropList(key);
  AgingPolicy policy;
  policy.cooldown_ticks = 10;
  EXPECT_TRUE(IsDampened(catalog_, key, policy, /*query_cost=*/100.0));
  for (int i = 0; i < 11; ++i) catalog_.Tick();
  EXPECT_FALSE(IsDampened(catalog_, key, policy, 100.0));
}

TEST_F(PolicyTest, AgingBypassedForExpensiveQueries) {
  catalog_.CreateStatistic({t_.fact_val});
  const StatKey key = MakeStatKey({t_.fact_val});
  catalog_.MoveToDropList(key);
  AgingPolicy policy;
  policy.cooldown_ticks = 1000;
  policy.expensive_query_cost = 500.0;
  EXPECT_TRUE(IsDampened(catalog_, key, policy, 100.0));
  EXPECT_FALSE(IsDampened(catalog_, key, policy, 501.0));
}

TEST_F(PolicyTest, NeverDroppedNeverDampened) {
  catalog_.CreateStatistic({t_.fact_val});
  AgingPolicy policy;
  EXPECT_FALSE(IsDampened(catalog_, MakeStatKey({t_.fact_val}), policy, 1.0));
  EXPECT_FALSE(IsDampened(catalog_, "nonexistent", policy, 1.0));
}

// --- AutoStatsManager ---

Workload OneQueryWorkload(const testing::TwoTableDb& t) {
  Workload w("one");
  w.AddQuery(testing::MakeJoinQuery(t));
  return w;
}

TEST_F(PolicyTest, SqlServer7ModeCreatesAllRelevantSingles) {
  ManagerPolicy policy;
  policy.mode = CreationMode::kSqlServer7;
  AutoStatsManager manager(&t_.db, &catalog_, &optimizer_, policy);
  const RunReport report = manager.Run(OneQueryWorkload(t_));
  // join query: val filter + fk + pk join columns = 3 singles.
  EXPECT_EQ(report.stats_created, 3);
  EXPECT_EQ(catalog_.num_active(), 3u);
  EXPECT_GT(report.creation_cost, 0.0);
  EXPECT_EQ(report.num_queries, 1);
}

TEST_F(PolicyTest, NoneModeCreatesNothing) {
  ManagerPolicy policy;
  policy.mode = CreationMode::kNone;
  AutoStatsManager manager(&t_.db, &catalog_, &optimizer_, policy);
  const RunReport report = manager.Run(OneQueryWorkload(t_));
  EXPECT_EQ(report.stats_created, 0);
  EXPECT_DOUBLE_EQ(report.creation_cost, 0.0);
  EXPECT_GT(report.exec_cost, 0.0);
}

TEST_F(PolicyTest, MnsaModeCreatesAtMostBaseline) {
  testing::TwoTableDb t2 = testing::MakeTwoTableDb(5000, 100);
  StatsCatalog catalog2(&t2.db);
  Optimizer optimizer2(&t2.db);
  ManagerPolicy baseline;
  baseline.mode = CreationMode::kSqlServer7;
  AutoStatsManager m1(&t2.db, &catalog2, &optimizer2, baseline);
  const RunReport r1 = m1.Run(OneQueryWorkload(t2));

  ManagerPolicy ours;
  ours.mode = CreationMode::kMnsaOnTheFly;
  AutoStatsManager m2(&t_.db, &catalog_, &optimizer_, ours);
  const RunReport r2 = m2.Run(OneQueryWorkload(t_));
  EXPECT_LE(r2.creation_cost, r1.creation_cost);
}

TEST_F(PolicyTest, DmlTriggersRefresh) {
  ManagerPolicy policy;
  policy.mode = CreationMode::kSqlServer7;
  policy.update_trigger.fraction = 0.01;
  policy.update_trigger.floor = 1;
  AutoStatsManager manager(&t_.db, &catalog_, &optimizer_, policy);
  manager.Process(Statement::MakeQuery(testing::MakeJoinQuery(t_)));
  DmlStatement d;
  d.kind = DmlKind::kInsert;
  d.table = t_.fact;
  d.row_count = 500;  // 10% of fact, above the 1% trigger
  d.seed = 4;
  const AutoStatsManager::Outcome o = manager.Process(Statement::MakeDml(d));
  EXPECT_GT(o.update_cost, 0.0);
  EXPECT_FALSE(o.was_query);
}

TEST_F(PolicyTest, BaselineDropRuleDropsOverUpdatedStats) {
  ManagerPolicy policy;
  policy.mode = CreationMode::kSqlServer7;
  policy.update_trigger.fraction = 0.0;
  policy.update_trigger.floor = 0;
  policy.max_updates_before_drop = 2;
  policy.drop_only_drop_listed = false;  // SQL Server 7.0 behaviour
  AutoStatsManager manager(&t_.db, &catalog_, &optimizer_, policy);
  manager.Process(Statement::MakeQuery(testing::MakeFilterQuery(t_)));
  EXPECT_EQ(catalog_.num_active(), 1u);
  DmlStatement d;
  d.kind = DmlKind::kUpdate;
  d.table = t_.fact;
  d.update_column = t_.fact_val.column;
  d.row_count = 10;
  for (int i = 0; i < 4; ++i) {
    d.seed = static_cast<uint64_t>(i);
    manager.Process(Statement::MakeDml(d));
  }
  // Updated more than twice -> physically dropped.
  EXPECT_EQ(catalog_.num_active(), 0u);
  EXPECT_FALSE(catalog_.Exists(MakeStatKey({t_.fact_val})));
}

TEST_F(PolicyTest, OurDropRuleSparesActiveStats) {
  ManagerPolicy policy;
  policy.mode = CreationMode::kSqlServer7;
  policy.update_trigger.fraction = 0.0;
  policy.update_trigger.floor = 0;
  policy.max_updates_before_drop = 2;
  policy.drop_only_drop_listed = true;  // our improvement
  AutoStatsManager manager(&t_.db, &catalog_, &optimizer_, policy);
  manager.Process(Statement::MakeQuery(testing::MakeFilterQuery(t_)));
  DmlStatement d;
  d.kind = DmlKind::kUpdate;
  d.table = t_.fact;
  d.update_column = t_.fact_val.column;
  d.row_count = 10;
  for (int i = 0; i < 4; ++i) {
    d.seed = static_cast<uint64_t>(i);
    manager.Process(Statement::MakeDml(d));
  }
  // The statistic is useful (not drop-listed), so it survives.
  EXPECT_TRUE(catalog_.HasActive(MakeStatKey({t_.fact_val})));
}

TEST_F(PolicyTest, AgingReducesResurrectionChurn) {
  // With MNSA/D an unhelpful statistic is created and dropped; when the
  // query repeats, aging suppresses the pointless re-creation.
  Query q = testing::MakeJoinQuery(t_);
  q.AddGroupBy(t_.fact_grp);
  Workload w("repeat");
  for (int i = 0; i < 3; ++i) w.AddQuery(q);

  auto run = [&](bool aging) {
    testing::TwoTableDb fresh = testing::MakeTwoTableDb(5000, 100);
    // Rebuild the same query against the fresh database (ids match since
    // construction order is identical).
    StatsCatalog catalog(&fresh.db);
    Optimizer optimizer(&fresh.db);
    ManagerPolicy policy;
    policy.mode = CreationMode::kMnsaDOnTheFly;
    policy.mnsa.t_percent = 0.01;
    policy.enable_aging = aging;
    policy.aging.cooldown_ticks = 1000;
    AutoStatsManager manager(&fresh.db, &catalog, &optimizer, policy);
    return manager.Run(w);
  };
  const RunReport without = run(false);
  const RunReport with = run(true);
  EXPECT_LE(with.stats_created, without.stats_created);
  // Identical execution costs: aging only suppresses churn.
  EXPECT_NEAR(with.exec_cost, without.exec_cost,
              0.05 * without.exec_cost + 1.0);
}

// Whether the manager serves the plan MNSA handed back or optimizes
// afresh, the query executes exactly the plan a fresh Optimize would
// return against the statistics left behind.
TEST(PolicyServingTest, ServedPlanExecutesLikeAFreshOptimize) {
  const Database db = tpcd::BuildTpcdVariant("TPCD_MIX", 0.0005, 42);
  rags::RagsConfig rc;
  rc.num_statements = 40;
  rc.complexity = rags::Complexity::kComplex;
  rc.seed = 9;
  rc.join_edges = tpcd::TpcdForeignKeys(db);
  const Workload w = rags::Generate(db, rc);
  for (const bool aging : {false, true}) {
    for (const CreationMode mode :
         {CreationMode::kMnsaOnTheFly, CreationMode::kMnsaDOnTheFly}) {
      Database run_db = tpcd::BuildTpcdVariant("TPCD_MIX", 0.0005, 42);
      StatsCatalog catalog(&run_db);
      const Optimizer optimizer(&run_db);
      const Executor executor(&run_db, optimizer.cost_model());
      ManagerPolicy policy;
      policy.mode = mode;
      policy.enable_aging = aging;
      policy.aging.cooldown_ticks = 5;
      AutoStatsManager manager(&run_db, &catalog, &optimizer, policy);
      for (const Statement& s : w.statements()) {
        const AutoStatsManager::Outcome outcome = manager.Process(s);
        const OptimizeResult fresh =
            optimizer.Optimize(s.query, StatsView(&catalog));
        ASSERT_EQ(std::bit_cast<uint64_t>(outcome.exec_cost),
                  std::bit_cast<uint64_t>(
                      executor.Execute(s.query, fresh.plan).work_units))
            << s.query.name() << " aging=" << aging;
      }
    }
  }
}

TEST_F(PolicyTest, ReportAggregation) {
  RunReport a;
  a.exec_cost = 10;
  a.stats_created = 2;
  a.num_queries = 1;
  RunReport b;
  b.exec_cost = 5;
  b.num_dml = 3;
  a += b;
  EXPECT_DOUBLE_EQ(a.exec_cost, 15.0);
  EXPECT_EQ(a.num_dml, 3);
  EXPECT_DOUBLE_EQ(PercentReduction(100.0, 60.0), 40.0);
  EXPECT_DOUBLE_EQ(PercentIncrease(100.0, 103.0), 3.0);
  EXPECT_DOUBLE_EQ(PercentReduction(0.0, 5.0), 0.0);
  const std::string s = FormatReport(a);
  EXPECT_NE(s.find("exec="), std::string::npos);
}

TEST_F(PolicyTest, TraceCapturesAllStatements) {
  ManagerPolicy policy;
  policy.mode = CreationMode::kNone;
  AutoStatsManager manager(&t_.db, &catalog_, &optimizer_, policy);
  manager.Process(Statement::MakeQuery(testing::MakeFilterQuery(t_)));
  DmlStatement d;
  d.kind = DmlKind::kInsert;
  d.table = t_.fact;
  d.row_count = 2;
  manager.Process(Statement::MakeDml(d));
  manager.Process(Statement::MakeQuery(testing::MakeJoinQuery(t_)));
  EXPECT_EQ(manager.recorded_trace().size(), 3u);
  EXPECT_EQ(manager.recorded_trace().num_queries(), 2u);
  EXPECT_EQ(manager.recorded_trace().num_dml(), 1u);
  manager.ClearTrace();
  EXPECT_EQ(manager.recorded_trace().size(), 0u);
}

TEST_F(PolicyTest, TraceFeedsOfflineTuning) {
  // The end-to-end loop of §6's conservative policy: serve a stream with
  // no statistics, then tune offline from the recorded trace.
  ManagerPolicy policy;
  policy.mode = CreationMode::kNone;
  AutoStatsManager manager(&t_.db, &catalog_, &optimizer_, policy);
  for (int i = 0; i < 4; ++i) {
    manager.Process(Statement::MakeQuery(testing::MakeJoinQuery(t_, 2)));
  }
  const MnsaResult r = RunMnsaWorkload(optimizer_, &catalog_,
                                       manager.recorded_trace(), {});
  EXPECT_FALSE(r.created.empty());
}

TEST_F(PolicyTest, CreationModeNames) {
  EXPECT_STREQ(CreationModeName(CreationMode::kNone), "none");
  EXPECT_STREQ(CreationModeName(CreationMode::kSqlServer7),
               "sqlserver7-auto-stats");
  EXPECT_STREQ(CreationModeName(CreationMode::kMnsaOnTheFly), "mnsa");
  EXPECT_STREQ(CreationModeName(CreationMode::kMnsaDOnTheFly), "mnsa-d");
}

}  // namespace
}  // namespace autostats
