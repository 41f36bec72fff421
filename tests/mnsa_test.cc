#include <bit>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/mnsa.h"
#include "core/mnsa_d.h"
#include "executor/executor.h"
#include "rags/rags.h"
#include "tests/reference_enumerator.h"
#include "tests/test_util.h"
#include "tpcd/dbgen.h"
#include "tpcd/schema.h"

namespace autostats {
namespace {

class MnsaTest : public ::testing::Test {
 protected:
  MnsaTest()
      : t_(testing::MakeTwoTableDb(10000, 100)),
        catalog_(&t_.db),
        optimizer_(&t_.db) {}

  testing::TwoTableDb t_;
  StatsCatalog catalog_;
  Optimizer optimizer_;
};

TEST_F(MnsaTest, TerminatesAndCreatesSubsetOfCandidates) {
  const Query q = testing::MakeJoinQuery(t_);
  const MnsaResult r = RunMnsa(optimizer_, &catalog_, q, {});
  EXPECT_TRUE(r.converged);
  std::set<StatKey> candidate_keys;
  for (const CandidateStat& c : CandidateStatistics(q)) {
    candidate_keys.insert(c.key());
  }
  for (const StatKey& k : r.created) {
    EXPECT_TRUE(candidate_keys.count(k)) << k;
    EXPECT_TRUE(catalog_.HasActive(k));
  }
  EXPECT_LE(r.created.size(), candidate_keys.size());
}

TEST_F(MnsaTest, HugeThresholdCreatesNothing) {
  const Query q = testing::MakeJoinQuery(t_);
  MnsaConfig config;
  config.t_percent = 1e9;
  const MnsaResult r = RunMnsa(optimizer_, &catalog_, q, config);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.created.empty());
  EXPECT_EQ(catalog_.num_active(), 0u);
  // Only the initial optimize plus one sensitivity pair.
  EXPECT_EQ(r.optimizer_calls, 3);
}

TEST_F(MnsaTest, SensitivityTestHoldsAfterConvergence) {
  // The defining property: after MNSA converges, sweeping the remaining
  // uncertain variables across their bounds moves the cost by <= t%.
  Query q = testing::MakeJoinQuery(t_);
  q.AddGroupBy(t_.fact_grp);
  MnsaConfig config;
  config.t_percent = 20.0;
  const MnsaResult r = RunMnsa(optimizer_, &catalog_, q, config);
  ASSERT_TRUE(r.converged);
  StatsView view(&catalog_);
  const OptimizeResult current = optimizer_.Optimize(q, view);
  SelectivityOverrides low, high;
  for (const SelVarBinding& b : current.uncertain) {
    low[b.var] = b.low;
    high[b.var] = b.high;
  }
  const double c_low = optimizer_.Optimize(q, view, low).cost;
  const double c_high = optimizer_.Optimize(q, view, high).cost;
  EXPECT_LE((c_high - c_low) / std::max(c_low, 1e-9), 0.20 + 1e-9);
}

TEST_F(MnsaTest, ThreeOptimizerCallsPerCreationIteration) {
  const Query q = testing::MakeJoinQuery(t_);
  const MnsaResult r = RunMnsa(optimizer_, &catalog_, q, {});
  // 1 initial call + per iteration: 2 sensitivity calls (+1 re-optimize
  // when something was created).
  EXPECT_LE(r.optimizer_calls, 1 + 3 * r.iterations);
  EXPECT_GE(r.optimizer_calls, 1 + 2 * r.iterations);
}

TEST_F(MnsaTest, JoinStatisticsBuiltAsPair) {
  const Query q = testing::MakeJoinQuery(t_);
  MnsaConfig config;
  config.t_percent = 0.01;  // force building everything relevant
  RunMnsa(optimizer_, &catalog_, q, config);
  // If either join-column statistic exists, its partner must too (§4.2).
  const bool fk = catalog_.HasActive(MakeStatKey({t_.fact_fk}));
  const bool pk = catalog_.HasActive(MakeStatKey({t_.dim_pk}));
  EXPECT_EQ(fk, pk);
  EXPECT_TRUE(fk);
}

TEST_F(MnsaTest, TighterThresholdBuildsAtLeastAsMuch) {
  const Query q = testing::MakeJoinQuery(t_);
  StatsCatalog loose_catalog(&t_.db);
  MnsaConfig loose;
  loose.t_percent = 50.0;
  const MnsaResult r_loose = RunMnsa(optimizer_, &loose_catalog, q, loose);
  StatsCatalog tight_catalog(&t_.db);
  MnsaConfig tight;
  tight.t_percent = 0.1;
  const MnsaResult r_tight = RunMnsa(optimizer_, &tight_catalog, q, tight);
  EXPECT_GE(r_tight.created.size(), r_loose.created.size());
}

TEST_F(MnsaTest, ExistingStatisticsNotRecreated) {
  const Query q = testing::MakeJoinQuery(t_);
  catalog_.CreateStatistic({t_.fact_val});
  catalog_.CreateStatistic({t_.fact_fk});
  catalog_.CreateStatistic({t_.dim_pk});
  const double cost_before = catalog_.total_creation_cost();
  const MnsaResult r = RunMnsa(optimizer_, &catalog_, q, {});
  EXPECT_TRUE(r.created.empty());
  EXPECT_DOUBLE_EQ(catalog_.total_creation_cost(), cost_before);
}

TEST_F(MnsaTest, InsensitivePredicateSkipped) {
  // Example 2's scenario: a statistic shows one predicate (val < 1) is
  // extremely selective, so the plan barely depends on the selectivity of
  // the other, statistics-less predicate (grp = 3) — MNSA skips it.
  Query q = testing::MakeJoinQuery(t_, /*val_bound=*/1);
  q.AddFilter({t_.fact_grp, CompareOp::kEq, Datum(int64_t{3}), Datum()});
  catalog_.CreateStatistic({t_.fact_val});
  catalog_.CreateStatistic({t_.fact_fk});
  catalog_.CreateStatistic({t_.dim_pk});
  MnsaConfig config;
  config.t_percent = 20.0;
  const MnsaResult r = RunMnsa(optimizer_, &catalog_, q, config);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.created.empty());
  EXPECT_FALSE(catalog_.HasActive(MakeStatKey({t_.fact_grp})));
  // With a strict threshold the same statistic IS built.
  MnsaConfig strict;
  strict.t_percent = 0.01;
  RunMnsa(optimizer_, &catalog_, q, strict);
  EXPECT_TRUE(catalog_.HasActive(MakeStatKey({t_.fact_grp})));
}

TEST_F(MnsaTest, SmallTableCandidatesBuiltOutright) {
  Query q = testing::MakeJoinQuery(t_);
  q.AddFilter({t_.dim_attr, CompareOp::kEq, Datum(int64_t{3}), Datum()});
  MnsaConfig config;
  config.t_percent = 1e9;  // sensitivity test would never build anything
  config.small_table_rows = 1000;  // dim has 100 rows < 1000
  const MnsaResult r = RunMnsa(optimizer_, &catalog_, q, config);
  EXPECT_TRUE(catalog_.HasActive(MakeStatKey({t_.dim_attr})));
  EXPECT_TRUE(catalog_.HasActive(MakeStatKey({t_.dim_pk})));
  EXPECT_FALSE(catalog_.HasActive(MakeStatKey({t_.fact_val})));
  EXPECT_EQ(r.created.size(), 2u);
}

TEST_F(MnsaTest, CreationFilterVetoes) {
  const Query q = testing::MakeJoinQuery(t_);
  MnsaConfig config;
  config.creation_filter = [](const std::vector<ColumnRef>&) {
    return false;
  };
  const MnsaResult r = RunMnsa(optimizer_, &catalog_, q, config);
  EXPECT_TRUE(r.created.empty());
  EXPECT_EQ(catalog_.num_active(), 0u);
  EXPECT_FALSE(r.converged);  // stopped without passing the test
}

TEST_F(MnsaTest, CustomCandidateGenerator) {
  const Query q = testing::MakeJoinQuery(t_);
  MnsaConfig config;
  config.t_percent = 0.01;
  // Single-column-only variant (§8.2).
  config.candidates = [](const Query& query) {
    std::vector<CandidateStat> out;
    for (const ColumnRef& c : query.RelevantColumns()) {
      out.push_back({{c}, CandidateStat::Origin::kSingleColumn});
    }
    return out;
  };
  const MnsaResult r = RunMnsa(optimizer_, &catalog_, q, config);
  for (const StatKey& k : r.created) {
    EXPECT_EQ(catalog_.FindEntry(k)->stat.width(), 1) << k;
  }
}

TEST_F(MnsaTest, WorkloadSharesStatistics) {
  Workload w("w");
  w.AddQuery(testing::MakeJoinQuery(t_, 30));
  w.AddQuery(testing::MakeJoinQuery(t_, 60));  // same relevant columns
  const MnsaResult r = RunMnsaWorkload(optimizer_, &catalog_, w, {});
  // The second query reuses the first one's statistics: created keys are
  // unique.
  std::set<StatKey> unique(r.created.begin(), r.created.end());
  EXPECT_EQ(unique.size(), r.created.size());
}

// --- MNSA/D ---

TEST_F(MnsaTest, MnsaDDropsAreSubsetOfCreated) {
  Query q = testing::MakeJoinQuery(t_);
  q.AddGroupBy(t_.fact_grp);
  MnsaConfig config;
  config.t_percent = 0.01;  // build aggressively so some are non-essential
  const MnsaResult r = RunMnsaD(optimizer_, &catalog_, q, config);
  const std::set<StatKey> created(r.created.begin(), r.created.end());
  for (const StatKey& k : r.dropped) {
    EXPECT_TRUE(created.count(k)) << k;
    EXPECT_FALSE(catalog_.HasActive(k));
    EXPECT_TRUE(catalog_.Exists(k));  // drop-listed, not deleted
  }
  EXPECT_EQ(catalog_.num_drop_listed(), r.dropped.size());
}

TEST_F(MnsaTest, MnsaDPreservesPlanQuality) {
  // The plan with MNSA/D's surviving statistics equals the plan MNSA
  // produces (drop detection only removes statistics that did not change
  // the plan when added).
  const Query q = testing::MakeJoinQuery(t_);
  StatsCatalog mnsa_catalog(&t_.db);
  RunMnsa(optimizer_, &mnsa_catalog, q, {});
  const std::string mnsa_plan =
      optimizer_.Optimize(q, StatsView(&mnsa_catalog)).plan.Signature();

  StatsCatalog mnsad_catalog(&t_.db);
  RunMnsaD(optimizer_, &mnsad_catalog, q, {});
  const std::string mnsad_plan =
      optimizer_.Optimize(q, StatsView(&mnsad_catalog)).plan.Signature();
  EXPECT_EQ(mnsa_plan, mnsad_plan);
}

TEST_F(MnsaTest, MnsaDReducesActiveStatistics) {
  Query q = testing::MakeJoinQuery(t_);
  q.AddGroupBy(t_.fact_grp);
  MnsaConfig config;
  config.t_percent = 0.01;
  StatsCatalog a(&t_.db), b(&t_.db);
  RunMnsa(optimizer_, &a, q, config);
  RunMnsaD(optimizer_, &b, q, config);
  EXPECT_LE(b.num_active(), a.num_active());
}

TEST_F(MnsaTest, ExecutionTreeVariantStopsWhenPlanShapeIsSettled) {
  // The execution-tree variant terminates exactly when the extreme plans
  // are the same tree — the selectivity sweep can no longer change WHICH
  // plan is chosen, even if it still changes the cost estimate. (It can
  // therefore stop earlier OR later than the t-cost test; the two notions
  // rank plans differently, §3.2.)
  Query q = testing::MakeJoinQuery(t_);
  q.AddGroupBy(t_.fact_grp);
  StatsCatalog tree_cat(&t_.db);
  MnsaConfig tree_cfg;
  tree_cfg.equivalence = EquivalenceKind::kExecutionTree;
  const MnsaResult r = RunMnsa(optimizer_, &tree_cat, q, tree_cfg);
  ASSERT_TRUE(r.converged);
  const StatsView view(&tree_cat);
  const OptimizeResult current = optimizer_.Optimize(q, view);
  SelectivityOverrides low, high;
  for (const SelVarBinding& b : current.uncertain) {
    low[b.var] = b.low;
    high[b.var] = b.high;
  }
  EXPECT_EQ(optimizer_.Optimize(q, view, low).plan.Signature(),
            optimizer_.Optimize(q, view, high).plan.Signature());
}

TEST_F(MnsaTest, OptimizerCostEquivalenceVariant) {
  const Query q = testing::MakeJoinQuery(t_);
  MnsaConfig config;
  config.equivalence = EquivalenceKind::kOptimizerCost;  // t effectively 0
  const MnsaResult r = RunMnsa(optimizer_, &catalog_, q, config);
  EXPECT_LE(r.iterations, config.max_iterations);
  // kOptimizerCost demands exact cost equality of the extreme plans: at
  // least as many statistics as t = 20%.
  StatsCatalog loose(&t_.db);
  MnsaConfig twenty;
  RunMnsa(optimizer_, &loose, q, twenty);
  EXPECT_GE(catalog_.num_active(), loose.num_active());
}

TEST_F(MnsaTest, ResurrectionInsteadOfRebuild) {
  // A statistic on the drop-list is resurrected at zero cost when MNSA
  // needs it again (§5).
  const Query q = testing::MakeFilterQuery(t_, 1);
  MnsaConfig strict;
  strict.t_percent = 0.01;
  const MnsaResult first = RunMnsa(optimizer_, &catalog_, q, strict);
  ASSERT_FALSE(first.created.empty());
  for (const StatKey& k : first.created) catalog_.MoveToDropList(k);
  const double cost_before = catalog_.total_creation_cost();
  const MnsaResult second = RunMnsa(optimizer_, &catalog_, q, strict);
  EXPECT_FALSE(second.created.empty());
  EXPECT_DOUBLE_EQ(second.creation_cost, 0.0);  // resurrection is free
  EXPECT_DOUBLE_EQ(catalog_.total_creation_cost(), cost_before);
}

class MnsaServedPlanTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// The plan RunMnsa hands back is served in place of a fresh Optimize, so
// it must be that result exactly: same tree, same costs, bit for bit.
// MNSA/D drops and builds after MNSA's last default-magic probe void the
// plan, so both the handed-back path and the fallback path must run.
TEST_F(MnsaServedPlanTest, HandedBackPlanEqualsFreshOptimize) {
  const Database db = tpcd::BuildTpcdVariant("TPCD_MIX", 0.0005, 42);
  const Optimizer optimizer(&db);
  int64_t handed_back = 0;
  int64_t fell_back = 0;
  int64_t builds_failed = 0;
  for (const bool faulted : {false, true}) {
    for (const bool drop_detection : {false, true}) {
      for (const rags::Complexity complexity :
           {rags::Complexity::kSimple, rags::Complexity::kComplex}) {
        FaultInjector::Instance().Reset();
        if (faulted) {
          // Some builds exhaust their retries: the analysis carries on
          // with those predicates on magic numbers.
          FaultSchedule schedule;
          schedule.kind = FaultKind::kFailProbability;
          schedule.probability = 0.5;
          schedule.seed = 3;
          FaultInjector::Instance().Arm(faults::kStatsCreate, schedule);
        }
        rags::RagsConfig rc;
        rc.num_statements = 30;
        rc.complexity = complexity;
        rc.seed = 5;
        rc.join_edges = tpcd::TpcdForeignKeys(db);
        const Workload w = rags::Generate(db, rc);
        StatsCatalog catalog(&db);
        MnsaConfig config;
        config.drop_detection = drop_detection;
        for (const Query* q : w.Queries()) {
          OptimizeResult served;
          builds_failed +=
              RunMnsa(optimizer, &catalog, *q, config, &served).builds_failed;
          if (!served.plan.valid()) {
            ++fell_back;
            continue;
          }
          ++handed_back;
          const OptimizeResult fresh =
              optimizer.Optimize(*q, StatsView(&catalog));
          ASSERT_EQ(testing::PlanDiff(*served.plan.root, *fresh.plan.root),
                    "")
              << q->name();
          ASSERT_EQ(std::bit_cast<uint64_t>(served.cost),
                    std::bit_cast<uint64_t>(fresh.cost))
              << q->name();
        }
      }
    }
  }
  EXPECT_GT(handed_back, 0);
  EXPECT_GT(fell_back, 0);
  EXPECT_GT(builds_failed, 0);  // the armed schedule did fire
}

TEST_F(MnsaTest, MergeAccumulates) {
  MnsaResult a, b;
  a.converged = true;
  a.created = {"1:0"};
  a.creation_cost = 5.0;
  a.optimizer_calls = 4;
  b.converged = true;
  b.created = {"1:1"};
  b.creation_cost = 7.0;
  b.optimizer_calls = 1;
  b.iterations = 2;
  a.Merge(b);
  EXPECT_EQ(a.created.size(), 2u);
  EXPECT_DOUBLE_EQ(a.creation_cost, 12.0);
  EXPECT_EQ(a.optimizer_calls, 5);
  EXPECT_EQ(a.iterations, 2);
  EXPECT_TRUE(a.converged);
}

}  // namespace
}  // namespace autostats
