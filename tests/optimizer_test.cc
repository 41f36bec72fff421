#include <gtest/gtest.h>

#include "optimizer/optimizer.h"
#include "tests/test_util.h"

namespace autostats {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest()
      : t_(testing::MakeTwoTableDb(10000, 100)),
        catalog_(&t_.db),
        optimizer_(&t_.db) {}

  testing::TwoTableDb t_;
  StatsCatalog catalog_;
  Optimizer optimizer_;
};

TEST_F(OptimizerTest, SingleTableScan) {
  const Query q = testing::MakeFilterQuery(t_);
  const OptimizeResult r = optimizer_.Optimize(q, StatsView(&catalog_));
  ASSERT_TRUE(r.plan.valid());
  EXPECT_EQ(r.plan.root->op, PlanOp::kTableScan);
  EXPECT_EQ(r.plan.root->table, t_.fact);
  EXPECT_GT(r.cost, 0.0);
  EXPECT_DOUBLE_EQ(r.cost, r.plan.cost());
}

TEST_F(OptimizerTest, JoinPlanCoversBothTables) {
  const Query q = testing::MakeJoinQuery(t_);
  const OptimizeResult r = optimizer_.Optimize(q, StatsView(&catalog_));
  ASSERT_TRUE(r.plan.valid());
  std::set<TableId> scanned;
  for (const PlanNode* n : r.plan.Nodes()) {
    if (n->table != kInvalidTableId) scanned.insert(n->table);
  }
  EXPECT_TRUE(scanned.count(t_.fact));
  EXPECT_TRUE(scanned.count(t_.dim));
}

TEST_F(OptimizerTest, AggregationPlacedOnTop) {
  const Query q = testing::MakeFilterQuery(t_, 50, /*group=*/true);
  const OptimizeResult r = optimizer_.Optimize(q, StatsView(&catalog_));
  const PlanOp op = r.plan.root->op;
  EXPECT_TRUE(op == PlanOp::kHashAggregate || op == PlanOp::kStreamAggregate);
  EXPECT_EQ(r.plan.root->children.size(), 1u);
}

TEST_F(OptimizerTest, SignatureStableAcrossCalls) {
  const Query q = testing::MakeJoinQuery(t_);
  const OptimizeResult a = optimizer_.Optimize(q, StatsView(&catalog_));
  const OptimizeResult b = optimizer_.Optimize(q, StatsView(&catalog_));
  EXPECT_EQ(a.plan.Signature(), b.plan.Signature());
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST_F(OptimizerTest, SignatureIgnoresCosts) {
  const Query q = testing::MakeJoinQuery(t_);
  const OptimizeResult p = optimizer_.Optimize(q, StatsView(&catalog_));
  OptimizeResult mutated = optimizer_.Optimize(q, StatsView(&catalog_));
  mutated.plan.root->cost_local *= 3.0;
  mutated.plan.root->est_rows += 100.0;
  EXPECT_EQ(mutated.plan.Signature(), p.plan.Signature());
}

TEST_F(OptimizerTest, IndexSeekChosenForSelectivePredicate) {
  t_.db.AddIndex(IndexDef{"ix_val", t_.fact, {t_.fact_val.column}});
  catalog_.CreateStatistic({t_.fact_val});
  Query q("q");
  q.AddTable(t_.fact);
  q.AddFilter({t_.fact_val, CompareOp::kEq, Datum(int64_t{5}), Datum()});
  const OptimizeResult r = optimizer_.Optimize(q, StatsView(&catalog_));
  EXPECT_EQ(r.plan.root->op, PlanOp::kIndexSeek);
  EXPECT_EQ(r.plan.root->index_name, "ix_val");
}

TEST_F(OptimizerTest, ScanChosenForUnselectivePredicate) {
  t_.db.AddIndex(IndexDef{"ix_val", t_.fact, {t_.fact_val.column}});
  catalog_.CreateStatistic({t_.fact_val});
  Query q("q");
  q.AddTable(t_.fact);
  q.AddFilter({t_.fact_val, CompareOp::kGe, Datum(int64_t{1}), Datum()});
  const OptimizeResult r = optimizer_.Optimize(q, StatsView(&catalog_));
  EXPECT_EQ(r.plan.root->op, PlanOp::kTableScan);
}

TEST_F(OptimizerTest, StatsChangeJoinOrderAndCost) {
  // With statistics showing a very selective filter, the plan's estimated
  // cost must drop (more information never raises the estimate here).
  Query q = testing::MakeJoinQuery(t_, /*val_bound=*/1);
  const OptimizeResult magic = optimizer_.Optimize(q, StatsView(&catalog_));
  catalog_.CreateStatistic({t_.fact_val});
  catalog_.CreateStatistic({t_.fact_fk});
  catalog_.CreateStatistic({t_.dim_pk});
  const OptimizeResult with = optimizer_.Optimize(q, StatsView(&catalog_));
  EXPECT_LT(with.cost, magic.cost);
}

TEST_F(OptimizerTest, UncertainBindingsExposedWithoutStats) {
  const Query q = testing::MakeJoinQuery(t_);
  const OptimizeResult r = optimizer_.Optimize(q, StatsView(&catalog_));
  // filter (magic) + join (magic) are uncertain.
  EXPECT_EQ(r.uncertain.size(), 2u);
  catalog_.CreateStatistic({t_.fact_val});
  catalog_.CreateStatistic({t_.fact_fk});
  catalog_.CreateStatistic({t_.dim_pk});
  const OptimizeResult r2 = optimizer_.Optimize(q, StatsView(&catalog_));
  EXPECT_TRUE(r2.uncertain.empty());
}

TEST_F(OptimizerTest, NumCallsCounted) {
  const Query q = testing::MakeFilterQuery(t_);
  const int64_t before = optimizer_.num_calls();
  optimizer_.Optimize(q, StatsView(&catalog_));
  optimizer_.Optimize(q, StatsView(&catalog_));
  EXPECT_EQ(optimizer_.num_calls(), before + 2);
}

// --- cost monotonicity (the assumption MNSA rests on, §4.1) ---

class MonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(MonotonicityTest, CostNonDecreasingInEachVariable) {
  testing::TwoTableDb t = testing::MakeTwoTableDb(5000, 100);
  StatsCatalog catalog(&t.db);
  Optimizer optimizer(&t.db);
  Query q = testing::MakeJoinQuery(t);
  q.AddGroupBy(t.fact_grp);

  const OptimizeResult base = optimizer.Optimize(q, StatsView(&catalog));
  const int var_index = GetParam();
  ASSERT_LT(static_cast<size_t>(var_index), base.uncertain.size());
  const SelVar var = base.uncertain[static_cast<size_t>(var_index)].var;

  double prev_cost = -1.0;
  for (double s : {0.0005, 0.01, 0.05, 0.2, 0.5, 0.8, 0.9995}) {
    SelectivityOverrides ov;
    ov[var] = s;
    const OptimizeResult r = optimizer.Optimize(q, StatsView(&catalog), ov);
    EXPECT_GE(r.cost, prev_cost - 1e-6)
        << "cost decreased when raising selectivity to " << s;
    prev_cost = r.cost;
  }
}

// Sweep every uncertain variable of the join+group query (filter, join,
// group-by).
INSTANTIATE_TEST_SUITE_P(AllVariables, MonotonicityTest,
                         ::testing::Values(0, 1, 2));

TEST_F(OptimizerTest, PlanToStringMentionsOperators) {
  const Query q = testing::MakeJoinQuery(t_);
  const OptimizeResult r = optimizer_.Optimize(q, StatsView(&catalog_));
  const std::string s = r.plan.root->ToString(t_.db, q);
  EXPECT_NE(s.find("Join"), std::string::npos);
  EXPECT_NE(s.find("fact"), std::string::npos);
}

}  // namespace
}  // namespace autostats
