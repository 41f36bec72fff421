#include <gtest/gtest.h>

#include "executor/dml_exec.h"
#include "executor/exec_node.h"
#include "executor/executor.h"
#include "optimizer/optimizer.h"
#include "tests/test_util.h"

namespace autostats {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : t_(testing::MakeTwoTableDb(2000, 40)),
        catalog_(&t_.db),
        optimizer_(&t_.db),
        executor_(&t_.db, optimizer_.cost_model()) {}

  ExecResult Run(const Query& q) {
    const OptimizeResult r = optimizer_.Optimize(q, StatsView(&catalog_));
    return executor_.Execute(q, r.plan);
  }

  testing::TwoTableDb t_;
  StatsCatalog catalog_;
  Optimizer optimizer_;
  Executor executor_;
};

// --- exec-node primitives vs brute force ---

TEST_F(ExecutorTest, FilteredScanCountsMatch) {
  Query q = testing::MakeFilterQuery(t_, 30);
  const Intermediate r =
      ExecFilteredScan(t_.db, q, t_.fact, q.FilterIndicesOf(t_.fact));
  // val = i % 100 < 30 -> 30% of 2000.
  EXPECT_EQ(r.num_stored(), 600u);
  EXPECT_DOUBLE_EQ(r.count(), 600.0);
  EXPECT_EQ(r.tables, std::vector<TableId>{t_.fact});
}

TEST_F(ExecutorTest, HashJoinMatchesBruteForce) {
  Query q = testing::MakeJoinQuery(t_, 100);  // filter passes everything
  const Intermediate fact =
      ExecFilteredScan(t_.db, q, t_.fact, q.FilterIndicesOf(t_.fact));
  const Intermediate dim = ExecFilteredScan(t_.db, q, t_.dim, {});
  const Intermediate joined = ExecHashJoin(t_.db, q, fact, dim, {0});
  // Every fact row matches exactly one dim row (fk = i % 40, pk unique).
  EXPECT_EQ(joined.num_stored(), 2000u);
  EXPECT_DOUBLE_EQ(joined.scale, 1.0);
  EXPECT_EQ(joined.tables.size(), 2u);
  EXPECT_EQ(joined.stride(), 2u);
}

TEST_F(ExecutorTest, JoinWithSelectiveFilter) {
  const Query q = testing::MakeJoinQuery(t_, 10);
  const ExecResult r = Run(q);
  // 10% of fact rows survive; each joins one dim row.
  EXPECT_DOUBLE_EQ(r.output_rows, 200.0);
  EXPECT_GT(r.work_units, 0.0);
}

TEST_F(ExecutorTest, GroupCountsMatch) {
  Query q = testing::MakeFilterQuery(t_, 100, /*group=*/true);
  const ExecResult r = Run(q);
  EXPECT_DOUBLE_EQ(r.output_rows, 10.0);  // grp = i % 10
}

TEST_F(ExecutorTest, CountGroupsMultiColumn) {
  const Intermediate all = ExecFilteredScan(
      t_.db, testing::MakeFilterQuery(t_, 100), t_.fact, {});
  const double groups =
      CountGroups(t_.db, all, {t_.fact_grp, t_.fact_flag});
  // (grp, flag): flag=1 only for i < 100 which covers all 10 grp values;
  // flag=0 also covers all 10 -> 20 combinations.
  EXPECT_DOUBLE_EQ(groups, 20.0);
}

TEST_F(ExecutorTest, IndexSeekPlanExecutesCorrectly) {
  t_.db.AddIndex(IndexDef{"ix_val", t_.fact, {t_.fact_val.column}});
  catalog_.CreateStatistic({t_.fact_val});
  Query q("q");
  q.AddTable(t_.fact);
  q.AddFilter({t_.fact_val, CompareOp::kEq, Datum(int64_t{7}), Datum()});
  const OptimizeResult plan = optimizer_.Optimize(q, StatsView(&catalog_));
  ASSERT_EQ(plan.plan.root->op, PlanOp::kIndexSeek);
  const ExecResult r = executor_.Execute(q, plan.plan);
  EXPECT_DOUBLE_EQ(r.output_rows, 20.0);  // 2000 / 100
}

TEST_F(ExecutorTest, IndexNestedLoopJoinExecutesCorrectly) {
  t_.db.AddIndex(IndexDef{"ix_pk", t_.dim, {t_.dim_pk.column}});
  catalog_.CreateStatistic({t_.fact_val});
  catalog_.CreateStatistic({t_.fact_fk});
  catalog_.CreateStatistic({t_.dim_pk});
  const Query q = testing::MakeJoinQuery(t_, 1);  // 1% of fact
  OptimizerConfig config;
  config.enumerator.enable_hash_join = false;
  config.enumerator.enable_merge_join = false;
  config.enumerator.enable_nested_loop = false;
  Optimizer only_inlj(&t_.db, config);
  const OptimizeResult plan = only_inlj.Optimize(q, StatsView(&catalog_));
  bool has_inlj = false;
  for (const PlanNode* n : plan.plan.Nodes()) {
    if (n->op == PlanOp::kIndexNestedLoopJoin) has_inlj = true;
  }
  ASSERT_TRUE(has_inlj);
  const ExecResult r = executor_.Execute(q, plan.plan);
  EXPECT_DOUBLE_EQ(r.output_rows, 20.0);
}

TEST_F(ExecutorTest, WorseJoinOrderCostsMore) {
  // Force a nested-loop-only optimizer; its plan must charge more work
  // units than the default (hash-join) plan on the same data.
  const Query q = testing::MakeJoinQuery(t_, 100);
  const ExecResult good = Run(q);
  OptimizerConfig config;
  config.enumerator.enable_hash_join = false;
  config.enumerator.enable_merge_join = false;
  config.enumerator.enable_index_nested_loop = false;
  Optimizer nlj_only(&t_.db, config);
  const OptimizeResult bad_plan = nlj_only.Optimize(q, StatsView(&catalog_));
  const ExecResult bad = executor_.Execute(q, bad_plan.plan);
  EXPECT_DOUBLE_EQ(bad.output_rows, good.output_rows);
  EXPECT_GT(bad.work_units, good.work_units);
}

TEST_F(ExecutorTest, MergeJoinProducesSameRowsChargedDifferently) {
  const Query q = testing::MakeJoinQuery(t_, 100);
  OptimizerConfig hash_only;
  hash_only.enumerator = EnumeratorConfig{true, false, false, false, false};
  OptimizerConfig merge_only;
  merge_only.enumerator = EnumeratorConfig{false, true, false, false, false};
  Optimizer hash_opt(&t_.db, hash_only);
  Optimizer merge_opt(&t_.db, merge_only);
  const OptimizeResult hp = hash_opt.Optimize(q, StatsView(&catalog_));
  const OptimizeResult mp = merge_opt.Optimize(q, StatsView(&catalog_));
  const ExecResult he = executor_.Execute(q, hp.plan);
  const ExecResult me = executor_.Execute(q, mp.plan);
  EXPECT_DOUBLE_EQ(he.output_rows, me.output_rows);
  // Merge pays two sorts on these unsorted inputs: more work.
  EXPECT_GT(me.work_units, he.work_units);
}

TEST_F(ExecutorTest, StreamAggregateChargedMoreThanHash) {
  // Force each aggregate kind by constructing the plan node directly.
  Query q = testing::MakeFilterQuery(t_, 100, /*group=*/true);
  const OptimizeResult r = optimizer_.Optimize(q, StatsView(&catalog_));
  ASSERT_EQ(r.plan.root->op, PlanOp::kHashAggregate);
  const double hash_work = executor_.Execute(q, r.plan).work_units;
  OptimizeResult stream = optimizer_.Optimize(q, StatsView(&catalog_));
  stream.plan.root->op = PlanOp::kStreamAggregate;
  const double stream_work = executor_.Execute(q, stream.plan).work_units;
  EXPECT_GT(stream_work, hash_work);  // the sort dominates
}

TEST_F(ExecutorTest, ScaleSurvivesDownstreamOperators) {
  // An explosive join feeding an aggregation: group counting over a
  // sampled intermediate still terminates and reports a sane (sampled)
  // group count.
  Database db;
  const TableId a = db.AddTable(Schema(
      "a", {{"k", ValueType::kInt64}, {"g", ValueType::kInt64}}));
  const TableId b = db.AddTable(Schema("b", {{"k", ValueType::kInt64}}));
  for (int i = 0; i < 2048; ++i) {
    db.mutable_table(a).AppendRow(
        {Datum(int64_t{7}), Datum(int64_t{i % 5})});
    db.mutable_table(b).AppendRow({Datum(int64_t{7})});
  }
  Query q("boomgroup");
  q.AddTable(a);
  q.AddTable(b);
  q.AddJoin(JoinPredicate{{a, 0}, {b, 0}});
  q.AddGroupBy(ColumnRef{a, 1});
  StatsCatalog catalog(&db);
  Optimizer optimizer(&db);
  Executor executor(&db, optimizer.cost_model());
  const OptimizeResult r = optimizer.Optimize(q, StatsView(&catalog));
  const ExecResult e = executor.Execute(q, r.plan);
  // 5 groups; the sampled result may under-count but never exceeds it.
  EXPECT_GE(e.output_rows, 1.0);
  EXPECT_LE(e.output_rows, 5.0);
  EXPECT_GT(e.work_units, 0.0);
}

TEST_F(ExecutorTest, ResultShippingChargedOnActualRows) {
  // Two queries, identical plan shape, different result sizes: work-unit
  // difference equals result_tuple x row difference (same scan, same
  // filter count, no joins).
  Query small("s");
  small.AddTable(t_.fact);
  small.AddFilter({t_.fact_val, CompareOp::kLt, Datum(int64_t{10}),
                   Datum()});
  Query large("l");
  large.AddTable(t_.fact);
  large.AddFilter({t_.fact_val, CompareOp::kLt, Datum(int64_t{90}),
                   Datum()});
  const ExecResult rs = Run(small);
  const ExecResult rl = Run(large);
  const double expected_delta = optimizer_.cost_model().params().result_tuple *
                                (rl.output_rows - rs.output_rows);
  EXPECT_NEAR(rl.work_units - rs.work_units, expected_delta, 1e-9);
}

TEST_F(ExecutorTest, IndexNljResidualFiltersApplied) {
  t_.db.AddIndex(IndexDef{"ix_pk", t_.dim, {t_.dim_pk.column}});
  catalog_.CreateStatistic({t_.fact_val});
  catalog_.CreateStatistic({t_.fact_fk});
  catalog_.CreateStatistic({t_.dim_pk});
  Query q = testing::MakeJoinQuery(t_, 100);
  q.AddFilter({t_.dim_attr, CompareOp::kEq, Datum(int64_t{3}), Datum()});
  OptimizerConfig config;
  config.enumerator = EnumeratorConfig{false, false, false, true, true};
  Optimizer inlj_only(&t_.db, config);
  const OptimizeResult r = inlj_only.Optimize(q, StatsView(&catalog_));
  bool has_inlj = false;
  for (const PlanNode* n : r.plan.Nodes()) {
    if (n->op == PlanOp::kIndexNestedLoopJoin) has_inlj = true;
  }
  ASSERT_TRUE(has_inlj);
  // dim rows with attr == 3: pk in {3, 10, 17, 24, 31, 38} (40 rows, %7).
  // fact rows with fk in that set: 6 * 50 = 300.
  const ExecResult e = executor_.Execute(q, r.plan);
  EXPECT_DOUBLE_EQ(e.output_rows, 300.0);
}

TEST_F(ExecutorTest, ExplosiveJoinSampledWithUnbiasedCount) {
  // A many-to-many join whose true output (2048^2 = 4.2M rows) exceeds the
  // materialization cap: the result must stay bounded while its estimated
  // cardinality stays accurate.
  Database db;
  const TableId a = db.AddTable(Schema("a", {{"k", ValueType::kInt64}}));
  const TableId b = db.AddTable(Schema("b", {{"k", ValueType::kInt64}}));
  for (int i = 0; i < 2048; ++i) {
    db.mutable_table(a).AppendRow({Datum(int64_t{7})});
    db.mutable_table(b).AppendRow({Datum(int64_t{7})});
  }
  Query q("boom");
  q.AddTable(a);
  q.AddTable(b);
  q.AddJoin(JoinPredicate{{a, 0}, {b, 0}});
  const Intermediate left = ExecFilteredScan(db, q, a, {});
  const Intermediate right = ExecFilteredScan(db, q, b, {});
  const Intermediate joined = ExecHashJoin(db, q, left, right, {0});
  EXPECT_LE(joined.num_stored(), kMaxStoredRows);
  EXPECT_GT(joined.scale, 1.0);
  const double truth = 2048.0 * 2048.0;
  EXPECT_NEAR(joined.count(), truth, truth * 0.01);
}

// --- DML execution ---

TEST_F(ExecutorTest, InsertAddsRows) {
  DmlStatement d;
  d.kind = DmlKind::kInsert;
  d.table = t_.fact;
  d.row_count = 50;
  d.seed = 1;
  const size_t before = t_.db.table(t_.fact).num_rows();
  EXPECT_EQ(ApplyDml(&t_.db, d), 50u);
  EXPECT_EQ(t_.db.table(t_.fact).num_rows(), before + 50);
}

TEST_F(ExecutorTest, DeleteRemovesRows) {
  DmlStatement d;
  d.kind = DmlKind::kDelete;
  d.table = t_.fact;
  d.row_count = 30;
  d.seed = 2;
  const size_t before = t_.db.table(t_.fact).num_rows();
  EXPECT_EQ(ApplyDml(&t_.db, d), 30u);
  EXPECT_EQ(t_.db.table(t_.fact).num_rows(), before - 30);
}

TEST_F(ExecutorTest, UpdateKeepsRowCountAndDomain) {
  DmlStatement d;
  d.kind = DmlKind::kUpdate;
  d.table = t_.fact;
  d.update_column = t_.fact_val.column;
  d.row_count = 100;
  d.seed = 3;
  const size_t before = t_.db.table(t_.fact).num_rows();
  EXPECT_EQ(ApplyDml(&t_.db, d), 100u);
  EXPECT_EQ(t_.db.table(t_.fact).num_rows(), before);
  // Values stay in the column's original domain (sampled from it).
  const Column& col = t_.db.table(t_.fact).column(t_.fact_val.column);
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_GE(col.int64_data()[i], 0);
    EXPECT_LT(col.int64_data()[i], 100);
  }
}

TEST_F(ExecutorTest, DmlDeterministicBySeed) {
  testing::TwoTableDb a = testing::MakeTwoTableDb(500, 20);
  testing::TwoTableDb b = testing::MakeTwoTableDb(500, 20);
  DmlStatement d;
  d.kind = DmlKind::kInsert;
  d.table = a.fact;
  d.row_count = 20;
  d.seed = 99;
  ApplyDml(&a.db, d);
  ApplyDml(&b.db, d);
  const Table& ta = a.db.table(a.fact);
  const Table& tb = b.db.table(b.fact);
  ASSERT_EQ(ta.num_rows(), tb.num_rows());
  for (size_t r = 0; r < ta.num_rows(); ++r) {
    EXPECT_EQ(ta.GetCell(r, 0).AsInt64(), tb.GetCell(r, 0).AsInt64());
  }
}

}  // namespace
}  // namespace autostats
