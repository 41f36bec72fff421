#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/mnsa.h"
#include "executor/dml_exec.h"
#include "executor/exec_node.h"
#include "executor/executor.h"
#include "optimizer/join_graph.h"
#include "optimizer/optimizer.h"
#include "rags/rags.h"
#include "tests/reference_executor.h"
#include "tests/test_util.h"
#include "tpcd/dbgen.h"
#include "tpcd/schema.h"
#include "tpcd/tuning.h"

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

// --- Typed kernels vs the Datum-per-cell reference (reference_executor.h) ---

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

// Empty when the two analyzed runs agree bit for bit: totals, and every
// node's actual rows and own work, in the same pre-order.
std::string AnalyzedDiff(const AnalyzedResult& got,
                         const AnalyzedResult& want) {
  if (Bits(got.result.work_units) != Bits(want.result.work_units)) {
    return "work_units";
  }
  if (Bits(got.result.output_rows) != Bits(want.result.output_rows)) {
    return "output_rows";
  }
  if (got.nodes.size() != want.nodes.size()) return "node count";
  for (size_t i = 0; i < got.nodes.size(); ++i) {
    const NodeActuals& g = got.nodes[i];
    const NodeActuals& w = want.nodes[i];
    const std::string at = " at node " + std::to_string(i);
    if (g.node != w.node) return "node order" + at;
    if (Bits(g.actual_rows) != Bits(w.actual_rows)) return "actual_rows" + at;
    if (Bits(g.work) != Bits(w.work)) return "work" + at;
  }
  return "";
}

TEST(ExecutorReferenceTest, MatchesReferenceBitForBit) {
  struct Config {
    const char* name;
    EnumeratorConfig config;
    bool connected_only;  // no join method that works on a cross product
  };
  const Config configs[] = {
      {"default", {}, false},
      {"hash_only", {true, false, false, false, false}, true},
      {"merge_only", {false, true, false, false, false}, true},
      {"nlj_only", {false, false, true, false, false}, false},
      {"inlj_or_nlj", {false, false, true, true, false}, false},
  };
  int64_t compared = 0;
  std::set<PlanOp> ops;
  for (const bool indexed : {false, true}) {
    Database db = tpcd::BuildTpcdVariant("TPCD_MIX", 0.0005, 42);
    if (indexed) tpcd::ApplyTunedIndexes(&db);
    const Optimizer optimizer(&db);
    const CostModel& cost = optimizer.cost_model();
    const Executor executor(&db, cost);
    for (const rags::Complexity complexity :
         {rags::Complexity::kSimple, rags::Complexity::kComplex}) {
      rags::RagsConfig rc;
      rc.num_statements = 30;
      rc.complexity = complexity;
      rc.seed = 11;
      rc.join_edges = tpcd::TpcdForeignKeys(db);
      const Workload w = rags::Generate(db, rc);
      // The catalog evolves under MNSA/D as the stream is processed, so
      // later queries run plans chosen on histograms, densities and drops.
      StatsCatalog catalog(&db);
      MnsaConfig mnsa_d;
      mnsa_d.drop_detection = true;
      for (const Query* q : w.Queries()) {
        const bool connected =
            JoinGraph(*q).IsConnected((1u << q->num_tables()) - 1u);
        for (const Config& c : configs) {
          if (c.connected_only && !connected) continue;
          OptimizerConfig oc;
          oc.enumerator = c.config;
          const Optimizer planner(&db, oc);
          Plan plan = std::move(planner.Optimize(*q, StatsView(&catalog)).plan);
          // An aggregate runs as both kinds, so each is compared.
          const int runs = q->has_grouping() ? 2 : 1;
          for (int run = 0; run < runs; ++run) {
            if (run == 1) {
              plan.root->op = plan.root->op == PlanOp::kHashAggregate
                                  ? PlanOp::kStreamAggregate
                                  : PlanOp::kHashAggregate;
            }
            const ExecResult got = executor.Execute(*q, plan);
            const ExecResult want =
                testing::ReferenceExecute(db, cost, *q, plan);
            ASSERT_EQ(Bits(got.work_units), Bits(want.work_units))
                << q->name() << " config=" << c.name;
            ASSERT_EQ(Bits(got.output_rows), Bits(want.output_rows))
                << q->name() << " config=" << c.name;
            ASSERT_EQ(AnalyzedDiff(executor.ExecuteAnalyzed(*q, plan),
                                   testing::ReferenceExecuteAnalyzed(
                                       db, cost, *q, plan)),
                      "")
                << q->name() << " config=" << c.name;
            ++compared;
            for (const PlanNode* n : plan.Nodes()) ops.insert(n->op);
          }
        }
        RunMnsa(optimizer, &catalog, *q, mnsa_d);
      }
    }
  }
  EXPECT_GT(compared, 500);
  for (const PlanOp op :
       {PlanOp::kTableScan, PlanOp::kIndexSeek, PlanOp::kNestedLoopJoin,
        PlanOp::kIndexNestedLoopJoin, PlanOp::kHashJoin, PlanOp::kMergeJoin,
        PlanOp::kHashAggregate, PlanOp::kStreamAggregate}) {
    EXPECT_EQ(ops.count(op), 1u) << PlanOpName(op) << " never ran";
  }
}

// Past kMaxStoredRows the appender keeps every other emitted tuple, so the
// stored sample depends on the order matches are emitted in: it must be
// the reference's, tuple for tuple.
TEST(ExecutorReferenceTest, SampledJoinMatchesReferenceTupleForTuple) {
  for (const bool two_parts : {false, true}) {
    SCOPED_TRACE(two_parts ? "two key parts" : "one key part");
    Database db;
    const Schema schema("t", {{"k", ValueType::kInt64},
                              {"s", ValueType::kString}});
    const TableId a = db.AddTable(schema);
    const TableId b = db.AddTable(Schema(schema));
    // One key part: 2048 x 2048 rows on one key. Two: 3000 x 3000 rows on
    // (7, "even" | "odd"), two 1500 x 1500 blocks.
    const int n = two_parts ? 3000 : 2048;
    for (int i = 0; i < n; ++i) {
      const std::string s = i % 2 == 0 ? "even" : "odd";
      db.mutable_table(a).AppendRow({Datum(int64_t{7}), Datum(s)});
      db.mutable_table(b).AppendRow({Datum(int64_t{7}), Datum(s)});
    }
    Query q("boom");
    q.AddTable(a);
    q.AddTable(b);
    q.AddJoin(JoinPredicate{{a, 0}, {b, 0}});
    if (two_parts) q.AddJoin(JoinPredicate{{a, 1}, {b, 1}});
    const std::vector<int> joins =
        two_parts ? std::vector<int>{0, 1} : std::vector<int>{0};
    const Intermediate left = ExecFilteredScan(db, q, a, {});
    const Intermediate right = ExecFilteredScan(db, q, b, {});
    const Intermediate got = ExecHashJoin(db, q, left, right, joins);
    const Intermediate want =
        testing::ReferenceHashJoin(db, q, left, right, joins);
    EXPECT_GT(got.scale, 1.0);
    EXPECT_EQ(Bits(got.scale), Bits(want.scale));
    EXPECT_EQ(got.tables, want.tables);
    ASSERT_EQ(got.data.size(), want.data.size());
    EXPECT_TRUE(got.data == want.data);
  }
}

TEST(ExecutorReferenceTest, TypedFiltersMatchDatumSemantics) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<int64_t> ints = {-5, -1, 0, 1, 3, 7,
                                     std::numeric_limits<int64_t>::max()};
  const std::vector<double> doubles = {nan, -0.0, 0.0, inf, -inf, 1.5, -2.25,
                                       3.0};
  const std::vector<std::string> strings = {
      "", "a", "ab", "abc", "b", "Z", "abcdefghijklmnop",
      "abcdefghijklmnopq", "abcdefghijklmnopqrstuvwxyz"};
  Database db;
  const TableId t = db.AddTable(Schema("typed", {{"i", ValueType::kInt64},
                                                 {"d", ValueType::kDouble},
                                                 {"s", ValueType::kString}}));
  for (size_t r = 0; r < 72; ++r) {
    db.mutable_table(t).AppendRow({Datum(ints[r % ints.size()]),
                                   Datum(doubles[r % doubles.size()]),
                                   Datum(strings[r % strings.size()])});
  }
  // Literals of every type on every column. Datum orders values of
  // different types by type (BIGINT < DOUBLE < VARCHAR); that order is
  // only reachable with DCHECKs off, which is how every preset builds.
  std::vector<Datum> literals;
  for (const int64_t v : {int64_t{-1}, int64_t{0}, int64_t{3}}) {
    literals.emplace_back(v);
  }
  for (const double v : {nan, -0.0, 0.0, inf, -inf, 1.5}) {
    literals.emplace_back(v);
  }
  for (const char* v : {"", "ab", "abcdefghijklmnopq", "zz"}) {
    literals.emplace_back(std::string(v));
  }
  const Table& table = db.table(t);
  int64_t checked = 0;
  for (ColumnId c = 0; c < 3; ++c) {
    const ColumnRef column{t, c};
    for (const CompareOp op :
         {CompareOp::kEq, CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
          CompareOp::kGe, CompareOp::kBetween}) {
      for (const Datum& lo : literals) {
        for (const Datum& hi : literals) {
          if (op != CompareOp::kBetween && &hi != &literals.front()) break;
#ifndef NDEBUG
          if (lo.type() != table.column(c).type() ||
              hi.type() != table.column(c).type()) {
            if (op != CompareOp::kEq) continue;
          }
#endif
          Query q("typed");
          q.AddTable(t);
          q.AddFilter({column, op, lo, op == CompareOp::kBetween ? hi
                                                               : Datum()});
          // A second filter on another column: the index seek's residual.
          if (c == 0) {
            q.AddFilter({ColumnRef{t, 2}, CompareOp::kGe,
                         Datum(std::string("ab")), Datum()});
          } else {
            q.AddFilter({ColumnRef{t, 0}, CompareOp::kLe, Datum(int64_t{3}),
                         Datum()});
          }
          const FilterPredicate& f = q.filters()[0];
          const FilterPredicate& residual = q.filters()[1];
          std::vector<uint32_t> want, want_both;
          for (uint32_t r = 0; r < table.num_rows(); ++r) {
            const bool match = f.Matches(table.GetCell(r, c));
            ASSERT_EQ(FilterMatchesCell(f, table.column(c), r), match)
                << f.ToString(db) << " row " << r;
            if (!match) continue;
            want.push_back(r);
            if (residual.Matches(table.GetCell(r, residual.column.column))) {
              want_both.push_back(r);
            }
          }
          ASSERT_EQ(ExecFilteredScan(db, q, t, {0}).data, want)
              << f.ToString(db);
          EXPECT_EQ(ExecFilteredScan(db, q, t, {0, 1}).data, want_both)
              << f.ToString(db);
          double matched = -1.0;
          EXPECT_EQ(ExecIndexSeek(db, q, t, column, {0, 1}, &matched).data,
                    want_both)
              << f.ToString(db);
          EXPECT_EQ(matched, static_cast<double>(want.size()));
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 400);
}


// Empty when every cell of the two databases is equal (doubles by bit
// pattern).
std::string CellDiff(const Database& got, const Database& want) {
  if (got.num_tables() != want.num_tables()) return "table count";
  for (TableId t = 0; t < got.num_tables(); ++t) {
    const Table& g = got.table(t);
    const Table& w = want.table(t);
    const std::string name = g.schema().table_name();
    if (g.num_rows() != w.num_rows()) return name + " row count";
    for (ColumnId c = 0; c < g.schema().num_columns(); ++c) {
      const Column& gc = g.column(c);
      const Column& wc = w.column(c);
      const std::string at = name + " column " + std::to_string(c);
      switch (gc.type()) {
        case ValueType::kInt64:
          if (gc.int64_data() != wc.int64_data()) return at;
          break;
        case ValueType::kDouble:
          for (size_t r = 0; r < g.num_rows(); ++r) {
            if (Bits(gc.double_data()[r]) != Bits(wc.double_data()[r])) {
              return at;
            }
          }
          break;
        case ValueType::kString:
          if (gc.string_data() != wc.string_data()) return at;
          break;
      }
    }
  }
  return "";
}

// Empty when the two stores track the same tables with the same validity
// and the same compacted runs per column.
std::string DeltaDiff(const Database& db, DeltaStore* got, DeltaStore* want) {
  if (got->TrackedTables() != want->TrackedTables()) return "tracked tables";
  for (TableId t = 0; t < db.num_tables(); ++t) {
    if (got->Valid(t) != want->Valid(t)) return "validity";
    for (ColumnId c = 0; c < db.table(t).schema().num_columns(); ++c) {
      DeltaSketch* g = got->Find(t, c);
      DeltaSketch* w = want->Find(t, c);
      const std::string at =
          "table " + std::to_string(t) + " column " + std::to_string(c);
      if ((g == nullptr) != (w == nullptr)) return "sketch presence at " + at;
      if (g == nullptr) continue;
      if (g->rows_touched() != w->rows_touched()) return "rows at " + at;
      const std::vector<ValueDelta>& gr = g->runs();
      const std::vector<ValueDelta>& wr = w->runs();
      if (gr.size() != wr.size()) return "run count at " + at;
      for (size_t i = 0; i < gr.size(); ++i) {
        if (Bits(gr[i].value) != Bits(wr[i].value) ||
            gr[i].count != wr[i].count) {
          return "run " + std::to_string(i) + " at " + at;
        }
      }
    }
  }
  return "";
}

TEST(ExecutorReferenceTest, DmlMatchesReferenceCellForCell) {
  for (const bool with_deltas : {false, true}) {
    SCOPED_TRACE(with_deltas ? "deltas on" : "deltas off");
    Database got = tpcd::BuildTpcdVariant("TPCD_MIX", 0.0005, 42);
    Database want = tpcd::BuildTpcdVariant("TPCD_MIX", 0.0005, 42);
    rags::RagsConfig rc;
    rc.num_statements = 200;
    rc.update_fraction = 1.0;
    rc.seed = 23;
    rc.join_edges = tpcd::TpcdForeignKeys(got);
    const Workload w = rags::Generate(got, rc);
    DeltaStore got_deltas, want_deltas;
    std::set<DmlKind> kinds;
    for (const Statement& st : w.statements()) {
      ASSERT_EQ(st.kind, Statement::Kind::kDml);
      const DmlStatement& dml = st.dml;
      kinds.insert(dml.kind);
      const size_t g =
          ApplyDml(&got, dml, with_deltas ? &got_deltas : nullptr);
      const size_t r = testing::ReferenceApplyDml(
          &want, dml, with_deltas ? &want_deltas : nullptr);
      ASSERT_EQ(g, r) << dml.ToString(got);
      ASSERT_EQ(CellDiff(got, want), "") << dml.ToString(got);
      ASSERT_EQ(DeltaDiff(got, &got_deltas, &want_deltas), "")
          << dml.ToString(got);
    }
    EXPECT_EQ(kinds.size(), 3u);
    EXPECT_EQ(got_deltas.TrackedTables().empty(), !with_deltas);
  }

  // A statement that records nothing leaves its table untracked.
  testing::TwoTableDb t = testing::MakeTwoTableDb(100, 10);
  const TableId empty =
      t.db.AddTable(Schema("empty", {{"k", ValueType::kInt64}}));
  DeltaStore deltas;
  DmlStatement none;
  none.kind = DmlKind::kInsert;
  none.table = t.fact;
  none.row_count = 0;
  EXPECT_EQ(ApplyDml(&t.db, none, &deltas), 0u);
  EXPECT_FALSE(deltas.Tracked(t.fact));
  for (const DmlKind kind :
       {DmlKind::kInsert, DmlKind::kUpdate, DmlKind::kDelete}) {
    DmlStatement d;
    d.kind = kind;
    d.table = empty;
    d.row_count = 5;
    EXPECT_EQ(ApplyDml(&t.db, d, &deltas), 0u);
    EXPECT_EQ(testing::ReferenceApplyDml(&t.db, d, &deltas), 0u);
  }
  EXPECT_TRUE(deltas.TrackedTables().empty());
  EXPECT_EQ(t.db.table(empty).num_rows(), 0u);
}

}  // namespace
}  // namespace autostats
