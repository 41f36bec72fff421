// Structural assertions for every TPC-D query rendering: join-graph
// shape, predicate and grouping columns, candidate-statistics counts, and
// the end-to-end MNSA behaviour on each.
#include <gtest/gtest.h>

#include "core/candidate.h"
#include "core/mnsa.h"
#include "executor/executor.h"
#include "optimizer/join_graph.h"
#include "optimizer/optimizer.h"
#include "tpcd/dbgen.h"
#include "tpcd/queries.h"
#include "tpcd/schema.h"
#include "tpcd/text_pools.h"

namespace autostats {
namespace {

const Database& Db() {
  static const Database& db = *new Database([] {
    tpcd::TpcdConfig c;
    c.scale_factor = 0.001;
    c.skew_mode = tpcd::SkewMode::kMixed;
    return tpcd::BuildTpcd(c);
  }());
  return db;
}

struct Shape {
  int number;
  int tables;
  int joins;
  int filters;
  bool grouped;
};

// The expected structure of each query (from the TPC-D definitions as
// flattened in tpcd/queries.cc).
constexpr Shape kShapes[] = {
    {1, 1, 0, 1, true},  {2, 5, 4, 2, false}, {3, 3, 2, 3, true},
    {4, 2, 1, 2, true},  {5, 6, 6, 2, true},  {6, 1, 0, 3, false},
    {7, 5, 4, 2, true},  {8, 7, 6, 3, true},  {9, 6, 6, 1, true},
    {10, 4, 3, 2, true}, {11, 3, 2, 1, true}, {12, 2, 1, 2, true},
    {13, 2, 1, 1, true}, {14, 2, 1, 1, false}, {15, 2, 1, 1, true},
    {16, 2, 1, 2, true}, {17, 2, 1, 3, false},
};

class TpcdShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(TpcdShapeTest, StructureMatchesDefinition) {
  const Shape& s = GetParam();
  const Query q = tpcd::TpcdQuery(Db(), s.number);
  EXPECT_EQ(q.num_tables(), s.tables);
  EXPECT_EQ(static_cast<int>(q.joins().size()), s.joins);
  EXPECT_EQ(static_cast<int>(q.filters().size()), s.filters);
  EXPECT_EQ(q.has_grouping(), s.grouped);
}

TEST_P(TpcdShapeTest, JoinGraphConnected) {
  const Query q = tpcd::TpcdQuery(Db(), GetParam().number);
  const JoinGraph graph(q);
  const uint32_t full = (1u << q.num_tables()) - 1u;
  EXPECT_TRUE(graph.IsConnected(full)) << "Q" << GetParam().number;
}

TEST_P(TpcdShapeTest, CandidatesCoverRelevantColumns) {
  const Query q = tpcd::TpcdQuery(Db(), GetParam().number);
  const std::vector<CandidateStat> cands = CandidateStatistics(q);
  // Every relevant column appears as a single-column candidate.
  for (const ColumnRef& c : q.RelevantColumns()) {
    bool found = false;
    for (const CandidateStat& cand : cands) {
      if (cand.columns.size() == 1 && cand.columns[0] == c) found = true;
    }
    EXPECT_TRUE(found) << Db().ColumnName(c);
  }
  // Candidates never exceed the exhaustive space.
  EXPECT_LE(cands.size(), ExhaustiveStatistics(q).size());
}

TEST_P(TpcdShapeTest, MnsaBoundedAndPlanStable) {
  const Query q = tpcd::TpcdQuery(Db(), GetParam().number);
  StatsCatalog catalog(&Db());
  Optimizer optimizer(&Db());
  const MnsaResult r = RunMnsa(optimizer, &catalog, q, {});
  // Optimizer-call accounting: 1 initial + <= 3 per iteration.
  EXPECT_LE(r.optimizer_calls, 1 + 3 * r.iterations);
  EXPECT_LE(r.created.size(), CandidateStatistics(q).size());
  // The final plan optimizes and executes.
  const OptimizeResult plan = optimizer.Optimize(q, StatsView(&catalog));
  Executor executor(&Db(), optimizer.cost_model());
  EXPECT_GE(executor.Execute(q, plan.plan).work_units, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpcdShapeTest,
                         ::testing::ValuesIn(kShapes),
                         [](const ::testing::TestParamInfo<Shape>& info) {
                           std::string name = "Q";
                           name += std::to_string(info.param.number);
                           return name;
                         });

TEST(TpcdQueryContentTest, DateFiltersInsideGeneratedDomain) {
  const Database& db = Db();
  const Workload w = tpcd::TpcdQueries(db);
  // Every date constant must land inside the generated day domain, so the
  // filters are neither vacuous nor contradictory by construction.
  const int64_t max_day = 2400 + 123 + 31;  // orderdate + ship + receipt
  for (const Query* q : w.Queries()) {
    for (const FilterPredicate& f : q->filters()) {
      const std::string& col =
          db.column_def(f.column).name;
      if (col.find("date") == std::string::npos) continue;
      EXPECT_GE(f.value.AsInt64(), 0) << q->name();
      EXPECT_LE(f.value.AsInt64(), max_day) << q->name();
    }
  }
}

TEST(TpcdQueryContentTest, StringConstantsComeFromPools) {
  const Database& db = Db();
  const Workload w = tpcd::TpcdQueries(db);
  // Every string equality constant is a legal pool value for its column —
  // a typo would silently make the predicate always-false. (Presence in
  // the *data* is not guaranteed at tiny scale factors under skew.)
  auto pool_for = [](const std::string& column)
      -> const std::vector<std::string>* {
    if (column == "r_name") return &tpcd::RegionNames();
    if (column == "n_name") return &tpcd::NationNames();
    if (column == "c_mktsegment") return &tpcd::MarketSegments();
    if (column == "o_orderpriority") return &tpcd::OrderPriorities();
    if (column == "l_shipmode") return &tpcd::ShipModes();
    if (column == "l_returnflag") return &tpcd::ReturnFlags();
    if (column == "p_brand") return &tpcd::Brands();
    if (column == "p_type") return &tpcd::PartTypes();
    if (column == "p_container") return &tpcd::Containers();
    return nullptr;
  };
  int checked = 0;
  for (const Query* q : w.Queries()) {
    for (const FilterPredicate& f : q->filters()) {
      if (f.value.type() != ValueType::kString || f.op != CompareOp::kEq) {
        continue;
      }
      const std::vector<std::string>* pool =
          pool_for(db.column_def(f.column).name);
      ASSERT_NE(pool, nullptr) << f.ToString(db);
      EXPECT_NE(std::find(pool->begin(), pool->end(), f.value.AsString()),
                pool->end())
          << q->name() << ": " << f.ToString(db);
      ++checked;
    }
  }
  EXPECT_GE(checked, 8);  // the workload has many string equalities
}

TEST(TpcdQueryContentTest, SeventeenDistinctSignatures) {
  const Database& db = Db();
  StatsCatalog catalog(&db);
  Optimizer optimizer(&db);
  std::set<std::string> signatures;
  const Workload w = tpcd::TpcdQueries(db);
  for (const Query* q : w.Queries()) {
    signatures.insert(
        optimizer.Optimize(*q, StatsView(&catalog)).plan.Signature());
  }
  // All 17 queries produce distinct plans (they are distinct workloads,
  // not copies).
  EXPECT_EQ(signatures.size(), 17u);
}

}  // namespace
}  // namespace autostats
