// Tests for the what-if index advisor, the weighted workload MNSA, the
// incremental statistics refresh, and workload file I/O.
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "advisor/index_advisor.h"
#include "core/mnsa.h"
#include "query/printer.h"
#include "query/workload_io.h"
#include "tests/test_util.h"

namespace autostats {
namespace {

// --- index advisor ---

class AdvisorTest : public ::testing::Test {
 protected:
  AdvisorTest()
      : t_(testing::MakeTwoTableDb(10000, 100)),
        catalog_(&t_.db),
        optimizer_(&t_.db) {}

  testing::TwoTableDb t_;
  StatsCatalog catalog_;
  Optimizer optimizer_;
};

TEST_F(AdvisorTest, RecommendsIndexForSelectiveFilter) {
  Workload w("w");
  // Highly selective equality on fact.val: a textbook index win.
  Query q("q");
  q.AddTable(t_.fact);
  q.AddFilter({t_.fact_val, CompareOp::kEq, Datum(int64_t{7}), Datum()});
  for (int i = 0; i < 3; ++i) w.AddQuery(q);

  const IndexAdvice advice = AdviseIndexes(&t_.db, &catalog_, optimizer_, w);
  ASSERT_FALSE(advice.recommendations.empty());
  EXPECT_EQ(advice.recommendations[0].index.table, t_.fact);
  EXPECT_EQ(advice.recommendations[0].index.key_columns[0],
            t_.fact_val.column);
  EXPECT_LT(advice.final_cost, advice.initial_cost);
  EXPECT_GT(advice.recommendations[0].benefit(), 0.0);
}

TEST_F(AdvisorTest, HypotheticalIndexesRolledBack) {
  Workload w("w");
  w.AddQuery(testing::MakeJoinQuery(t_, 2));
  const size_t indexes_before = t_.db.indexes().size();
  AdviseIndexes(&t_.db, &catalog_, optimizer_, w);
  EXPECT_EQ(t_.db.indexes().size(), indexes_before);
}

TEST_F(AdvisorTest, RespectsMaxIndexes) {
  Workload w("w");
  Query q = testing::MakeJoinQuery(t_, 1);
  q.AddFilter({t_.fact_grp, CompareOp::kEq, Datum(int64_t{3}), Datum()});
  w.AddQuery(q);
  IndexAdvisorConfig config;
  config.max_indexes = 1;
  config.min_benefit_fraction = 0.0;
  const IndexAdvice advice =
      AdviseIndexes(&t_.db, &catalog_, optimizer_, w, config);
  EXPECT_LE(advice.recommendations.size(), 1u);
}

TEST_F(AdvisorTest, ExistingIndexNotReRecommended) {
  t_.db.AddIndex(IndexDef{"ix_val", t_.fact, {t_.fact_val.column}});
  Workload w("w");
  Query q("q");
  q.AddTable(t_.fact);
  q.AddFilter({t_.fact_val, CompareOp::kEq, Datum(int64_t{7}), Datum()});
  w.AddQuery(q);
  const IndexAdvice advice = AdviseIndexes(&t_.db, &catalog_, optimizer_, w);
  for (const IndexRecommendation& rec : advice.recommendations) {
    EXPECT_FALSE(rec.index.table == t_.fact &&
                 rec.index.key_columns[0] == t_.fact_val.column);
  }
}

TEST_F(AdvisorTest, GreedyCostsMonotone) {
  Workload w("w");
  Query q = testing::MakeJoinQuery(t_, 1);
  q.AddFilter({t_.fact_grp, CompareOp::kEq, Datum(int64_t{3}), Datum()});
  w.AddQuery(q);
  IndexAdvisorConfig config;
  config.min_benefit_fraction = 0.0;
  const IndexAdvice advice =
      AdviseIndexes(&t_.db, &catalog_, optimizer_, w, config);
  double prev = advice.initial_cost;
  for (const IndexRecommendation& rec : advice.recommendations) {
    EXPECT_DOUBLE_EQ(rec.cost_before, prev);
    EXPECT_LE(rec.cost_after, rec.cost_before);
    prev = rec.cost_after;
  }
  EXPECT_DOUBLE_EQ(prev, advice.final_cost);
}

// --- weighted workload MNSA ---

TEST_F(AdvisorTest, WeightedMnsaCoversExpensiveQueriesFirst) {
  Workload w("w");
  // One expensive join query and several cheap single-table queries that
  // reference a different column.
  w.AddQuery(testing::MakeJoinQuery(t_, 50));
  for (int i = 0; i < 8; ++i) {
    Query cheap("cheap");
    cheap.AddTable(t_.dim);
    cheap.AddFilter({t_.dim_attr, CompareOp::kEq, Datum(int64_t{3}),
                     Datum()});
    w.AddQuery(cheap);
  }
  MnsaConfig config;
  config.t_percent = 0.01;  // build everything the covered queries need
  const MnsaResult r =
      RunMnsaWorkloadWeighted(optimizer_, &catalog_, w, config, 0.5);
  // The join query dominates cost: its statistics exist...
  EXPECT_TRUE(catalog_.HasActive(MakeStatKey({t_.fact_fk})));
  EXPECT_TRUE(catalog_.HasActive(MakeStatKey({t_.fact_val})));
  // ...while the cheap tail was skipped.
  EXPECT_FALSE(catalog_.HasActive(MakeStatKey({t_.dim_attr})));
  EXPECT_GT(r.optimizer_calls, 0);
}

TEST_F(AdvisorTest, WeightedMnsaFullFractionEqualsPlain) {
  Workload w("w");
  w.AddQuery(testing::MakeJoinQuery(t_, 30));
  w.AddQuery(testing::MakeFilterQuery(t_, 70, /*group=*/true));
  StatsCatalog plain(&t_.db);
  RunMnsaWorkload(optimizer_, &plain, w, {});
  StatsCatalog weighted(&t_.db);
  RunMnsaWorkloadWeighted(optimizer_, &weighted, w, {}, 1.0);
  EXPECT_EQ(plain.ActiveKeys(), weighted.ActiveKeys());
}

// --- incremental refresh ---

TEST_F(AdvisorTest, EmptyDeltaMergeIsCheap) {
  catalog_.CreateStatistic({t_.fact_val});
  UpdateTriggerPolicy policy;
  policy.fraction = 0.0;
  policy.floor = 0;
  policy.incremental = true;
  policy.full_rebuild_every = 1000;  // never rebuild in this test
  catalog_.RecordModifications(t_.fact, 10);
  const double cost = catalog_.RefreshIfTriggered(policy);
  // No DML recorded a delta, so the refresh merges an empty one: it costs
  // only the incremental overhead, far below a rebuild.
  EXPECT_GT(cost, 0.0);
  EXPECT_LT(cost, catalog_.cost_model().UpdateCost(
                      t_.db.table(t_.fact).num_rows(), 1) / 10.0);
}

TEST_F(AdvisorTest, FullRebuildEveryNth) {
  catalog_.CreateStatistic({t_.fact_val});
  UpdateTriggerPolicy policy;
  policy.fraction = 0.0;
  policy.floor = 0;
  policy.incremental = true;
  policy.full_rebuild_every = 2;
  catalog_.RecordModifications(t_.fact, 10);
  const double first = catalog_.RefreshIfTriggered(policy);   // merge
  catalog_.RecordModifications(t_.fact, 10);
  const double second = catalog_.RefreshIfTriggered(policy);  // rebuild
  EXPECT_LT(first, second);
}

// --- workload file I/O ---

class WorkloadIoTest : public ::testing::Test {
 protected:
  WorkloadIoTest()
      : t_(testing::MakeTwoTableDb(100, 10)),
        path_(std::filesystem::temp_directory_path() /
              "autostats_workload_test.sql") {}
  ~WorkloadIoTest() override { std::filesystem::remove(path_); }

  testing::TwoTableDb t_;
  std::filesystem::path path_;
};

TEST_F(WorkloadIoTest, RoundTripsQueriesAndDml) {
  Workload w("mixed");
  Query q = testing::MakeJoinQuery(t_, 42);
  q.AddGroupBy(t_.fact_grp);
  w.AddQuery(q);
  DmlStatement d;
  d.kind = DmlKind::kUpdate;
  d.table = t_.fact;
  d.update_column = t_.fact_val.column;
  d.row_count = 17;
  d.seed = 99;
  w.AddDml(d);
  DmlStatement ins;
  ins.kind = DmlKind::kInsert;
  ins.table = t_.dim;
  ins.row_count = 3;
  ins.seed = 5;
  w.AddDml(ins);

  ASSERT_TRUE(SaveWorkload(t_.db, w, path_.string()).ok());
  Result<Workload> back = LoadWorkload(t_.db, path_.string());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), w.size());
  EXPECT_EQ(QueryToSql(t_.db, back->statements()[0].query),
            QueryToSql(t_.db, q));
  EXPECT_EQ(back->statements()[1].dml.kind, DmlKind::kUpdate);
  EXPECT_EQ(back->statements()[1].dml.row_count, 17u);
  EXPECT_EQ(back->statements()[1].dml.seed, 99u);
  EXPECT_EQ(back->statements()[2].dml.kind, DmlKind::kInsert);
  EXPECT_EQ(back->statements()[2].dml.table, t_.dim);
}

TEST_F(WorkloadIoTest, BadLineReportsLineNumber) {
  std::ofstream out(path_);
  out << "# header\nSELECT * FROM fact\nGIBBERISH HERE\n";
  out.close();
  Result<Workload> back = LoadWorkload(t_.db, path_.string());
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find(":3:"), std::string::npos)
      << back.status().ToString();
}

// Row counts and seeds are unsigned decimals that fit their type,
// keywords match exactly, and nothing follows the seed: an insert of
// 2^64-5 rows would otherwise append rows until memory ran out.
TEST_F(WorkloadIoTest, MalformedDmlLinesAreRejected) {
  for (const char* line : {
           "INSERT INTO fact ROWS -5 SEED 7",
           "INSERT INTO fact ROWS 5 SEED -1",
           "INSERT INTO fact ROWS +5 SEED 7",
           "INSERT INTO fact ROWS 5x SEED 7",
           "INSERT INTO fact ROWS 18446744073709551616 SEED 7",
           "INSERT INTO fact ROWS 5 SEED 18446744073709551616",
           "DELETE FROM fact ROWS 3 SEED 7 trailing junk",
           "DELETEXYZ FROM fact ROWS 3 SEED 7",
           "UPDATE fact SET val ROWS 5",
       }) {
    EXPECT_EQ(ParseStatementLine(t_.db, line).status().code(),
              StatusCode::kInvalidArgument)
        << line;
  }
  std::ofstream out(path_);
  out << "DELETE FROM fact ROWS 3 SEED 7\nINSERT INTO fact ROWS -5 SEED 7\n";
  out.close();
  Result<Workload> back = LoadWorkload(t_.db, path_.string());
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(back.status().message().find(path_.string() + ":2:"),
            std::string::npos)
      << back.status().ToString();
}

TEST_F(WorkloadIoTest, MissingFileNotFound) {
  EXPECT_EQ(LoadWorkload(t_.db, "/no/such/file.sql").status().code(),
            StatusCode::kNotFound);
}

TEST_F(WorkloadIoTest, StatementLineCodecs) {
  DmlStatement d;
  d.kind = DmlKind::kDelete;
  d.table = t_.fact;
  d.row_count = 9;
  d.seed = 1;
  const std::string line = StatementToLine(t_.db, Statement::MakeDml(d));
  EXPECT_EQ(line, "DELETE FROM fact ROWS 9 SEED 1");
  Result<Statement> parsed = ParseStatementLine(t_.db, line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->dml.kind, DmlKind::kDelete);
}

}  // namespace
}  // namespace autostats
