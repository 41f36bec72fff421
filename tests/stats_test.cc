#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/mnsa.h"
#include "executor/dml_exec.h"
#include "optimizer/optimizer.h"
#include "rags/rags.h"
#include "stats/builder.h"
#include "stats/distinct.h"
#include "stats/stats_catalog.h"
#include "stats/stats_cost.h"
#include "tests/reference_builder.h"
#include "tests/reference_view.h"
#include "tests/test_util.h"
#include "tpcd/dbgen.h"
#include "tpcd/schema.h"

namespace autostats {
namespace {

using testing::MakeCorrelatedDb;
using testing::MakeTwoTableDb;

// --- distinct counting ---

TEST(DistinctTest, SingleColumn) {
  testing::TwoTableDb t = MakeTwoTableDb(1000, 50);
  EXPECT_EQ(CountDistinct(t.db.table(t.fact), {t.fact_val.column}), 100u);
  EXPECT_EQ(CountDistinct(t.db.table(t.fact), {t.fact_grp.column}), 10u);
  EXPECT_EQ(CountDistinct(t.db.table(t.fact), {t.fact_flag.column}), 2u);
}

TEST(DistinctTest, MultiColumnFunctionalDependency) {
  testing::CorrelatedDb c = MakeCorrelatedDb(5000);
  // b = a/10, so distinct(a, b) == distinct(a).
  const uint64_t da = CountDistinct(c.db.table(c.t), {c.a.column});
  const uint64_t dab =
      CountDistinct(c.db.table(c.t), {c.a.column, c.b.column});
  EXPECT_EQ(da, dab);
  // c is independent: distinct(a, c) >> distinct(a).
  const uint64_t dac =
      CountDistinct(c.db.table(c.t), {c.a.column, c.c.column});
  EXPECT_GT(dac, da * 10);
}

TEST(DistinctTest, PrefixesAreMonotone) {
  testing::CorrelatedDb c = MakeCorrelatedDb(5000);
  const std::vector<uint64_t> prefixes = CountDistinctPrefixes(
      c.db.table(c.t), {c.a.column, c.b.column, c.c.column});
  ASSERT_EQ(prefixes.size(), 3u);
  EXPECT_LE(prefixes[0], prefixes[1]);
  EXPECT_LE(prefixes[1], prefixes[2]);
}

// --- builder ---

TEST(BuilderTest, ColumnDistributionSumsToRows) {
  testing::TwoTableDb t = MakeTwoTableDb(1000, 50);
  const std::vector<ValueFreq> dist =
      ColumnDistribution(t.db.table(t.fact), t.fact_val.column, 1.0);
  EXPECT_EQ(dist.size(), 100u);
  double total = 0.0;
  for (const ValueFreq& vf : dist) total += vf.freq;
  EXPECT_DOUBLE_EQ(total, 1000.0);
}

TEST(BuilderTest, SampledDistributionScalesBack) {
  testing::TwoTableDb t = MakeTwoTableDb(10000, 50);
  const std::vector<ValueFreq> dist =
      ColumnDistribution(t.db.table(t.fact), t.fact_val.column, 0.1);
  double total = 0.0;
  for (const ValueFreq& vf : dist) total += vf.freq;
  EXPECT_NEAR(total, 10000.0, 500.0);
}

TEST(BuilderTest, BuildStatisticSingleColumn) {
  testing::TwoTableDb t = MakeTwoTableDb(1000, 50);
  const Statistic s = BuildStatistic(t.db, {t.fact_val}, {});
  EXPECT_EQ(s.width(), 1);
  EXPECT_EQ(s.table(), t.fact);
  EXPECT_DOUBLE_EQ(s.rows_at_build(), 1000.0);
  EXPECT_DOUBLE_EQ(s.PrefixDistinct(1), 100.0);
  EXPECT_NEAR(s.histogram().SelectivityEq(5.0), 0.01, 0.005);
}

TEST(BuilderTest, BuildStatisticMultiColumnDensities) {
  testing::CorrelatedDb c = MakeCorrelatedDb(5000);
  const Statistic s = BuildStatistic(c.db, {c.a, c.b}, {});
  EXPECT_EQ(s.width(), 2);
  // Functional dependency: density of (a,b) equals density of (a).
  EXPECT_DOUBLE_EQ(s.PrefixDistinct(1), s.PrefixDistinct(2));
  EXPECT_NEAR(s.PrefixDensity(1), 1.0 / 100.0, 1e-6);
}

TEST(BuilderTest, EquiDepthConfigHonored) {
  testing::TwoTableDb t = MakeTwoTableDb(1000, 50);
  StatsBuildConfig config;
  config.histogram_kind = HistogramKind::kEquiDepth;
  config.num_buckets = 7;
  const Statistic s = BuildStatistic(t.db, {t.fact_val}, config);
  EXPECT_LE(s.histogram().buckets().size(), 7u);
}

// --- build kernels vs the comparison-sort reference ---

// The first run where `got` and `want` differ in value or freq bits.
::testing::AssertionResult SameRuns(const std::vector<ValueFreq>& got,
                                    const std::vector<ValueFreq>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " runs vs " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<uint64_t>(got[i].value) !=
            std::bit_cast<uint64_t>(want[i].value) ||
        std::bit_cast<uint64_t>(got[i].freq) !=
            std::bit_cast<uint64_t>(want[i].freq)) {
      return ::testing::AssertionFailure()
             << "run " << i << ": (" << got[i].value << ", " << got[i].freq
             << ") vs (" << want[i].value << ", " << want[i].freq << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// The leading column's distribution at sample fractions 1 and 0.25, and
// every prefix's distinct count, equal the reference's.
void ExpectBuildMatchesReference(const Database& db,
                                 const std::vector<ColumnRef>& columns) {
  const Table& table = db.table(columns.front().table);
  const ColumnId leading = columns.front().column;
  for (const double fraction : {1.0, 0.25}) {
    ASSERT_TRUE(SameRuns(
        ColumnDistribution(table, leading, fraction),
        testing::ReferenceColumnDistribution(table, leading, fraction)))
        << MakeStatKey(columns) << " sample fraction " << fraction;
  }
  std::vector<ColumnId> cols;
  for (const ColumnRef& c : columns) cols.push_back(c.column);
  ASSERT_EQ(CountDistinctPrefixes(table, cols),
            testing::ReferenceCountDistinctPrefixes(table, cols))
      << MakeStatKey(columns);
}

TEST(BuildKernelTest, BuildMatchesReferenceBitForBit) {
  Database db = tpcd::BuildTpcdVariant("TPCD_MIX", 0.0005, 42);
  // Every multi-column statistic MNSA/D creates over two seeded streams.
  std::vector<std::vector<ColumnRef>> multi_column;
  {
    StatsCatalog catalog(&db);
    const Optimizer optimizer(&db);
    MnsaConfig mnsa_d;
    mnsa_d.drop_detection = true;
    for (const uint64_t seed : {5, 11}) {
      rags::RagsConfig rc;
      rc.num_statements = 60;
      rc.complexity = rags::Complexity::kComplex;
      rc.seed = seed;
      rc.join_edges = tpcd::TpcdForeignKeys(db);
      const Workload w = rags::Generate(db, rc);
      for (const Query* q : w.Queries()) {
        RunMnsa(optimizer, &catalog, *q, mnsa_d);
      }
    }
    for (const std::vector<StatKey>& keys :
         {catalog.ActiveKeys(), catalog.DropListKeys()}) {
      for (const StatKey& key : keys) {
        const Statistic& stat = catalog.FindEntry(key)->stat;
        if (stat.width() >= 2) multi_column.push_back(stat.columns());
      }
    }
  }
  ASSERT_GT(multi_column.size(), 10u);

  rags::RagsConfig churn;
  churn.num_statements = 200;
  churn.update_fraction = 1.0;
  churn.seed = 9;
  churn.join_edges = tpcd::TpcdForeignKeys(db);
  const Workload dml = rags::Generate(db, churn);
  ASSERT_EQ(dml.num_dml(), 200u);

  int compared = 0;
  for (const bool after_dml : {false, true}) {
    if (after_dml) {
      for (const Statement& s : dml.statements()) ApplyDml(&db, s.dml);
    }
    for (TableId t = 0; t < db.num_tables(); ++t) {
      const int width = db.table(t).schema().num_columns();
      for (ColumnId c = 0; c < width; ++c) {
        ASSERT_NO_FATAL_FAILURE(ExpectBuildMatchesReference(db, {{t, c}}))
            << (after_dml ? "after DML" : "plain");
        ++compared;
      }
    }
    for (const std::vector<ColumnRef>& columns : multi_column) {
      ASSERT_NO_FATAL_FAILURE(ExpectBuildMatchesReference(db, columns))
          << (after_dml ? "after DML" : "plain");
      ++compared;
    }
  }
  EXPECT_GT(compared, 120);
}

// A table with one DOUBLE column holding `values` in order, and an INT64
// column beside it for the two-column prefix counts.
Database DoubleColumnDb(const std::vector<double>& values) {
  Database db;
  Table& t = db.mutable_table(db.AddTable(Schema(
      "t", {{"x", ValueType::kDouble}, {"k", ValueType::kInt64}})));
  for (size_t i = 0; i < values.size(); ++i) {
    t.AppendRow({Datum(values[i]), Datum(static_cast<int64_t>(i % 3))});
  }
  return db;
}

// -0.0 and +0.0 compare equal, so the run they share stores whichever
// std::sort puts first; the build must store the same one.
TEST(BuildKernelTest, SignedZeroTiesMatchStdSort) {
  std::vector<std::vector<double>> cases = {
      {-0.0, 0.0},
      {0.0, -0.0},
      {0.0, -0.0, -0.0, -0.0},
      {-0.0, 0.0, 0.0, 0.0, 1.5, -2.5},
      {-0.0, -0.0, -0.0},
      {-0.0, 3.0, -1.0, -0.0},
  };
  for (const bool negative_first : {true, false}) {
    std::vector<double> mixed;
    for (int i = 0; i < 1000; ++i) {
      const double zero = (i % 7 == 0) == negative_first ? -0.0 : 0.0;
      mixed.push_back(i % 3 == 0 ? zero : 0.5 * (i % 41) - 10.0);
    }
    cases.push_back(mixed);
  }
  cases.push_back(std::vector<double>(700, -0.0));
  int kept_negative = 0, kept_positive = 0;
  for (const std::vector<double>& values : cases) {
    const Database db = DoubleColumnDb(values);
    ASSERT_NO_FATAL_FAILURE(ExpectBuildMatchesReference(db, {{0, 0}, {0, 1}}))
        << values.size() << " values starting " << values.front();
    for (const ValueFreq& vf : ColumnDistribution(db.table(0), 0, 1.0)) {
      if (vf.value == 0.0) {
        ++(std::signbit(vf.value) ? kept_negative : kept_positive);
      }
    }
  }
  // Both tie orders occur, so a build that ignored them would fail above.
  EXPECT_GT(kept_negative, 0);
  EXPECT_GT(kept_positive, 0);
}

TEST(BuildKernelTest, EdgeTablesMatchReference) {
  constexpr int64_t k2To53 = int64_t{1} << 53;
  // This value's std::hash is the FNV basis, so its one-column row hash
  // is 0, the hash set's empty marker.
  const int64_t zero_hash_key = static_cast<int64_t>(0xcbf29ce484222325ull);
  const std::vector<std::vector<int64_t>> int_cases = {
      {},
      {7},
      std::vector<int64_t>(500, 42),
      // Distinct integers that round to one double share a run.
      {k2To53, k2To53 + 1, k2To53 + 2, k2To53 + 3, -k2To53 - 1, -k2To53,
       INT64_MAX, INT64_MAX - 1, INT64_MIN, INT64_MIN + 1, 0, -1},
      {zero_hash_key, 1, 2, zero_hash_key, 0},
  };
  const std::vector<std::string> strings = {
      "", "a", "abcdefgh1", "abcdefgh2", "zzz", "a", "", "\xff\x01"};
  for (const std::vector<int64_t>& ints : int_cases) {
    Database db;
    Table& t = db.mutable_table(
        db.AddTable(Schema("t", {{"i", ValueType::kInt64},
                                 {"d", ValueType::kDouble},
                                 {"s", ValueType::kString}})));
    for (size_t r = 0; r < ints.size(); ++r) {
      t.AppendRow({Datum(ints[r]), Datum(ints.size() == 500 ? 1.25 : -0.5 * r),
                   Datum(strings[r % strings.size()])});
    }
    for (const std::vector<ColumnRef>& columns :
         std::vector<std::vector<ColumnRef>>{
             {{0, 0}, {0, 1}, {0, 2}}, {{0, 1}, {0, 2}}, {{0, 2}, {0, 0}}}) {
      ASSERT_NO_FATAL_FAILURE(ExpectBuildMatchesReference(db, columns))
          << ints.size() << " rows";
    }
  }
}

TEST(StatisticTest, KeyAndName) {
  testing::TwoTableDb t = MakeTwoTableDb(100, 10);
  const Statistic s = BuildStatistic(t.db, {t.fact_val, t.fact_grp}, {});
  EXPECT_EQ(s.key(), MakeStatKey({t.fact_val, t.fact_grp}));
  EXPECT_EQ(s.Name(t.db), "fact(val, grp)");
}

// --- cost model ---

TEST(StatsCostTest, MonotoneInRowsAndWidth) {
  StatsCostModel m;
  EXPECT_LT(m.CreationCost(1000, 1), m.CreationCost(10000, 1));
  EXPECT_LT(m.CreationCost(1000, 1), m.CreationCost(1000, 3));
  EXPECT_GT(m.CreationCost(0, 1), 0.0);  // fixed overhead
  EXPECT_DOUBLE_EQ(m.UpdateCost(500, 2), m.CreationCost(500, 2));
}

// --- StatsCatalog ---

class StatsCatalogTest : public ::testing::Test {
 protected:
  StatsCatalogTest() : t_(MakeTwoTableDb(1000, 50)), catalog_(&t_.db) {}
  testing::TwoTableDb t_;
  StatsCatalog catalog_;
};

TEST_F(StatsCatalogTest, CreateChargesOnceAndIsIdempotent) {
  const double cost = catalog_.CreateStatistic({t_.fact_val});
  EXPECT_GT(cost, 0.0);
  EXPECT_TRUE(catalog_.HasActive(MakeStatKey({t_.fact_val})));
  EXPECT_DOUBLE_EQ(catalog_.CreateStatistic({t_.fact_val}), 0.0);
  EXPECT_DOUBLE_EQ(catalog_.total_creation_cost(), cost);
  EXPECT_EQ(catalog_.num_active(), 1u);
}

TEST_F(StatsCatalogTest, DropListAndResurrection) {
  catalog_.CreateStatistic({t_.fact_val});
  const StatKey key = MakeStatKey({t_.fact_val});
  catalog_.MoveToDropList(key);
  EXPECT_FALSE(catalog_.HasActive(key));
  EXPECT_TRUE(catalog_.Exists(key));
  EXPECT_EQ(catalog_.num_drop_listed(), 1u);
  EXPECT_EQ(catalog_.Find(key), nullptr);
  // Re-creating resurrects at zero cost (§5).
  const double before = catalog_.total_creation_cost();
  EXPECT_DOUBLE_EQ(catalog_.CreateStatistic({t_.fact_val}), 0.0);
  EXPECT_DOUBLE_EQ(catalog_.total_creation_cost(), before);
  EXPECT_TRUE(catalog_.HasActive(key));
}

TEST_F(StatsCatalogTest, PhysicalDrop) {
  catalog_.CreateStatistic({t_.fact_val});
  const StatKey key = MakeStatKey({t_.fact_val});
  catalog_.PhysicallyDrop(key);
  EXPECT_FALSE(catalog_.Exists(key));
  // Re-creation pays again.
  EXPECT_GT(catalog_.CreateStatistic({t_.fact_val}), 0.0);
}

TEST_F(StatsCatalogTest, UpdateTriggering) {
  catalog_.CreateStatistic({t_.fact_val});
  UpdateTriggerPolicy policy;
  policy.fraction = 0.2;
  policy.floor = 10;
  // Below threshold: no refresh.
  catalog_.RecordModifications(t_.fact, 100);
  EXPECT_DOUBLE_EQ(catalog_.RefreshIfTriggered(policy), 0.0);
  // Above threshold (200 + 10): refresh happens and resets the counter.
  catalog_.RecordModifications(t_.fact, 200);
  EXPECT_GT(catalog_.RefreshIfTriggered(policy), 0.0);
  EXPECT_EQ(catalog_.modified_rows(t_.fact), 0u);
  EXPECT_EQ(catalog_.FindEntry(MakeStatKey({t_.fact_val}))->update_count, 1);
}

TEST_F(StatsCatalogTest, DropListedStatsNotRefreshed) {
  catalog_.CreateStatistic({t_.fact_val});
  catalog_.CreateStatistic({t_.fact_grp});
  catalog_.MoveToDropList(MakeStatKey({t_.fact_grp}));
  UpdateTriggerPolicy policy;
  policy.fraction = 0.0;
  policy.floor = 0;
  catalog_.RecordModifications(t_.fact, 10);
  catalog_.RefreshIfTriggered(policy);
  EXPECT_EQ(catalog_.FindEntry(MakeStatKey({t_.fact_val}))->update_count, 1);
  EXPECT_EQ(catalog_.FindEntry(MakeStatKey({t_.fact_grp}))->update_count, 0);
}

TEST_F(StatsCatalogTest, PendingUpdateCostCountsActiveOnly) {
  catalog_.CreateStatistic({t_.fact_val});
  catalog_.CreateStatistic({t_.fact_grp});
  const double both = catalog_.PendingUpdateCost();
  catalog_.MoveToDropList(MakeStatKey({t_.fact_grp}));
  const double one = catalog_.PendingUpdateCost();
  EXPECT_LT(one, both);
  EXPECT_GT(one, 0.0);
}

TEST_F(StatsCatalogTest, ActiveKeysSortedAndComplete) {
  catalog_.CreateStatistic({t_.fact_val});
  catalog_.CreateStatistic({t_.dim_pk});
  const std::vector<StatKey> keys = catalog_.ActiveKeys();
  EXPECT_EQ(keys.size(), 2u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

// --- StatsView ---

TEST_F(StatsCatalogTest, ViewIgnoreHidesStatistic) {
  catalog_.CreateStatistic({t_.fact_val});
  StatsView view(&catalog_);
  EXPECT_NE(view.HistogramFor(t_.fact_val), nullptr);
  view.Ignore(MakeStatKey({t_.fact_val}));
  EXPECT_EQ(view.HistogramFor(t_.fact_val), nullptr);
  EXPECT_FALSE(view.IsVisible(MakeStatKey({t_.fact_val})));
}

TEST_F(StatsCatalogTest, ViewPrefersNarrowestStat) {
  catalog_.CreateStatistic({t_.fact_val, t_.fact_grp});
  StatsView view(&catalog_);
  const Statistic* wide = view.HistogramFor(t_.fact_val);
  ASSERT_NE(wide, nullptr);
  EXPECT_EQ(wide->width(), 2);
  catalog_.CreateStatistic({t_.fact_val});
  const Statistic* narrow = view.HistogramFor(t_.fact_val);
  ASSERT_NE(narrow, nullptr);
  EXPECT_EQ(narrow->width(), 1);
}

TEST_F(StatsCatalogTest, DensityForMatchesSetAnyOrder) {
  catalog_.CreateStatistic({t_.fact_val, t_.fact_grp});
  StatsView view(&catalog_);
  int len = 0;
  // Set match is order-insensitive.
  EXPECT_NE(view.DensityFor(t_.fact, {t_.fact_grp.column, t_.fact_val.column},
                            &len),
            nullptr);
  EXPECT_EQ(len, 2);
  // A set not covered by any prefix has no density.
  EXPECT_EQ(view.DensityFor(t_.fact, {t_.fact_grp.column, t_.fact_flag.column},
                            &len),
            nullptr);
}

TEST_F(StatsCatalogTest, DensityForUsesPrefixOfWiderStat) {
  catalog_.CreateStatistic({t_.fact_val, t_.fact_grp, t_.fact_flag});
  StatsView view(&catalog_);
  int len = 0;
  const Statistic* s =
      view.DensityFor(t_.fact, {t_.fact_val.column, t_.fact_grp.column}, &len);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(len, 2);
  // But a *suffix* (grp, flag) does not match (SQL Server asymmetry).
  EXPECT_EQ(view.DensityFor(t_.fact, {t_.fact_grp.column, t_.fact_flag.column},
                            &len),
            nullptr);
}

TEST(StatsViewTest, ViewBreaksTiesByKeyString) {
  // lineitem has 16 columns: ids 2 and 10 order one way as numbers and
  // the other way inside key strings ("7:1,10" < "7:1,2").
  const Database db = tpcd::BuildTpcdVariant("TPCD_0", 0.0005, 42);
  const TableId lineitem = db.FindTable("lineitem");
  const auto col = [&](ColumnId c) { return ColumnRef{lineitem, c}; };

  // Histogram: two width-2 statistics lead with column 1; the smaller
  // key string wins.
  {
    StatsCatalog catalog(&db);
    catalog.CreateStatistic({col(1), col(2)});
    catalog.CreateStatistic({col(1), col(10)});
    const StatKey k2 = MakeStatKey({col(1), col(2)});
    const StatKey k10 = MakeStatKey({col(1), col(10)});
    ASSERT_LT(k10, k2);
    const Statistic* winner = catalog.Find(k10);
    const Statistic* other = catalog.Find(k2);
    ASSERT_NE(winner, nullptr);
    ASSERT_NE(other, nullptr);
    StatsView view(&catalog);
    EXPECT_EQ(view.HistogramFor(col(1)), winner);
    EXPECT_EQ(testing::ReferenceHistogramFor(view, col(1)), winner);
    view.Ignore(k10);
    EXPECT_EQ(view.HistogramFor(col(1)), other);
    EXPECT_EQ(testing::ReferenceHistogramFor(view, col(1)), other);

    catalog.MoveToDropList(k10);
    const StatsView dropped(&catalog);
    EXPECT_EQ(dropped.HistogramFor(col(1)), other);
    EXPECT_EQ(testing::ReferenceHistogramFor(dropped, col(1)), other);
    catalog.RemoveFromDropList(k10);
    EXPECT_EQ(dropped.HistogramFor(col(1)), winner);
  }

  // Density: two width-3 statistics whose 2-prefixes are the set
  // {2, 10}; the smaller key string ("7:10,2,3") wins, although its
  // leading column id is the larger one.
  {
    StatsCatalog catalog(&db);
    catalog.CreateStatistic({col(2), col(10), col(3)});
    catalog.CreateStatistic({col(10), col(2), col(3)});
    const StatKey k_2 = MakeStatKey({col(2), col(10), col(3)});
    const StatKey k_10 = MakeStatKey({col(10), col(2), col(3)});
    ASSERT_LT(k_10, k_2);
    const Statistic* winner = catalog.Find(k_10);
    const Statistic* other = catalog.Find(k_2);
    ASSERT_NE(winner, nullptr);
    ASSERT_NE(other, nullptr);
    const std::vector<ColumnId> set = {2, 10};
    StatsView view(&catalog);
    int len = 0;
    EXPECT_EQ(view.DensityFor(lineitem, set, &len), winner);
    EXPECT_EQ(len, 2);
    EXPECT_EQ(view.DensityFor(lineitem, {10, 2}, &len), winner);
    EXPECT_EQ(testing::ReferenceDensityFor(view, lineitem, set, &len), winner);
    view.Ignore(k_10);
    len = 0;
    EXPECT_EQ(view.DensityFor(lineitem, set, &len), other);
    EXPECT_EQ(len, 2);
    EXPECT_EQ(testing::ReferenceDensityFor(view, lineitem, set, &len), other);

    catalog.MoveToDropList(k_10);
    const StatsView dropped(&catalog);
    EXPECT_EQ(dropped.DensityFor(lineitem, set, &len), other);
    EXPECT_EQ(testing::ReferenceDensityFor(dropped, lineitem, set, &len),
              other);
  }
}

// Every column and column set AnalyzeSelectivities can look up for `q`:
// each filter, join and group-by column alone, and per table its filter
// columns, its group-by columns and each side of a multi-predicate join.
struct ViewLookups {
  std::vector<ColumnRef> columns;
  std::vector<std::pair<TableId, std::vector<ColumnId>>> sets;
};

ViewLookups LookupsOf(const Query& q) {
  ViewLookups out;
  for (const FilterPredicate& f : q.filters()) out.columns.push_back(f.column);
  for (const JoinPredicate& j : q.joins()) {
    out.columns.push_back(j.left);
    out.columns.push_back(j.right);
  }
  for (const ColumnRef& g : q.group_by()) out.columns.push_back(g);
  for (const ColumnRef& c : out.columns) {
    out.sets.push_back({c.table, {c.column}});
  }
  for (const TableId table : q.tables()) {
    std::vector<ColumnId> filter_cols;
    for (const int i : q.FilterIndicesOf(table)) {
      const ColumnId c = q.filters()[static_cast<size_t>(i)].column.column;
      if (std::find(filter_cols.begin(), filter_cols.end(), c) ==
          filter_cols.end()) {
        filter_cols.push_back(c);
      }
    }
    std::vector<ColumnId> group_cols;
    for (const ColumnRef& g : q.GroupByColumnsOf(table)) {
      group_cols.push_back(g.column);
    }
    for (auto& cols : {filter_cols, group_cols}) {
      if (cols.size() >= 2) out.sets.push_back({table, cols});
    }
    for (const TableId other : q.tables()) {
      const std::vector<int> between = q.JoinIndicesBetween(table, other);
      if (other == table || between.size() < 2) continue;
      std::vector<ColumnId> side;
      for (const int j : between) {
        const JoinPredicate& jp = q.joins()[static_cast<size_t>(j)];
        side.push_back(jp.left.table == table ? jp.left.column
                                              : jp.right.column);
      }
      out.sets.push_back({table, side});
    }
  }
  return out;
}

TEST(StatsViewTest, ViewLookupsMatchReference) {
  const Database db = tpcd::BuildTpcdVariant("TPCD_MIX", 0.0005, 42);
  rags::RagsConfig rc;
  rc.num_statements = 100;
  rc.complexity = rags::Complexity::kComplex;
  rc.seed = 5;
  rc.join_edges = tpcd::TpcdForeignKeys(db);
  const Workload w = rags::Generate(db, rc);
  StatsCatalog catalog(&db);
  int64_t compared = 0, histogram_hits = 0, multi_column_hits = 0;
  // Both lookups of `q` through a view hiding nothing and through one
  // hiding every third active key.
  auto check = [&](const Query& q) {
    const std::vector<StatKey> active = catalog.ActiveKeys();
    StatsView all(&catalog);
    StatsView partial(&catalog);
    for (size_t i = 0; i < active.size(); i += 3) partial.Ignore(active[i]);
    const ViewLookups lookups = LookupsOf(q);
    for (const StatsView* view : {&all, &partial}) {
      for (const ColumnRef& c : lookups.columns) {
        const Statistic* got = view->HistogramFor(c);
        ASSERT_EQ(got, testing::ReferenceHistogramFor(*view, c))
            << q.name() << " column " << db.ColumnName(c);
        histogram_hits += got != nullptr;
        ++compared;
      }
      for (const auto& [table, cols] : lookups.sets) {
        int got_len = -1, want_len = -1;
        const Statistic* got = view->DensityFor(table, cols, &got_len);
        ASSERT_EQ(got,
                  testing::ReferenceDensityFor(*view, table, cols, &want_len))
            << q.name() << " table " << table << " width " << cols.size();
        ASSERT_EQ(got_len, want_len) << q.name();
        multi_column_hits += got != nullptr && cols.size() >= 2;
        ++compared;
      }
    }
  };

  // The catalog evolves under MNSA/D: creations, drops and resurrections.
  const Optimizer optimizer(&db);
  MnsaConfig mnsa_d;
  mnsa_d.drop_detection = true;
  for (const Query* q : w.Queries()) {
    RunMnsa(optimizer, &catalog, *q, mnsa_d);
    ASSERT_NO_FATAL_FAILURE(check(*q));
  }
  EXPECT_GT(catalog.num_active(), 25u);
  EXPECT_GT(histogram_hits, 1000);
  // MNSA/D drop-lists every multi-column statistic here; resurrecting
  // them puts overlapping prefixes ((0,1), (1,0), (0,1,2), ...) of one
  // table in view, so the multi-column density lookups have ties to break.
  ASSERT_GT(catalog.num_drop_listed(), 10u);
  for (const StatKey& key : catalog.DropListKeys()) {
    catalog.RemoveFromDropList(key);
  }
  for (const Query* q : w.Queries()) ASSERT_NO_FATAL_FAILURE(check(*q));
  EXPECT_GT(compared, 6000);
  EXPECT_GT(multi_column_hits, 20);
}

}  // namespace
}  // namespace autostats
