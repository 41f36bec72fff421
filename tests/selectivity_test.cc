#include <gtest/gtest.h>

#include "optimizer/selectivity.h"
#include "tests/test_util.h"

namespace autostats {
namespace {

class SelectivityTest : public ::testing::Test {
 protected:
  SelectivityTest()
      : t_(testing::MakeTwoTableDb(10000, 100)), catalog_(&t_.db) {}

  SelectivityAnalysis Analyze(const Query& q,
                              const SelectivityOverrides& overrides = {}) {
    return AnalyzeSelectivities(t_.db, q, StatsView(&catalog_), magic_,
                                overrides);
  }

  const SelVarBinding* FindBinding(const SelectivityAnalysis& a, SelVar v) {
    for (const SelVarBinding& b : a.bindings()) {
      if (b.var == v) return &b;
    }
    return nullptr;
  }

  testing::TwoTableDb t_;
  StatsCatalog catalog_;
  MagicNumbers magic_;
};

// --- magic fallbacks ---

TEST_F(SelectivityTest, MagicNumbersWithoutStats) {
  Query q("q");
  q.AddTable(t_.fact);
  q.AddFilter({t_.fact_val, CompareOp::kEq, Datum(int64_t{5}), Datum()});
  const SelectivityAnalysis a = Analyze(q);
  EXPECT_DOUBLE_EQ(a.filter_sel(0), magic_.equality);
  const SelVarBinding* b = FindBinding(a, {SelVar::Kind::kFilter, 0});
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->from_magic);
  EXPECT_NEAR(b->low, kDefaultEpsilon, 1e-9);
  EXPECT_NEAR(b->high, 1.0 - kDefaultEpsilon, 1e-9);
  EXPECT_FALSE(b->pinned());
}

TEST_F(SelectivityTest, MagicPerOperator) {
  Query q("q");
  q.AddTable(t_.fact);
  q.AddFilter({t_.fact_val, CompareOp::kLt, Datum(int64_t{50}), Datum()});
  q.AddFilter({t_.fact_grp, CompareOp::kBetween, Datum(int64_t{2}),
               Datum(int64_t{5})});
  const SelectivityAnalysis a = Analyze(q);
  EXPECT_DOUBLE_EQ(a.filter_sel(0), magic_.open_range);
  EXPECT_DOUBLE_EQ(a.filter_sel(1), magic_.closed_range);
}

TEST_F(SelectivityTest, JoinMagicWithoutStats) {
  const Query q = testing::MakeJoinQuery(t_);
  const SelectivityAnalysis a = Analyze(q);
  EXPECT_DOUBLE_EQ(a.join_sel(0), magic_.join);
  const SelVarBinding* b = FindBinding(a, {SelVar::Kind::kJoin, 0});
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->from_magic);
  EXPECT_FALSE(b->pinned());
}

// --- statistics pin variables ---

TEST_F(SelectivityTest, HistogramPinsFilter) {
  catalog_.CreateStatistic({t_.fact_val});
  Query q("q");
  q.AddTable(t_.fact);
  q.AddFilter({t_.fact_val, CompareOp::kLt, Datum(int64_t{50}), Datum()});
  const SelectivityAnalysis a = Analyze(q);
  EXPECT_NEAR(a.filter_sel(0), 0.5, 0.05);  // val uniform over 0..99
  const SelVarBinding* b = FindBinding(a, {SelVar::Kind::kFilter, 0});
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(b->from_magic);
  EXPECT_TRUE(b->pinned());
}

TEST_F(SelectivityTest, EqualitySelectivityFromHistogram) {
  catalog_.CreateStatistic({t_.fact_grp});
  Query q("q");
  q.AddTable(t_.fact);
  q.AddFilter({t_.fact_grp, CompareOp::kEq, Datum(int64_t{3}), Datum()});
  const SelectivityAnalysis a = Analyze(q);
  EXPECT_NEAR(a.filter_sel(0), 0.1, 0.02);  // 10 groups
}

TEST_F(SelectivityTest, JoinSelectivityFromBothSides) {
  catalog_.CreateStatistic({t_.fact_fk});
  catalog_.CreateStatistic({t_.dim_pk});
  const Query q = testing::MakeJoinQuery(t_);
  const SelectivityAnalysis a = Analyze(q);
  // V(fk) = 100, V(pk) = 100 -> 1/100.
  EXPECT_NEAR(a.join_sel(0), 0.01, 0.001);
  EXPECT_TRUE(FindBinding(a, {SelVar::Kind::kJoin, 0})->pinned());
}

TEST_F(SelectivityTest, OneSidedJoinIsUncertain) {
  catalog_.CreateStatistic({t_.dim_pk});
  const Query q = testing::MakeJoinQuery(t_);
  const SelectivityAnalysis a = Analyze(q);
  const SelVarBinding* b = FindBinding(a, {SelVar::Kind::kJoin, 0});
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(b->from_magic);
  EXPECT_FALSE(b->pinned());
  EXPECT_NEAR(b->value, 0.01, 0.001);  // 1/V(pk)
  EXPECT_NEAR(b->high, 0.01, 0.001);   // upper bound is 1/V(known)
}

// --- overrides (the §7.2 selectivity-injection extension) ---

TEST_F(SelectivityTest, OverridePinsVariable) {
  Query q("q");
  q.AddTable(t_.fact);
  q.AddFilter({t_.fact_val, CompareOp::kLt, Datum(int64_t{50}), Datum()});
  SelectivityOverrides ov;
  ov[{SelVar::Kind::kFilter, 0}] = 0.007;
  const SelectivityAnalysis a = Analyze(q, ov);
  EXPECT_DOUBLE_EQ(a.filter_sel(0), 0.007);
  EXPECT_TRUE(FindBinding(a, {SelVar::Kind::kFilter, 0})->pinned());
}

TEST_F(SelectivityTest, OverrideTableConjunction) {
  Query q("q");
  q.AddTable(t_.fact);
  q.AddFilter({t_.fact_val, CompareOp::kLt, Datum(int64_t{50}), Datum()});
  q.AddFilter({t_.fact_grp, CompareOp::kEq, Datum(int64_t{3}), Datum()});
  SelectivityOverrides ov;
  ov[{SelVar::Kind::kTableConjunction, 0}] = 0.002;
  const SelectivityAnalysis a = Analyze(q, ov);
  EXPECT_DOUBLE_EQ(a.table_sel(0), 0.002);
}

// --- conjunction combination ---

TEST_F(SelectivityTest, IndependenceProductWhenAllPinned) {
  catalog_.CreateStatistic({t_.fact_val});
  catalog_.CreateStatistic({t_.fact_grp});
  Query q("q");
  q.AddTable(t_.fact);
  q.AddFilter({t_.fact_val, CompareOp::kLt, Datum(int64_t{50}), Datum()});
  q.AddFilter({t_.fact_grp, CompareOp::kEq, Datum(int64_t{3}), Datum()});
  const SelectivityAnalysis a = Analyze(q);
  EXPECT_NEAR(a.table_sel(0), 0.5 * 0.1, 0.02);
  // Residual correlation uncertainty is reported on the conjunction var.
  const SelVarBinding* b =
      FindBinding(a, {SelVar::Kind::kTableConjunction, 0});
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(b->pinned());
  EXPECT_LE(b->value, b->high + 1e-12);  // product <= min selectivity
  EXPECT_NEAR(b->high, 0.1, 0.02);       // Frechet upper = min sel
}

TEST_F(SelectivityTest, NoConjunctionVarWhileFiltersMagic) {
  Query q("q");
  q.AddTable(t_.fact);
  q.AddFilter({t_.fact_val, CompareOp::kLt, Datum(int64_t{50}), Datum()});
  q.AddFilter({t_.fact_grp, CompareOp::kEq, Datum(int64_t{3}), Datum()});
  const SelectivityAnalysis a = Analyze(q);
  // Individual magic vars carry the uncertainty; no conjunction binding.
  EXPECT_EQ(FindBinding(a, {SelVar::Kind::kTableConjunction, 0}), nullptr);
}

TEST_F(SelectivityTest, SameColumnRangesIntersected) {
  catalog_.CreateStatistic({t_.fact_val});
  Query q("q");
  q.AddTable(t_.fact);
  q.AddFilter({t_.fact_val, CompareOp::kGe, Datum(int64_t{20}), Datum()});
  q.AddFilter({t_.fact_val, CompareOp::kLt, Datum(int64_t{40}), Datum()});
  const SelectivityAnalysis a = Analyze(q);
  // Intersection [20, 40) covers ~20% — an independence product would give
  // 0.8 * 0.4 = 0.32.
  EXPECT_NEAR(a.table_sel(0), 0.2, 0.05);
}

TEST_F(SelectivityTest, MultiColumnStatCapturesCorrelation) {
  testing::CorrelatedDb c = testing::MakeCorrelatedDb(10000);
  StatsCatalog catalog(&c.db);
  catalog.CreateStatistic({c.a});
  catalog.CreateStatistic({c.b});
  Query q("q");
  q.AddTable(c.t);
  // a = 55 implies b = 5: true conjunction selectivity is sel(a) ~ 1%.
  q.AddFilter({c.a, CompareOp::kEq, Datum(int64_t{55}), Datum()});
  q.AddFilter({c.b, CompareOp::kEq, Datum(int64_t{5}), Datum()});

  const SelectivityAnalysis without = AnalyzeSelectivities(
      c.db, q, StatsView(&catalog), magic_, {});
  // Independence underestimates: 0.01 * 0.1 = 0.001.
  EXPECT_NEAR(without.table_sel(0), 0.001, 0.0005);

  catalog.CreateStatistic({c.a, c.b});
  const SelectivityAnalysis with_stat = AnalyzeSelectivities(
      c.db, q, StatsView(&catalog), magic_, {});
  // The multi-column density corrects toward the true 0.01.
  EXPECT_GT(with_stat.table_sel(0), 0.15 * 0.01);
  EXPECT_GE(with_stat.table_sel(0), 3.0 * without.table_sel(0));
}

// --- GROUP BY variables ---

TEST_F(SelectivityTest, GroupByMagicWithoutStats) {
  const Query q = testing::MakeFilterQuery(t_, 50, /*group=*/true);
  const SelectivityAnalysis a = Analyze(q);
  const SelVarBinding* b = FindBinding(a, {SelVar::Kind::kGroupBy, 0});
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->from_magic);
  // Groups estimate = fraction * |fact| capped by input.
  EXPECT_NEAR(a.EstimateGroups(1e9), magic_.group_by_fraction * 10000, 1.0);
}

TEST_F(SelectivityTest, GroupByPinnedBySingleColumnStat) {
  catalog_.CreateStatistic({t_.fact_grp});
  const Query q = testing::MakeFilterQuery(t_, 50, /*group=*/true);
  const SelectivityAnalysis a = Analyze(q);
  const SelVarBinding* b = FindBinding(a, {SelVar::Kind::kGroupBy, 0});
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->pinned());
  EXPECT_NEAR(a.EstimateGroups(1e9), 10.0, 0.5);  // 10 groups
}

TEST_F(SelectivityTest, GroupsCappedByInputRows) {
  catalog_.CreateStatistic({t_.fact_grp});
  const Query q = testing::MakeFilterQuery(t_, 50, /*group=*/true);
  const SelectivityAnalysis a = Analyze(q);
  EXPECT_DOUBLE_EQ(a.EstimateGroups(4.0), 4.0);
  EXPECT_DOUBLE_EQ(a.EstimateGroups(0.5), 1.0);  // at least one group
}

TEST_F(SelectivityTest, MultiColumnGroupByUncertainty) {
  testing::CorrelatedDb c = testing::MakeCorrelatedDb(10000);
  StatsCatalog catalog(&c.db);
  catalog.CreateStatistic({c.a});
  catalog.CreateStatistic({c.b});
  Query q("q");
  q.AddTable(c.t);
  q.AddFilter({c.c, CompareOp::kLt, Datum(int64_t{50}), Datum()});
  q.AddGroupBy(c.a);
  q.AddGroupBy(c.b);
  const SelectivityAnalysis a = AnalyzeSelectivities(
      c.db, q, StatsView(&catalog), magic_, {});
  const SelVarBinding* b = nullptr;
  for (const SelVarBinding& bb : a.bindings()) {
    if (bb.var.kind == SelVar::Kind::kGroupBy) b = &bb;
  }
  ASSERT_NE(b, nullptr);
  // Correlation uncertainty: independence says 1000 groups, truth is 100.
  EXPECT_FALSE(b->pinned());

  // With the multi-column statistic, the variable pins to the truth.
  catalog.CreateStatistic({c.a, c.b});
  const SelectivityAnalysis a2 = AnalyzeSelectivities(
      c.db, q, StatsView(&catalog), magic_, {});
  EXPECT_NEAR(a2.EstimateGroups(1e9), 100.0, 5.0);
}

// --- table pairs (multi-predicate joins) ---

TEST_F(SelectivityTest, PairConjunctionForTwoJoinPredicates) {
  // fact joins dim on fk = pk AND grp = attr (artificial second edge).
  Query q("q");
  q.AddTable(t_.fact);
  q.AddTable(t_.dim);
  q.AddJoin({t_.fact_fk, t_.dim_pk});
  q.AddJoin({t_.fact_grp, t_.dim_attr});
  catalog_.CreateStatistic({t_.fact_fk});
  catalog_.CreateStatistic({t_.dim_pk});
  catalog_.CreateStatistic({t_.fact_grp});
  catalog_.CreateStatistic({t_.dim_attr});
  const SelectivityAnalysis a = Analyze(q);
  ASSERT_EQ(a.pairs().size(), 1u);
  EXPECT_EQ(a.PairIndexFor(0, 1), 0);
  EXPECT_EQ(a.PairIndexFor(1, 0), 0);
  // Product of 1/100 and 1/max(10,7).
  EXPECT_NEAR(a.pair_sel(0), 0.01 * 0.1, 0.005);
  // Uncertainty binding present (no multi-column join stats yet).
  const SelVarBinding* b =
      FindBinding(a, {SelVar::Kind::kJoinConjunction, 0});
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(b->pinned());
}

TEST_F(SelectivityTest, SingleJoinPredicateHasNoPair) {
  const Query q = testing::MakeJoinQuery(t_);
  const SelectivityAnalysis a = Analyze(q);
  EXPECT_TRUE(a.pairs().empty());
  EXPECT_EQ(a.PairIndexFor(0, 1), -1);
}

TEST_F(SelectivityTest, JoinConjunctionOverride) {
  Query q("q");
  q.AddTable(t_.fact);
  q.AddTable(t_.dim);
  q.AddJoin({t_.fact_fk, t_.dim_pk});
  q.AddJoin({t_.fact_grp, t_.dim_attr});
  SelectivityOverrides ov;
  ov[{SelVar::Kind::kJoinConjunction, 0}] = 0.123;
  const SelectivityAnalysis a = Analyze(q, ov);
  ASSERT_EQ(a.pairs().size(), 1u);
  EXPECT_DOUBLE_EQ(a.pair_sel(0), 0.123);
}

TEST_F(SelectivityTest, MultiColumnJoinStatPinsPair) {
  Query q("q");
  q.AddTable(t_.fact);
  q.AddTable(t_.dim);
  q.AddJoin({t_.fact_fk, t_.dim_pk});
  q.AddJoin({t_.fact_grp, t_.dim_attr});
  catalog_.CreateStatistic({t_.fact_fk});
  catalog_.CreateStatistic({t_.dim_pk});
  catalog_.CreateStatistic({t_.fact_grp});
  catalog_.CreateStatistic({t_.dim_attr});
  catalog_.CreateStatistic({t_.fact_fk, t_.fact_grp});
  catalog_.CreateStatistic({t_.dim_pk, t_.dim_attr});
  const SelectivityAnalysis a = Analyze(q);
  const SelVarBinding* b = FindBinding(a, {SelVar::Kind::kJoinConjunction, 0});
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->pinned());
  // fact: grp = fk % 10 is functionally dependent on fk, so
  // distinct(fk, grp) = 100 — which is exactly what the multi-column
  // statistic captures (an independence product would claim 1000).
  // dim: (pk, attr) has 100 distinct pairs (pk unique). 1/max = 1/100.
  EXPECT_NEAR(a.pair_sel(0), 1.0 / 100.0, 2e-3);
  // Independence over the single-column statistics would have said
  // 1/100 * 1/10: the multi-column join statistics changed the estimate.
  StatsView no_multi(&catalog_);
  no_multi.Ignore(MakeStatKey({t_.fact_fk, t_.fact_grp}));
  no_multi.Ignore(MakeStatKey({t_.dim_pk, t_.dim_attr}));
  const SelectivityAnalysis indep = AnalyzeSelectivities(
      t_.db, q, no_multi, magic_);
  EXPECT_NEAR(indep.pair_sel(0), 1.0 / 1000.0, 2e-4);
}

// --- string predicates, boundaries, skew factors ---

TEST_F(SelectivityTest, StringEqualityThroughHistogram) {
  Database db;
  const TableId t = db.AddTable(Schema("s", {{"name", ValueType::kString}}));
  const std::vector<std::string> segments = {"AUTO", "BUILD", "FURN",
                                             "HOUSE", "MACH"};
  for (int i = 0; i < 1000; ++i) {
    // BUILD: 60% directly, plus i%10==6 maps to segments[1] too -> 70%.
    db.mutable_table(t).AppendRow(
        {Datum(i % 10 < 6 ? segments[1] : segments[i % 5])});
  }
  StatsCatalog catalog(&db);
  catalog.CreateStatistic({{t, 0}});
  Query q("q");
  q.AddTable(t);
  q.AddFilter({{t, 0}, CompareOp::kEq, Datum(std::string("BUILD")),
               Datum()});
  const SelectivityAnalysis a = AnalyzeSelectivities(
      db, q, StatsView(&catalog), magic_);
  EXPECT_NEAR(a.filter_sel(0), 0.7, 0.05);
}

TEST_F(SelectivityTest, BetweenSingleValue) {
  catalog_.CreateStatistic({t_.fact_grp});
  Query q("q");
  q.AddTable(t_.fact);
  q.AddFilter({t_.fact_grp, CompareOp::kBetween, Datum(int64_t{3}),
               Datum(int64_t{3})});
  const SelectivityAnalysis a = Analyze(q);
  EXPECT_NEAR(a.filter_sel(0), 0.1, 0.03);  // = equality on one of 10
}

TEST_F(SelectivityTest, OutOfDomainPredicateNearZero) {
  catalog_.CreateStatistic({t_.fact_val});
  Query q("q");
  q.AddTable(t_.fact);
  q.AddFilter({t_.fact_val, CompareOp::kGt, Datum(int64_t{1000}), Datum()});
  const SelectivityAnalysis a = Analyze(q);
  EXPECT_LT(a.filter_sel(0), 0.001);
}

TEST_F(SelectivityTest, SkewFactorRequiresStatistics) {
  const Query q = testing::MakeJoinQuery(t_);
  const SelectivityAnalysis a = Analyze(q);
  EXPECT_DOUBLE_EQ(a.SkewFactor(t_.fact_fk), 1.0);  // no stats -> neutral
}

TEST_F(SelectivityTest, UniformColumnSkewFactorIsOne) {
  catalog_.CreateStatistic({t_.fact_fk});
  catalog_.CreateStatistic({t_.dim_pk});
  const Query q = testing::MakeJoinQuery(t_);
  const SelectivityAnalysis a = Analyze(q);
  EXPECT_NEAR(a.SkewFactor(t_.fact_fk), 1.0, 0.1);  // fk = i % 100 uniform
}

TEST_F(SelectivityTest, GroupByColumnsAcrossTablesMultiply) {
  catalog_.CreateStatistic({t_.fact_grp});
  catalog_.CreateStatistic({t_.dim_attr});
  Query q = testing::MakeJoinQuery(t_);
  q.AddGroupBy(t_.fact_grp);   // 10 values
  q.AddGroupBy(t_.dim_attr);   // 7 values
  const SelectivityAnalysis a = Analyze(q);
  EXPECT_NEAR(a.EstimateGroups(1e9), 70.0, 2.0);
  EXPECT_DOUBLE_EQ(a.EstimateGroups(30.0), 30.0);  // capped by input
}

TEST_F(SelectivityTest, EpsilonParameterShapesMagicBounds) {
  Query q("q");
  q.AddTable(t_.fact);
  q.AddFilter({t_.fact_val, CompareOp::kLt, Datum(int64_t{50}), Datum()});
  const SelectivityAnalysis a = AnalyzeSelectivities(
      t_.db, q, StatsView(&catalog_), magic_, {}, /*epsilon=*/0.01);
  const SelVarBinding* b = FindBinding(a, {SelVar::Kind::kFilter, 0});
  ASSERT_NE(b, nullptr);
  EXPECT_NEAR(b->low, 0.01, 1e-12);
  EXPECT_NEAR(b->high, 0.99, 1e-12);
}

// --- descriptions ---

TEST_F(SelectivityTest, DescribeSelVarNamesEveryKind) {
  Query q("q");
  q.AddTable(t_.dim);   // position 0
  q.AddTable(t_.fact);  // position 1
  q.AddFilter({t_.fact_val, CompareOp::kLt, Datum(int64_t{50}), Datum()});
  q.AddFilter({t_.fact_flag, CompareOp::kEq, Datum(int64_t{1}), Datum()});
  q.AddFilter({t_.dim_attr, CompareOp::kBetween, Datum(int64_t{2}),
               Datum(int64_t{5})});
  q.AddJoin({t_.fact_fk, t_.dim_pk});
  q.AddJoin({t_.dim_attr, t_.fact_grp});
  q.AddGroupBy(t_.fact_grp);
  q.AddGroupBy(t_.dim_attr);
  // Pinned filters and joins give the two conjunctions a binding too.
  for (const ColumnRef c : {t_.fact_val, t_.fact_flag, t_.fact_fk, t_.dim_pk,
                            t_.fact_grp, t_.dim_attr}) {
    catalog_.CreateStatistic({c});
  }
  const SelectivityAnalysis a = Analyze(q);

  using K = SelVar::Kind;
  const std::vector<std::pair<SelVar, std::string>> want = {
      {{K::kFilter, 0}, "fact.val < 50"},
      {{K::kFilter, 1}, "fact.flag = 1"},
      {{K::kFilter, 2}, "dim.attr BETWEEN 2 AND 5"},
      {{K::kTableConjunction, 1}, "fact conjunction"},
      {{K::kJoin, 0}, "fact.fk = dim.pk"},
      {{K::kJoin, 1}, "dim.attr = fact.grp"},
      {{K::kJoinConjunction, 0}, "dim-fact join conjunction"},
      {{K::kGroupBy, 0}, "GROUP BY fraction of dim"},
      {{K::kGroupBy, 1}, "GROUP BY fraction of fact"},
  };
  ASSERT_EQ(a.bindings().size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(a.bindings()[i].var, want[i].first) << i;
    EXPECT_EQ(DescribeSelVar(t_.db, q, want[i].first), want[i].second);
  }
}

}  // namespace
}  // namespace autostats
