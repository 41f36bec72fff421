// Focused tests for join enumeration: method/config matrix, join-order
// sensitivity to statistics, cross products on disconnected graphs, the
// skew-adjusted index nested-loop costing, and bit-for-bit agreement with
// the tree-building reference enumerator (tests/reference_enumerator.h).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/candidate.h"
#include "core/mnsa.h"
#include "optimizer/join_graph.h"
#include "optimizer/optimizer.h"
#include "rags/rags.h"
#include "tests/reference_enumerator.h"
#include "tests/test_util.h"
#include "tpcd/dbgen.h"
#include "tpcd/schema.h"
#include "tpcd/tuning.h"

namespace autostats {
namespace {

std::set<PlanOp> OpsIn(const Plan& plan) {
  std::set<PlanOp> ops;
  for (const PlanNode* n : plan.Nodes()) ops.insert(n->op);
  return ops;
}

class EnumeratorTest : public ::testing::Test {
 protected:
  EnumeratorTest()
      : t_(testing::MakeTwoTableDb(10000, 100)), catalog_(&t_.db) {}

  Plan PlanWith(const EnumeratorConfig& ec, const Query& q) {
    OptimizerConfig config;
    config.enumerator = ec;
    Optimizer optimizer(&t_.db, config);
    return std::move(optimizer.Optimize(q, StatsView(&catalog_)).plan);
  }

  testing::TwoTableDb t_;
  StatsCatalog catalog_;
};

TEST_F(EnumeratorTest, EachJoinMethodUsableAlone) {
  const Query q = testing::MakeJoinQuery(t_);
  struct Case {
    PlanOp expect;
    EnumeratorConfig config;
  };
  EnumeratorConfig hash_only{true, false, false, false, false};
  EnumeratorConfig merge_only{false, true, false, false, false};
  EnumeratorConfig nlj_only{false, false, true, false, false};
  for (const Case& c : {Case{PlanOp::kHashJoin, hash_only},
                        Case{PlanOp::kMergeJoin, merge_only},
                        Case{PlanOp::kNestedLoopJoin, nlj_only}}) {
    const Plan p = PlanWith(c.config, q);
    EXPECT_TRUE(OpsIn(p).count(c.expect))
        << "expected " << PlanOpName(c.expect);
  }
}

TEST_F(EnumeratorTest, IndexNestedLoopNeedsIndex) {
  const Query q = testing::MakeJoinQuery(t_, 1);
  EnumeratorConfig inlj_only{false, false, false, true, false};
  // Without an index on either join column there is no INLJ alternative
  // and no other method: the enumerator must fail loudly... instead we
  // give it a fallback NLJ to confirm INLJ is simply not chosen.
  EnumeratorConfig inlj_or_nlj{false, false, true, true, false};
  const Plan p = PlanWith(inlj_or_nlj, q);
  EXPECT_FALSE(OpsIn(p).count(PlanOp::kIndexNestedLoopJoin));
  // With the index it becomes available.
  t_.db.AddIndex(IndexDef{"ix_pk", t_.dim, {t_.dim_pk.column}});
  const Plan p2 = PlanWith(inlj_only, q);
  EXPECT_TRUE(OpsIn(p2).count(PlanOp::kIndexNestedLoopJoin));
}

TEST_F(EnumeratorTest, SelectiveOuterPrefersIndexNestedLoop) {
  t_.db.AddIndex(IndexDef{"ix_pk", t_.dim, {t_.dim_pk.column}});
  catalog_.CreateStatistic({t_.fact_val});
  catalog_.CreateStatistic({t_.fact_fk});
  catalog_.CreateStatistic({t_.dim_pk});
  // dim joined into a 0.1%-selective fact: seek per outer row wins...
  Query selective("s");
  selective.AddTable(t_.dim);
  selective.AddTable(t_.fact);
  selective.AddJoin(JoinPredicate{t_.fact_fk, t_.dim_pk});
  selective.AddFilter(
      {t_.fact_val, CompareOp::kLt, Datum(int64_t{1}), Datum()});
  // ...but here the index is on dim (inner), so drive from filtered fact.
  t_.db.AddIndex(IndexDef{"ix_fk", t_.fact, {t_.fact_fk.column}});
  const Plan p = PlanWith(EnumeratorConfig{}, selective);
  EXPECT_TRUE(OpsIn(p).count(PlanOp::kIndexNestedLoopJoin) ||
              OpsIn(p).count(PlanOp::kHashJoin));
  // Unselective fact: scan-based join must win over per-row seeks.
  Query unselective("u");
  unselective.AddTable(t_.dim);
  unselective.AddTable(t_.fact);
  unselective.AddJoin(JoinPredicate{t_.fact_fk, t_.dim_pk});
  const Plan p2 = PlanWith(EnumeratorConfig{}, unselective);
  EXPECT_FALSE(OpsIn(p2).count(PlanOp::kIndexNestedLoopJoin));
}

TEST_F(EnumeratorTest, DisconnectedGraphGetsCrossProduct) {
  // Two tables, no join predicate: the plan must still cover both.
  Query q("cross");
  q.AddTable(t_.fact);
  q.AddTable(t_.dim);
  q.AddFilter({t_.fact_val, CompareOp::kLt, Datum(int64_t{1}), Datum()});
  StatsCatalog catalog(&t_.db);
  Optimizer optimizer(&t_.db);
  const OptimizeResult r = optimizer.Optimize(q, StatsView(&catalog));
  ASSERT_TRUE(r.plan.valid());
  std::set<TableId> tables;
  for (const PlanNode* n : r.plan.Nodes()) {
    if (n->table != kInvalidTableId) tables.insert(n->table);
  }
  EXPECT_EQ(tables.size(), 2u);
  // Cross product estimate: |filtered fact| x |dim|.
  EXPECT_GT(r.plan.root->est_rows, 99.0);
}

TEST_F(EnumeratorTest, ThreeWayJoinOrderFollowsSelectivity) {
  // chain: a -- b -- c, with a very selective filter on c. The DP should
  // start from (or early involve) the small side.
  Database db;
  const TableId a = db.AddTable(Schema("a", {{"k", ValueType::kInt64}}));
  const TableId b = db.AddTable(
      Schema("b", {{"ka", ValueType::kInt64}, {"kc", ValueType::kInt64}}));
  const TableId c = db.AddTable(
      Schema("c", {{"k", ValueType::kInt64}, {"f", ValueType::kInt64}}));
  for (int i = 0; i < 1000; ++i) {
    db.mutable_table(a).AppendRow({Datum(int64_t{i % 100})});
    db.mutable_table(b).AppendRow(
        {Datum(int64_t{i % 100}), Datum(int64_t{i % 50})});
    db.mutable_table(c).AppendRow(
        {Datum(int64_t{i % 50}), Datum(int64_t{i % 200})});
  }
  Query q("chain");
  q.AddTable(a);
  q.AddTable(b);
  q.AddTable(c);
  q.AddJoin(JoinPredicate{{a, 0}, {b, 0}});
  q.AddJoin(JoinPredicate{{b, 1}, {c, 0}});
  q.AddFilter({{c, 1}, CompareOp::kEq, Datum(int64_t{7}), Datum()});
  StatsCatalog catalog(&db);
  for (const CandidateStat& cand : CandidateStatistics(q)) {
    catalog.CreateStatistic(cand.columns);
  }
  Optimizer optimizer(&db);
  const OptimizeResult r = optimizer.Optimize(q, StatsView(&catalog));
  ASSERT_TRUE(r.plan.valid());
  // All three tables appear exactly once as scans.
  int scans = 0;
  for (const PlanNode* n : r.plan.Nodes()) {
    if (n->op == PlanOp::kTableScan || n->op == PlanOp::kIndexSeek) ++scans;
  }
  EXPECT_EQ(scans, 3);
  // And its cost beats a nested-loop-only plan's cost.
  OptimizerConfig nl;
  nl.enumerator = EnumeratorConfig{false, false, true, false, false};
  Optimizer nl_optimizer(&db, nl);
  EXPECT_LE(r.cost, nl_optimizer.Optimize(q, StatsView(&catalog)).cost);
}

TEST_F(EnumeratorTest, SkewFactorSteersAwayFromIndexNlj) {
  // Inner join column heavily skewed: with statistics the INLJ estimate is
  // inflated by the skew factor, pushing the choice to a scan-based join.
  Database db;
  const TableId outer = db.AddTable(Schema("o", {{"k", ValueType::kInt64}}));
  const TableId inner = db.AddTable(Schema("i", {{"k", ValueType::kInt64}}));
  for (int i = 0; i < 50; ++i) {
    db.mutable_table(outer).AppendRow({Datum(int64_t{i})});
  }
  // 10000 inner rows, 95% sharing key 0.
  for (int i = 0; i < 10000; ++i) {
    db.mutable_table(inner).AppendRow(
        {Datum(int64_t{i < 9500 ? 0 : (i % 50)})});
  }
  db.AddIndex(IndexDef{"ix_inner", inner, {0}});
  Query q("skewed");
  q.AddTable(outer);
  q.AddTable(inner);
  q.AddJoin(JoinPredicate{{outer, 0}, {inner, 0}});

  StatsCatalog catalog(&db);
  catalog.CreateStatistic({{outer, 0}});
  catalog.CreateStatistic({{inner, 0}});
  Optimizer optimizer(&db);
  const SelectivityAnalysis sel = AnalyzeSelectivities(
      db, q, StatsView(&catalog), optimizer.config().magic);
  EXPECT_GT(sel.SkewFactor({inner, 0}), 5.0);
  EXPECT_DOUBLE_EQ(sel.SkewFactor({outer, 0}), 1.0);
}

TEST_F(EnumeratorTest, EightTableChainFinishesQuickly) {
  Database db;
  std::vector<TableId> tables;
  for (int t = 0; t < 8; ++t) {
    std::string name = "t";
    name += std::to_string(t);
    tables.push_back(db.AddTable(Schema(
        name, {{"a", ValueType::kInt64}, {"b", ValueType::kInt64}})));
    for (int i = 0; i < 100; ++i) {
      db.mutable_table(tables.back())
          .AppendRow({Datum(int64_t{i}), Datum(int64_t{i % 10})});
    }
  }
  Query q("chain8");
  for (TableId t : tables) q.AddTable(t);
  for (int t = 0; t + 1 < 8; ++t) {
    q.AddJoin(JoinPredicate{{tables[static_cast<size_t>(t)], 1},
                            {tables[static_cast<size_t>(t + 1)], 0}});
  }
  StatsCatalog catalog(&db);
  Optimizer optimizer(&db);
  const OptimizeResult r = optimizer.Optimize(q, StatsView(&catalog));
  ASSERT_TRUE(r.plan.valid());
  EXPECT_EQ(r.plan.Nodes().size() >= 15u, true);  // 8 scans + 7 joins
}

// Every selectivity variable of the query pinned to one end of its range.
SelectivityOverrides AllAt(const std::vector<SelVarBinding>& bindings,
                           bool high) {
  SelectivityOverrides out;
  for (const SelVarBinding& b : bindings) out[b.var] = high ? b.high : b.low;
  return out;
}

TEST_F(EnumeratorTest, MatchesReferenceBitForBit) {
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
  int64_t index_nlj_nodes = 0;
  int64_t index_seek_nodes = 0;
  for (const bool indexed : {false, true}) {
    Database db = tpcd::BuildTpcdVariant("TPCD_MIX", 0.0005, 42);
    if (indexed) tpcd::ApplyTunedIndexes(&db);
    const Optimizer optimizer(&db);
    const CostModel& cost = optimizer.cost_model();
    const OptimizerConfig& oc = optimizer.config();
    for (const rags::Complexity complexity :
         {rags::Complexity::kSimple, rags::Complexity::kComplex}) {
      rags::RagsConfig rc;
      rc.num_statements = 30;
      rc.complexity = complexity;
      rc.seed = 11;
      rc.join_edges = tpcd::TpcdForeignKeys(db);
      const Workload w = rags::Generate(db, rc);
      // The catalog evolves under MNSA/D as the stream is processed, so
      // later queries are planned on histograms, densities and drops.
      StatsCatalog catalog(&db);
      MnsaConfig mnsa_d;
      mnsa_d.drop_detection = true;
      for (const Query* q : w.Queries()) {
        const StatsView view(&catalog);
        const std::vector<SelVarBinding> bindings =
            optimizer.Optimize(*q, view).bindings;
        const bool connected =
            JoinGraph(*q).IsConnected((1u << q->num_tables()) - 1u);
        for (const SelectivityOverrides& overrides :
             {SelectivityOverrides{}, AllAt(bindings, false),
              AllAt(bindings, true)}) {
          const SelectivityAnalysis sel = AnalyzeSelectivities(
              db, *q, view, oc.magic, overrides, oc.epsilon);
          const CardinalityModel card(&db, q, &sel);
          for (const Config& c : configs) {
            if (c.connected_only && !connected) continue;
            const Plan got = EnumerateJoins(db, *q, card, cost, c.config);
            const Plan want =
                testing::ReferenceEnumerateJoins(db, *q, card, cost, c.config);
            ASSERT_EQ(testing::PlanDiff(*got.root, *want.root), "")
                << q->name() << " config=" << c.name;
            ++compared;
            for (const PlanNode* n : want.Nodes()) {
              index_nlj_nodes += n->op == PlanOp::kIndexNestedLoopJoin;
              index_seek_nodes += n->op == PlanOp::kIndexSeek;
            }
          }
        }
        RunMnsa(optimizer, &catalog, *q, mnsa_d);
      }
    }
  }
  EXPECT_GT(compared, 1000);
  // The tuned indexes put both index paths into the compared trees.
  EXPECT_GT(index_nlj_nodes, 0);
  EXPECT_GT(index_seek_nodes, 0);
}

// The enumerators above share one CardinalityModel, so that comparison
// cannot see a JoinRows change: every subset's rows are compared here, by
// bit pattern, with the per-subset derivation, over the same databases,
// streams and overrides.
TEST_F(EnumeratorTest, JoinRowsMatchesReferenceBitForBit) {
  const auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };
  int64_t compared = 0;
  for (const bool indexed : {false, true}) {
    Database db = tpcd::BuildTpcdVariant("TPCD_MIX", 0.0005, 42);
    if (indexed) tpcd::ApplyTunedIndexes(&db);
    const Optimizer optimizer(&db);
    const OptimizerConfig& oc = optimizer.config();
    for (const rags::Complexity complexity :
         {rags::Complexity::kSimple, rags::Complexity::kComplex}) {
      rags::RagsConfig rc;
      rc.num_statements = 30;
      rc.complexity = complexity;
      rc.seed = 11;
      rc.join_edges = tpcd::TpcdForeignKeys(db);
      const Workload w = rags::Generate(db, rc);
      StatsCatalog catalog(&db);
      MnsaConfig mnsa_d;
      mnsa_d.drop_detection = true;
      for (const Query* q : w.Queries()) {
        const StatsView view(&catalog);
        const std::vector<SelVarBinding> bindings =
            optimizer.Optimize(*q, view).bindings;
        for (const SelectivityOverrides& overrides :
             {SelectivityOverrides{}, AllAt(bindings, false),
              AllAt(bindings, true)}) {
          const SelectivityAnalysis sel = AnalyzeSelectivities(
              db, *q, view, oc.magic, overrides, oc.epsilon);
          const CardinalityModel card(&db, q, &sel);
          const uint32_t full = (1u << q->num_tables()) - 1u;
          for (uint32_t mask = 1; mask <= full; ++mask) {
            ASSERT_EQ(bits(card.JoinRows(mask)),
                      bits(testing::ReferenceJoinRows(*q, card, mask)))
                << q->name() << " mask=" << mask;
            ++compared;
          }
        }
        RunMnsa(optimizer, &catalog, *q, mnsa_d);
      }
    }
  }
  EXPECT_GT(compared, 10000);

  // Rags joins one key pair per table pair; a pair joined by two
  // predicates takes the combined pair selectivity instead.
  Query q("two_predicates");
  q.AddTable(t_.fact);
  q.AddTable(t_.dim);
  q.AddJoin({t_.fact_fk, t_.dim_pk});
  q.AddJoin({t_.fact_grp, t_.dim_attr});
  q.AddFilter({t_.fact_val, CompareOp::kLt, Datum(int64_t{50}), Datum()});
  for (const bool with_stats : {false, true}) {
    if (with_stats) {
      for (const ColumnRef c :
           {t_.fact_fk, t_.dim_pk, t_.fact_grp, t_.dim_attr, t_.fact_val}) {
        catalog_.CreateStatistic({c});
      }
    }
    const SelectivityAnalysis sel = AnalyzeSelectivities(
        t_.db, q, StatsView(&catalog_), MagicNumbers{});
    ASSERT_EQ(sel.pairs().size(), 1u);
    const CardinalityModel card(&t_.db, &q, &sel);
    for (uint32_t mask = 1; mask <= 3u; ++mask) {
      EXPECT_EQ(bits(card.JoinRows(mask)),
                bits(testing::ReferenceJoinRows(q, card, mask)))
          << "mask=" << mask << " with_stats=" << with_stats;
    }
  }
}

}  // namespace
}  // namespace autostats
