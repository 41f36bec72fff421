#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "query/parser.h"
#include "query/printer.h"
#include "query/workload_io.h"
#include "rags/rags.h"
#include "tests/test_util.h"
#include "tpcd/dbgen.h"
#include "tpcd/schema.h"

namespace autostats {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  ParserTest() : t_(testing::MakeTwoTableDb(100, 10)) {}

  Result<Query> Parse(const std::string& sql) {
    return ParseQuery(t_.db, sql);
  }

  testing::TwoTableDb t_;
};

TEST_F(ParserTest, MinimalQuery) {
  Result<Query> q = Parse("SELECT * FROM fact");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->num_tables(), 1);
  EXPECT_TRUE(q->filters().empty());
  EXPECT_TRUE(q->joins().empty());
}

TEST_F(ParserTest, QualifiedFilter) {
  Result<Query> q = Parse("SELECT * FROM fact WHERE fact.val < 42");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->filters().size(), 1u);
  EXPECT_EQ(q->filters()[0].column, t_.fact_val);
  EXPECT_EQ(q->filters()[0].op, CompareOp::kLt);
  EXPECT_EQ(q->filters()[0].value.AsInt64(), 42);
}

TEST_F(ParserTest, BareColumnResolved) {
  Result<Query> q = Parse("SELECT * FROM fact WHERE val >= 10");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->filters()[0].column, t_.fact_val);
  EXPECT_EQ(q->filters()[0].op, CompareOp::kGe);
}

TEST_F(ParserTest, AllComparisonOperators) {
  for (const char* op : {"=", "<", "<=", ">", ">="}) {
    Result<Query> q = Parse(std::string("SELECT * FROM fact WHERE val ") +
                            op + " 5");
    ASSERT_TRUE(q.ok()) << op << ": " << q.status().ToString();
  }
}

TEST_F(ParserTest, BetweenPredicate) {
  Result<Query> q =
      Parse("SELECT * FROM fact WHERE val BETWEEN 10 AND 20");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->filters().size(), 1u);
  EXPECT_EQ(q->filters()[0].op, CompareOp::kBetween);
  EXPECT_EQ(q->filters()[0].value.AsInt64(), 10);
  EXPECT_EQ(q->filters()[0].value2.AsInt64(), 20);
}

TEST_F(ParserTest, JoinAndFiltersAndGroupBy) {
  Result<Query> q = Parse(
      "select * from fact, dim where fact.fk = dim.pk and val < 50 "
      "group by grp, dim.attr");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->num_tables(), 2);
  ASSERT_EQ(q->joins().size(), 1u);
  EXPECT_EQ(q->joins()[0].left, t_.fact_fk);
  EXPECT_EQ(q->joins()[0].right, t_.dim_pk);
  EXPECT_EQ(q->filters().size(), 1u);
  ASSERT_EQ(q->group_by().size(), 2u);
  EXPECT_EQ(q->group_by()[0], t_.fact_grp);
  EXPECT_EQ(q->group_by()[1], t_.dim_attr);
}

TEST_F(ParserTest, RoundTripsThroughPrinter) {
  const std::string sql =
      "SELECT * FROM fact, dim WHERE fact.fk = dim.pk AND fact.val < 42 "
      "GROUP BY fact.grp";
  Result<Query> q = Parse(sql);
  ASSERT_TRUE(q.ok());
  const std::string printed = QueryToSql(t_.db, *q);
  Result<Query> again = Parse(printed);
  ASSERT_TRUE(again.ok()) << printed;
  EXPECT_EQ(QueryToSql(t_.db, *again), printed);
}

TEST_F(ParserTest, StringAndNegativeLiterals) {
  Database db;
  const TableId t = db.AddTable(Schema(
      "s", {{"name", ValueType::kString}, {"x", ValueType::kInt64}}));
  db.mutable_table(t).AppendRow({Datum(std::string("a")), Datum(int64_t{1})});
  Result<Query> q =
      ParseQuery(db, "SELECT * FROM s WHERE name = 'EUROPE' AND x > -5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->filters()[0].value.AsString(), "EUROPE");
  EXPECT_EQ(q->filters()[1].value.AsInt64(), -5);
}

TEST_F(ParserTest, DoubleLiteralCoercion) {
  Database db;
  const TableId t =
      db.AddTable(Schema("d", {{"x", ValueType::kDouble}}));
  db.mutable_table(t).AppendRow({Datum(1.5)});
  // Both double and integer literals work against a double column.
  EXPECT_TRUE(ParseQuery(db, "SELECT * FROM d WHERE x < 2.5").ok());
  EXPECT_TRUE(ParseQuery(db, "SELECT * FROM d WHERE x < 2").ok());
}

// --- error cases ---

TEST_F(ParserTest, ErrorsAreInformative) {
  struct Case {
    const char* sql;
    StatusCode code;
  };
  const Case cases[] = {
      {"SELECT * FROM nosuch", StatusCode::kNotFound},
      {"SELECT * FROM fact WHERE nosuch = 1", StatusCode::kNotFound},
      {"SELECT * FROM fact WHERE dim.pk = 1", StatusCode::kInvalidArgument},
      {"SELECT * FROM fact WHERE val", StatusCode::kInvalidArgument},
      {"SELECT * FROM fact WHERE val = 'text'",
       StatusCode::kInvalidArgument},
      {"SELECT * FROM fact, fact", StatusCode::kInvalidArgument},
      {"SELECT * FROM fact WHERE val BETWEEN 1", StatusCode::kInvalidArgument},
      {"SELECT * FROM fact trailing", StatusCode::kInvalidArgument},
      {"FROM fact", StatusCode::kInvalidArgument},
      {"SELECT * FROM fact WHERE val = 'unterminated",
       StatusCode::kInvalidArgument},
      {"SELECT * FROM fact WHERE fact.val = fact.grp",
       StatusCode::kInvalidArgument},  // self-join
  };
  for (const Case& c : cases) {
    Result<Query> q = Parse(c.sql);
    ASSERT_FALSE(q.ok()) << c.sql;
    EXPECT_EQ(q.status().code(), c.code) << c.sql << " -> "
                                         << q.status().ToString();
  }
}

TEST_F(ParserTest, AmbiguousBareColumn) {
  Database db;
  const TableId a = db.AddTable(Schema("a", {{"x", ValueType::kInt64},
                                             {"j", ValueType::kInt64}}));
  const TableId b = db.AddTable(Schema("b", {{"x", ValueType::kInt64},
                                             {"j", ValueType::kInt64}}));
  db.mutable_table(a).AppendRow({Datum(int64_t{1}), Datum(int64_t{1})});
  db.mutable_table(b).AppendRow({Datum(int64_t{1}), Datum(int64_t{1})});
  Result<Query> q =
      ParseQuery(db, "SELECT * FROM a, b WHERE a.j = b.j AND x = 1");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("ambiguous"), std::string::npos);
}

TEST_F(ParserTest, OutOfRangeNumericLiteralIsATypedError) {
  EXPECT_EQ(Parse("SELECT * FROM fact WHERE val < 99999999999999999999")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse("SELECT * FROM fact WHERE val < 1" + std::string(400, '0') +
                  ".5")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ParserTest, CaseInsensitiveKeywords) {
  EXPECT_TRUE(Parse("sElEcT * FrOm fact wHeRe val < 3").ok());
}

// --- fuzz: arbitrary byte soup must return a status, never crash ---

class ParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzzTest, RandomInputNeverCrashes) {
  testing::TwoTableDb t = testing::MakeTwoTableDb(10, 5);
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337 + 1);
  const std::string alphabet =
      "SELECT*FROM fact dim WHERE val grp = <>',.0123456789'\t\n_x";
  for (int i = 0; i < 200; ++i) {
    std::string input;
    const size_t len = rng.NextU64(60);
    for (size_t k = 0; k < len; ++k) {
      input += alphabet[rng.NextU64(alphabet.size())];
    }
    const Result<Query> q = ParseQuery(t.db, input);
    if (q.ok()) {
      EXPECT_GE(q->num_tables(), 1);  // a valid parse has a FROM table
    }
  }
}

TEST_P(ParserFuzzTest, MutatedValidQueryNeverCrashes) {
  testing::TwoTableDb t = testing::MakeTwoTableDb(10, 5);
  Rng rng(static_cast<uint64_t>(GetParam()) * 977 + 5);
  const std::string base =
      "SELECT * FROM fact, dim WHERE fact.fk = dim.pk AND val BETWEEN 1 "
      "AND 9 GROUP BY grp";
  for (int i = 0; i < 200; ++i) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.NextU64(4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.NextU64(mutated.size());
      switch (rng.NextU64(3)) {
        case 0:
          mutated[pos] = static_cast<char>('!' + rng.NextU64(90));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1,
                         static_cast<char>('!' + rng.NextU64(90)));
          break;
      }
    }
    ParseQuery(t.db, mutated);  // must not crash; status either way
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Range(0, 4));

// --- fuzz: workload-file lines (query/workload_io.h) ---

// A recorded Rags stream's lines round-trip unmutated; byte flips,
// deletions and token swaps of them each parse or return a typed error.
TEST(WorkloadLineFuzzTest, MutatedRagsLinesReturnOkOrTypedError) {
  tpcd::TpcdConfig tc;
  tc.scale_factor = 0.0005;
  const Database db = tpcd::BuildTpcd(tc);
  rags::RagsConfig rc;
  rc.num_statements = 80;
  rc.update_fraction = 0.5;
  rc.complexity = rags::Complexity::kComplex;
  rc.seed = 15;
  rc.join_edges = tpcd::TpcdForeignKeys(db);
  const Workload stream = rags::Generate(db, rc);
  std::vector<std::string> lines;
  for (const Statement& s : stream.statements()) {
    const std::string line = StatementToLine(db, s);
    const Result<Statement> back = ParseStatementLine(db, line);
    ASSERT_TRUE(back.ok()) << line << ": " << back.status().ToString();
    EXPECT_EQ(StatementToLine(db, *back), line);
    lines.push_back(line);
  }

  Rng rng(0xF022);
  for (int i = 0; i < 4000; ++i) {
    std::string m = lines[rng.NextU64(lines.size())];
    const int edits = 1 + static_cast<int>(rng.NextU64(3));
    for (int e = 0; e < edits && !m.empty(); ++e) {
      const size_t pos = rng.NextU64(m.size());
      switch (rng.NextU64(3)) {
        case 0:  // flip one bit of one byte
          m[pos] = static_cast<char>(m[pos] ^ (1 << rng.NextU64(8)));
          break;
        case 1:
          m.erase(pos, 1);
          break;
        default: {  // swap two whitespace-separated tokens
          std::istringstream ss(m);
          std::vector<std::string> tok;
          for (std::string w; ss >> w;) tok.push_back(w);
          if (tok.size() < 2) break;
          std::swap(tok[rng.NextU64(tok.size())], tok[rng.NextU64(tok.size())]);
          m.clear();
          for (const std::string& w : tok) m += (m.empty() ? "" : " ") + w;
          break;
        }
      }
    }
    const Result<Statement> parsed = ParseStatementLine(db, m);
    if (!parsed.ok()) {
      const StatusCode code = parsed.status().code();
      EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kNotFound)
          << m << ": " << parsed.status().ToString();
    }
  }
}

}  // namespace
}  // namespace autostats
