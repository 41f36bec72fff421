#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tpcd/dbgen.h"
#include "tpcd/schema.h"
#include "tpcd/tbl_io.h"

namespace autostats {
namespace {

class TblIoTest : public ::testing::Test {
 protected:
  TblIoTest()
      : dir_(std::filesystem::temp_directory_path() / "autostats_tbl_test") {
    std::filesystem::remove_all(dir_);
  }
  ~TblIoTest() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(TblIoTest, RoundTripPreservesData) {
  tpcd::TpcdConfig config;
  config.scale_factor = 0.001;
  config.skew_mode = tpcd::SkewMode::kFixed;
  config.z = 2.0;
  const Database original = tpcd::BuildTpcd(config);
  ASSERT_TRUE(tpcd::WriteTblFiles(original, dir_.string()).ok());

  Database loaded;
  tpcd::AddTpcdSchema(&loaded);
  ASSERT_TRUE(tpcd::LoadTblFiles(&loaded, dir_.string()).ok());

  for (int t = 0; t < original.num_tables(); ++t) {
    const Table& a = original.table(t);
    const Table& b = loaded.table(t);
    ASSERT_EQ(a.num_rows(), b.num_rows()) << a.schema().table_name();
    for (size_t r = 0; r < a.num_rows(); r += 17) {
      for (int c = 0; c < a.schema().num_columns(); ++c) {
        const Datum va = a.GetCell(r, c);
        const Datum vb = b.GetCell(r, c);
        if (va.type() == ValueType::kDouble) {
          // Doubles round-trip through two decimals (money semantics).
          EXPECT_NEAR(va.AsDouble(), vb.AsDouble(), 0.005);
        } else {
          EXPECT_TRUE(va == vb)
              << a.schema().table_name() << " row " << r << " col " << c;
        }
      }
    }
  }
}

TEST_F(TblIoTest, MissingFileReported) {
  Database db;
  tpcd::AddTpcdSchema(&db);
  const Status s = tpcd::LoadTblFiles(&db, dir_.string());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(TblIoTest, MalformedRowReported) {
  Database db;
  tpcd::AddTpcdSchema(&db);
  std::filesystem::create_directories(dir_);
  // Valid empty files for all tables, then corrupt one row in region.
  {
    Database empty;
    tpcd::AddTpcdSchema(&empty);
    ASSERT_TRUE(tpcd::WriteTblFiles(empty, dir_.string()).ok());
  }
  std::ofstream out(dir_ / "region.tbl");
  out << "0|AFRICA|\n";    // ok (2 fields)
  out << "not-a-number|\n";  // wrong arity + bad int
  out.close();
  const Status s = tpcd::LoadTblFiles(&db, dir_.string());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("region.tbl:2"), std::string::npos)
      << s.ToString();
}

TEST_F(TblIoTest, BadIntegerFieldReported) {
  Database db;
  db.AddTable(Schema("t", {{"x", ValueType::kInt64}}));
  std::filesystem::create_directories(dir_);
  std::ofstream out(dir_ / "t.tbl");
  out << "12abc|\n";
  out.close();
  const Status s = tpcd::LoadTblFiles(&db, dir_.string());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// strtod consumes "nan" and "inf" whole with errno 0; the loader must
// still refuse them, since no column may hold a non-finite double. A
// negative zero is an ordinary value.
TEST_F(TblIoTest, NonFiniteDoubleFieldReported) {
  std::filesystem::create_directories(dir_);
  for (const char* field : {"nan", "NAN", "-nan", "inf", "-inf", "infinity",
                            "1e999", "-1e999"}) {
    Database db;
    db.AddTable(Schema("t", {{"x", ValueType::kDouble}}));
    std::ofstream out(dir_ / "t.tbl");
    out << "1.5|\n" << field << "|\n";
    out.close();
    const Status s = tpcd::LoadTblFiles(&db, dir_.string());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << field;
    EXPECT_NE(s.message().find("bad double field: "), std::string::npos)
        << s.ToString();
  }
  Database db;
  db.AddTable(Schema("t", {{"x", ValueType::kDouble}}));
  std::ofstream out(dir_ / "t.tbl");
  out << "-0.0|\n0.0|\n";
  out.close();
  ASSERT_TRUE(tpcd::LoadTblFiles(&db, dir_.string()).ok());
  const std::vector<double>& x = db.table(0).column(0).double_data();
  ASSERT_EQ(x.size(), 2u);
  EXPECT_TRUE(x[0] == 0.0 && std::signbit(x[0]));
  EXPECT_TRUE(x[1] == 0.0 && !std::signbit(x[1]));
}

}  // namespace
}  // namespace autostats
