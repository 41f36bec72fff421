// Tests for the perf-trajectory gate (diag/bench_diff.h): the BENCH_*.json
// parser against the exact BenchJson emission format, the rules grammar,
// and the gate semantics bench_diff_gate (ctest label bench-diff) relies
// on — most importantly that the gate can never pass vacuously when a
// measurement goes missing.
#include "diag/bench_diff.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "bench/bench_util.h"

namespace autostats::diag {
namespace {

namespace fs = std::filesystem;

class BenchDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "bench_diff_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Dir(const std::string& sub = "") {
    const fs::path p = sub.empty() ? dir_ : dir_ / sub;
    fs::create_directories(p);
    return p.string();
  }

  void WriteFile(const std::string& path, const std::string& contents) {
    std::ofstream f(path);
    f << contents;
    ASSERT_TRUE(f.good()) << path;
  }

  fs::path dir_;
};

// The parser must round-trip what BenchJson::Write actually emits — use
// the real emitter, not a hand-written imitation of it.
TEST_F(BenchDiffTest, ParsesRealBenchJsonEmission) {
  ::setenv("AUTOSTATS_BENCH_JSON_DIR", Dir().c_str(), 1);
  bench::BenchJson json("parser_roundtrip");
  json.Add("label", std::string("U25-\"C\"-100\\x"));
  json.Add("count", 42.0);
  json.Add("seventeen_digits", 0.1234567890123456789);
  json.Add("negative", -1e-300);
  ASSERT_TRUE(json.Write());
  ::unsetenv("AUTOSTATS_BENCH_JSON_DIR");

  Result<BenchDoc> doc =
      ParseBenchJson(Dir() + "/BENCH_parser_roundtrip.json");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->bench, "parser_roundtrip");
  EXPECT_EQ(doc->strings.at("label"), "U25-\"C\"-100\\x");
  EXPECT_EQ(doc->numbers.at("count"), 42.0);
  // %.17g precision survives the round trip bit-for-bit.
  EXPECT_EQ(doc->numbers.at("seventeen_digits"), 0.1234567890123456789);
  EXPECT_EQ(doc->numbers.at("negative"), -1e-300);
}

TEST_F(BenchDiffTest, ParserRejectsGarbage) {
  EXPECT_FALSE(ParseBenchJson(Dir() + "/BENCH_missing.json").ok());
  WriteFile(Dir() + "/BENCH_trunc.json", "{\n  \"bench\": \"trunc\",\n");
  EXPECT_FALSE(ParseBenchJson(Dir() + "/BENCH_trunc.json").ok());
  WriteFile(Dir() + "/BENCH_nested.json",
            "{\"bench\": \"nested\", \"a\": [1, 2]}");
  EXPECT_FALSE(ParseBenchJson(Dir() + "/BENCH_nested.json").ok());
  WriteFile(Dir() + "/BENCH_nonnum.json",
            "{\"bench\": \"nonnum\", \"a\": true}");
  EXPECT_FALSE(ParseBenchJson(Dir() + "/BENCH_nonnum.json").ok());
}

TEST_F(BenchDiffTest, RulesGrammar) {
  WriteFile(Dir() + "/ok.rules",
            "# trajectory gates\n"
            "hotpath counts exact 0\n"
            "hotpath ratio higher 50 min=1.5  # trailing comment\n"
            "hotpath latency lower 25\n");
  Result<std::vector<GateRule>> rules = ParseRulesFile(Dir() + "/ok.rules");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 3u);
  EXPECT_EQ((*rules)[0].direction, GateDirection::kExact);
  EXPECT_EQ((*rules)[1].direction, GateDirection::kHigherIsBetter);
  EXPECT_EQ((*rules)[1].min_value, 1.5);
  EXPECT_EQ((*rules)[2].direction, GateDirection::kLowerIsBetter);
  EXPECT_EQ((*rules)[2].tolerance_percent, 25.0);

  WriteFile(Dir() + "/bad_dir.rules", "hotpath x sideways 0\n");
  EXPECT_FALSE(ParseRulesFile(Dir() + "/bad_dir.rules").ok());
  WriteFile(Dir() + "/bad_tol.rules", "hotpath x exact -1\n");
  EXPECT_FALSE(ParseRulesFile(Dir() + "/bad_tol.rules").ok());
  WriteFile(Dir() + "/bad_extra.rules", "hotpath x exact 0 max=2\n");
  EXPECT_FALSE(ParseRulesFile(Dir() + "/bad_extra.rules").ok());
  // An empty rules file would gate nothing and pass everything: rejected.
  WriteFile(Dir() + "/empty.rules", "# no rules\n\n");
  EXPECT_FALSE(ParseRulesFile(Dir() + "/empty.rules").ok());
}

// A floor that does not parse must fail the rules file, never turn the
// floor off. (The committed gate.rules parsing is pinned by
// CommittedRulesAndBaselinesAreConsistent below.)
TEST_F(BenchDiffTest, MinFloorParsesStrictly) {
  for (const char* good : {"0.95", "1"}) {
    WriteFile(Dir() + "/good.rules",
              std::string("x ratio higher 90 min=") + good + "\n");
    Result<std::vector<GateRule>> rules =
        ParseRulesFile(Dir() + "/good.rules");
    ASSERT_TRUE(rules.ok()) << good << ": " << rules.status().ToString();
    EXPECT_EQ((*rules)[0].min_value, std::strtod(good, nullptr));
  }
  for (const char* bad :
       {"O.95", "", "abc", "nan", "0.95x", "inf", "1e999", "0x1p0"}) {
    const std::string path = Dir() + "/bad.rules";
    WriteFile(path, std::string("x ratio higher 90 min=") + bad + "\n");
    Result<std::vector<GateRule>> rules = ParseRulesFile(path);
    ASSERT_FALSE(rules.ok()) << "accepted min=" << bad;
    EXPECT_EQ(rules.status().message(),
              path + ":1: bad min value '" + bad + "'");
  }
  WriteFile(Dir() + "/twice.rules", "x ratio higher 90 min=1 min=2\n");
  EXPECT_FALSE(ParseRulesFile(Dir() + "/twice.rules").ok());
}

TEST_F(BenchDiffTest, GateDirections) {
  WriteFile(Dir("base") + "/BENCH_g.json",
            "{\"bench\": \"g\", \"count\": 10, \"up\": 2.0, \"down\": 100}");
  WriteFile(Dir("fresh") + "/BENCH_g.json",
            "{\"bench\": \"g\", \"count\": 10, \"up\": 1.7, \"down\": 109}");
  std::vector<GateRule> rules = {
      {"g", "count", GateDirection::kExact, 0.0},
      {"g", "up", GateDirection::kHigherIsBetter, 20.0},
      {"g", "down", GateDirection::kLowerIsBetter, 10.0},
  };
  DiffReport ok = DiffAgainstBaselines(Dir("base"), Dir("fresh"), rules);
  EXPECT_TRUE(ok.ok()) << ok.ToString();  // -15% and +9% inside tolerance

  // Push both relative series past tolerance and drift the exact one.
  WriteFile(Dir("fresh") + "/BENCH_g.json",
            "{\"bench\": \"g\", \"count\": 11, \"up\": 1.5, \"down\": 115}");
  DiffReport bad = DiffAgainstBaselines(Dir("base"), Dir("fresh"), rules);
  EXPECT_EQ(bad.failures, 3) << bad.ToString();

  // Improvements never fail: higher up, lower down.
  WriteFile(Dir("fresh") + "/BENCH_g.json",
            "{\"bench\": \"g\", \"count\": 10, \"up\": 9.0, \"down\": 1}");
  DiffReport improved = DiffAgainstBaselines(Dir("base"), Dir("fresh"), rules);
  EXPECT_TRUE(improved.ok()) << improved.ToString();
}

TEST_F(BenchDiffTest, MinFloorIndependentOfBaseline) {
  WriteFile(Dir("base") + "/BENCH_g.json", "{\"bench\": \"g\", \"r\": 1.4}");
  WriteFile(Dir("fresh") + "/BENCH_g.json", "{\"bench\": \"g\", \"r\": 1.3}");
  GateRule rule{"g", "r", GateDirection::kHigherIsBetter, 50.0};
  rule.min_value = 1.35;
  DiffReport report = DiffAgainstBaselines(Dir("base"), Dir("fresh"), {rule});
  // -7% is well inside the 50% tolerance, but 1.3 < the 1.35 floor.
  EXPECT_EQ(report.failures, 1);
  EXPECT_NE(report.series[0].verdict.find("floor"), std::string::npos);
}

TEST_F(BenchDiffTest, MissingMeasurementsNeverPassSilently) {
  WriteFile(Dir("base") + "/BENCH_g.json", "{\"bench\": \"g\", \"a\": 1}");
  WriteFile(Dir("fresh") + "/BENCH_g.json", "{\"bench\": \"g\", \"b\": 1}");
  std::vector<GateRule> rules = {
      {"g", "a", GateDirection::kExact, 0.0},  // vanished from fresh
      {"g", "b", GateDirection::kExact, 0.0},  // no baseline yet
  };
  DiffReport strict = DiffAgainstBaselines(Dir("base"), Dir("fresh"), rules);
  EXPECT_EQ(strict.failures, 2);

  // allow_new_series forgives the missing baseline, never the missing
  // fresh measurement.
  DiffReport lenient = DiffAgainstBaselines(Dir("base"), Dir("fresh"), rules,
                                            /*allow_new_series=*/true);
  EXPECT_EQ(lenient.failures, 1);
  EXPECT_TRUE(lenient.series[0].failed);
  EXPECT_FALSE(lenient.series[1].failed);

  // A whole missing fresh file fails every rule that points into it.
  fs::remove(Dir("fresh") + "/BENCH_g.json");
  DiffReport gone = DiffAgainstBaselines(Dir("base"), Dir("fresh"), rules,
                                         /*allow_new_series=*/true);
  EXPECT_EQ(gone.failures, 2);
}

TEST_F(BenchDiffTest, NanNeverPasses) {
  WriteFile(Dir("base") + "/BENCH_g.json", "{\"bench\": \"g\", \"a\": 1}");
  WriteFile(Dir("fresh") + "/BENCH_g.json", "{\"bench\": \"g\", \"a\": nan}");
  DiffReport report = DiffAgainstBaselines(
      Dir("base"), Dir("fresh"), {{"g", "a", GateDirection::kExact, 0.0}});
  EXPECT_EQ(report.failures, 1);
}

// The committed repo state must gate itself: the checked-in rules parse
// and every gated series exists in the checked-in baselines. (The values
// are machine-measured, so the value comparison lives in the ctest
// bench-diff fixture, not here.)
TEST_F(BenchDiffTest, CommittedRulesAndBaselinesAreConsistent) {
  const std::string repo_baselines = std::string(AUTOSTATS_SOURCE_DIR) +
                                     "/bench/baselines";
  Result<std::vector<GateRule>> rules =
      ParseRulesFile(repo_baselines + "/gate.rules");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_GE(rules->size(), 10u);
  for (const GateRule& rule : *rules) {
    Result<BenchDoc> doc =
        ParseBenchJson(repo_baselines + "/BENCH_" + rule.bench + ".json");
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    EXPECT_TRUE(doc->numbers.count(rule.series))
        << "gated series \"" << rule.series << "\" missing from committed "
        << "BENCH_" << rule.bench << ".json";
  }
}

TEST_F(BenchDiffTest, SelfTestPasses) {
  const Status status = BenchDiffSelfTest(Dir("selftest"));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

}  // namespace
}  // namespace autostats::diag
