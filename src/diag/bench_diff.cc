#include "diag/bench_diff.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>

namespace autostats::diag {

namespace {

// Reads a whole file; empty Result on open/read failure.
Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) return Status::Internal("read error on " + path);
  return out;
}

void SkipWs(const std::string& s, size_t* i) {
  while (*i < s.size() && (s[*i] == ' ' || s[*i] == '\t' || s[*i] == '\n' ||
                           s[*i] == '\r')) {
    ++*i;
  }
}

// Parses a JSON string literal at s[*i] (which must be '"'), undoing the
// escapes JsonEscape produces.
Result<std::string> ParseJsonString(const std::string& s, size_t* i) {
  if (*i >= s.size() || s[*i] != '"') {
    return Status::InvalidArgument("expected '\"' at offset " +
                                   std::to_string(*i));
  }
  ++*i;
  std::string out;
  while (*i < s.size() && s[*i] != '"') {
    char c = s[*i];
    if (c == '\\') {
      if (*i + 1 >= s.size()) {
        return Status::InvalidArgument("dangling escape");
      }
      char e = s[*i + 1];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (*i + 5 >= s.size()) {
            return Status::InvalidArgument("truncated \\u escape");
          }
          // JsonEscape only emits \u00xx for control bytes; decode the low
          // byte and ignore the (always-zero) high byte.
          char hex[5] = {s[*i + 2], s[*i + 3], s[*i + 4], s[*i + 5], '\0'};
          out += static_cast<char>(std::strtol(hex, nullptr, 16) & 0xFF);
          *i += 4;
          break;
        }
        default:
          return Status::InvalidArgument(std::string("unknown escape \\") + e);
      }
      *i += 2;
    } else {
      out += c;
      ++*i;
    }
  }
  if (*i >= s.size()) return Status::InvalidArgument("unterminated string");
  ++*i;  // closing quote
  return out;
}

// Parses `token` as one finite decimal number (digits, sign, point,
// exponent — no hex, inf or nan), consuming the whole token.
bool ParseFiniteDecimal(const std::string& token, double* out) {
  if (token.empty() ||
      token.find_first_not_of("0123456789+-.eE") != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

double PercentDelta(double baseline, double fresh) {
  if (baseline == 0.0) return fresh == 0.0 ? 0.0 : HUGE_VAL;
  return (fresh - baseline) / std::fabs(baseline) * 100.0;
}

std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

const char* DirectionName(GateDirection d) {
  switch (d) {
    case GateDirection::kExact: return "exact";
    case GateDirection::kHigherIsBetter: return "higher";
    case GateDirection::kLowerIsBetter: return "lower";
  }
  return "?";
}

}  // namespace

Result<BenchDoc> ParseBenchJson(const std::string& path) {
  Result<std::string> contents = ReadFile(path);
  if (!contents.ok()) return contents.status();
  const std::string& s = contents.value();

  BenchDoc doc;
  size_t i = 0;
  SkipWs(s, &i);
  if (i >= s.size() || s[i] != '{') {
    return Status::InvalidArgument(path + ": expected '{'");
  }
  ++i;
  SkipWs(s, &i);
  if (i < s.size() && s[i] == '}') return doc;  // empty object

  while (true) {
    SkipWs(s, &i);
    Result<std::string> key = ParseJsonString(s, &i);
    if (!key.ok()) {
      return Status::InvalidArgument(path + ": bad key: " +
                                     key.status().message());
    }
    SkipWs(s, &i);
    if (i >= s.size() || s[i] != ':') {
      return Status::InvalidArgument(path + ": expected ':' after key \"" +
                                     key.value() + "\"");
    }
    ++i;
    SkipWs(s, &i);
    if (i >= s.size()) {
      return Status::InvalidArgument(path + ": truncated value");
    }
    if (s[i] == '"') {
      Result<std::string> value = ParseJsonString(s, &i);
      if (!value.ok()) {
        return Status::InvalidArgument(path + ": bad string value: " +
                                       value.status().message());
      }
      if (key.value() == "bench") {
        doc.bench = value.value();
      } else {
        doc.strings[key.value()] = value.value();
      }
    } else if (s[i] == '{' || s[i] == '[') {
      // BenchJson never emits nesting; a nested value means the file is not
      // one of ours.
      return Status::InvalidArgument(path + ": nested values unsupported");
    } else {
      char* end = nullptr;
      double v = std::strtod(s.c_str() + i, &end);
      if (end == s.c_str() + i) {
        return Status::InvalidArgument(path + ": bad number for key \"" +
                                       key.value() + "\"");
      }
      i = static_cast<size_t>(end - s.c_str());
      doc.numbers[key.value()] = v;
    }
    SkipWs(s, &i);
    if (i >= s.size()) {
      return Status::InvalidArgument(path + ": truncated object");
    }
    if (s[i] == ',') {
      ++i;
      continue;
    }
    if (s[i] == '}') break;
    return Status::InvalidArgument(path + ": expected ',' or '}'");
  }
  return doc;
}

Result<std::vector<GateRule>> ParseRulesFile(const std::string& path) {
  Result<std::string> contents = ReadFile(path);
  if (!contents.ok()) return contents.status();

  std::vector<GateRule> rules;
  std::istringstream lines(contents.value());
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    GateRule rule;
    std::string direction;
    if (!(fields >> rule.bench)) continue;  // blank / comment-only line
    if (!(fields >> rule.series >> direction >> rule.tolerance_percent)) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_no) +
          ": expected '<bench> <series> <exact|higher|lower> "
          "<tolerance_percent> [min=<v>]'");
    }
    if (direction == "exact") {
      rule.direction = GateDirection::kExact;
    } else if (direction == "higher") {
      rule.direction = GateDirection::kHigherIsBetter;
    } else if (direction == "lower") {
      rule.direction = GateDirection::kLowerIsBetter;
    } else {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": unknown direction '" + direction +
                                     "'");
    }
    if (rule.tolerance_percent < 0.0) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": negative tolerance");
    }
    std::string extra;
    while (fields >> extra) {
      if (extra.rfind("min=", 0) != 0) {
        return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                       ": unknown field '" + extra + "'");
      }
      // A floor that fails to parse must not silently switch off: the
      // value is one whole, finite decimal token, given at most once.
      const std::string value = extra.substr(4);
      if (!std::isnan(rule.min_value) ||
          !ParseFiniteDecimal(value, &rule.min_value)) {
        return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                       ": bad min value '" + value + "'");
      }
    }
    rules.push_back(std::move(rule));
  }
  if (rules.empty()) {
    return Status::InvalidArgument(path + ": no rules — an empty gate would "
                                          "pass vacuously");
  }
  return rules;
}

std::string DiffReport::ToString() const {
  std::ostringstream out;
  out << "bench-diff: " << series.size() << " gated series, " << failures
      << " failure(s)\n";
  size_t name_width = 6;
  for (const SeriesDiff& d : series) {
    name_width = std::max(name_width,
                          d.rule.bench.size() + 1 + d.rule.series.size());
  }
  char line[512];
  std::snprintf(line, sizeof(line), "  %-*s %12s %12s %9s  %s\n",
                static_cast<int>(name_width), "series", "baseline", "fresh",
                "delta%", "verdict");
  out << line;
  for (const SeriesDiff& d : series) {
    const std::string name = d.rule.bench + "/" + d.rule.series;
    std::snprintf(
        line, sizeof(line), "  %-*s %12s %12s %9s  %s\n",
        static_cast<int>(name_width), name.c_str(),
        d.missing_baseline ? "-" : FormatValue(d.baseline).c_str(),
        d.missing_fresh ? "-" : FormatValue(d.fresh).c_str(),
        (d.missing_baseline || d.missing_fresh)
            ? "-"
            : FormatValue(d.delta_percent).c_str(),
        d.verdict.c_str());
    out << line;
  }
  return out.str();
}

DiffReport DiffAgainstBaselines(const std::string& baseline_dir,
                                const std::string& fresh_dir,
                                const std::vector<GateRule>& rules,
                                bool allow_new_series) {
  DiffReport report;
  // Each BENCH_<bench>.json is parsed once per side and memoized.
  std::map<std::string, Result<BenchDoc>> baseline_docs;
  std::map<std::string, Result<BenchDoc>> fresh_docs;
  auto load = [](std::map<std::string, Result<BenchDoc>>* cache,
                 const std::string& dir,
                 const std::string& bench) -> const Result<BenchDoc>& {
    auto it = cache->find(bench);
    if (it == cache->end()) {
      it = cache
               ->emplace(bench,
                         ParseBenchJson(dir + "/BENCH_" + bench + ".json"))
               .first;
    }
    return it->second;
  };

  for (const GateRule& rule : rules) {
    SeriesDiff d;
    d.rule = rule;

    const Result<BenchDoc>& base = load(&baseline_docs, baseline_dir,
                                        rule.bench);
    const Result<BenchDoc>& fresh = load(&fresh_docs, fresh_dir, rule.bench);

    if (base.ok()) {
      auto it = base.value().numbers.find(rule.series);
      if (it != base.value().numbers.end()) {
        d.baseline = it->second;
      } else {
        d.missing_baseline = true;
      }
    } else {
      d.missing_baseline = true;
    }
    if (fresh.ok()) {
      auto it = fresh.value().numbers.find(rule.series);
      if (it != fresh.value().numbers.end()) {
        d.fresh = it->second;
      } else {
        d.missing_fresh = true;
      }
    } else {
      d.missing_fresh = true;
    }

    if (d.missing_fresh) {
      // The gate must never pass because the measurement silently vanished.
      d.failed = true;
      d.verdict = fresh.ok() ? "FAIL: series missing from fresh run"
                             : "FAIL: " + fresh.status().ToString();
    } else if (d.missing_baseline) {
      d.failed = !allow_new_series;
      d.verdict = d.failed
                      ? (base.ok() ? "FAIL: series missing from baseline "
                                     "(rerun with --allow-new-series to land "
                                     "a new benchmark)"
                                   : "FAIL: " + base.status().ToString())
                      : "new series (no baseline yet)";
    } else {
      d.delta_percent = PercentDelta(d.baseline, d.fresh);
      bool regressed = false;
      switch (rule.direction) {
        case GateDirection::kExact:
          regressed = std::fabs(d.delta_percent) > rule.tolerance_percent;
          break;
        case GateDirection::kHigherIsBetter:
          regressed = d.delta_percent < -rule.tolerance_percent;
          break;
        case GateDirection::kLowerIsBetter:
          regressed = d.delta_percent > rule.tolerance_percent;
          break;
      }
      // NaN poisoning: a NaN measurement compares false against every
      // threshold, so catch it explicitly instead of passing it.
      if (std::isnan(d.fresh) || std::isnan(d.baseline)) {
        regressed = true;
      }
      bool below_floor = !std::isnan(rule.min_value) &&
                         !(d.fresh >= rule.min_value);
      d.failed = regressed || below_floor;
      if (regressed) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "FAIL: regressed beyond %s tolerance %.3g%%",
                      DirectionName(rule.direction), rule.tolerance_percent);
        d.verdict = buf;
      } else if (below_floor) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "FAIL: below required floor %.6g",
                      rule.min_value);
        d.verdict = buf;
      } else {
        d.verdict = "ok";
      }
    }
    if (d.failed) ++report.failures;
    report.series.push_back(std::move(d));
  }
  return report;
}

namespace {

Status WriteFileOrDie(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  const bool ok =
      std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  if (std::fclose(f) != 0 || !ok) {
    return Status::Internal("short write on " + path);
  }
  return Status::OK();
}

#define SELFTEST_CHECK(cond)                                              \
  do {                                                                    \
    if (!(cond)) {                                                        \
      return Status::Internal("bench_diff selftest failed at " __FILE__   \
                              ":" +                                       \
                              std::to_string(__LINE__) + ": " #cond);     \
    }                                                                     \
  } while (0)

}  // namespace

Status BenchDiffSelfTest(const std::string& scratch_dir) {
  const std::string base_dir = scratch_dir;
  const std::string fresh_dir = scratch_dir;

  // --- Parser round-trips the BenchJson emission format. ---
  Status w = WriteFileOrDie(
      scratch_dir + "/BENCH_selftest.json",
      "{\n  \"bench\": \"selftest\",\n  \"label\": \"U25-\\\"C\\\"-100\",\n"
      "  \"count\": 42,\n  \"ratio\": 2.5,\n  \"tiny\": 1.0000000000000002e-3"
      "\n}\n");
  if (!w.ok()) return w;
  Result<BenchDoc> doc = ParseBenchJson(scratch_dir + "/BENCH_selftest.json");
  SELFTEST_CHECK(doc.ok());
  SELFTEST_CHECK(doc.value().bench == "selftest");
  SELFTEST_CHECK(doc.value().strings.at("label") == "U25-\"C\"-100");
  SELFTEST_CHECK(doc.value().numbers.at("count") == 42.0);
  SELFTEST_CHECK(doc.value().numbers.at("ratio") == 2.5);
  SELFTEST_CHECK(doc.value().numbers.at("tiny") == 1.0000000000000002e-3);

  SELFTEST_CHECK(!ParseBenchJson(scratch_dir + "/BENCH_absent.json").ok());
  w = WriteFileOrDie(scratch_dir + "/BENCH_nested.json",
                     "{\n  \"bench\": \"nested\",\n  \"obj\": {\"a\": 1}\n}\n");
  if (!w.ok()) return w;
  SELFTEST_CHECK(!ParseBenchJson(scratch_dir + "/BENCH_nested.json").ok());

  // --- Rules parser. ---
  w = WriteFileOrDie(scratch_dir + "/selftest.rules",
                     "# comment\n"
                     "selftest count exact 0\n"
                     "selftest ratio higher 25 min=1.2\n"
                     "selftest tiny lower 50\n");
  if (!w.ok()) return w;
  Result<std::vector<GateRule>> rules =
      ParseRulesFile(scratch_dir + "/selftest.rules");
  SELFTEST_CHECK(rules.ok());
  SELFTEST_CHECK(rules.value().size() == 3);
  SELFTEST_CHECK(rules.value()[0].direction == GateDirection::kExact);
  SELFTEST_CHECK(rules.value()[0].tolerance_percent == 0.0);
  SELFTEST_CHECK(rules.value()[1].direction ==
                 GateDirection::kHigherIsBetter);
  SELFTEST_CHECK(rules.value()[1].min_value == 1.2);
  SELFTEST_CHECK(std::isnan(rules.value()[0].min_value));

  w = WriteFileOrDie(scratch_dir + "/bad.rules", "selftest count sideways 0\n");
  if (!w.ok()) return w;
  SELFTEST_CHECK(!ParseRulesFile(scratch_dir + "/bad.rules").ok());
  w = WriteFileOrDie(scratch_dir + "/empty.rules", "# nothing gated\n");
  if (!w.ok()) return w;
  SELFTEST_CHECK(!ParseRulesFile(scratch_dir + "/empty.rules").ok());

  // --- Gate semantics: identical dirs pass everything. ---
  DiffReport same = DiffAgainstBaselines(base_dir, fresh_dir, rules.value());
  SELFTEST_CHECK(same.ok());
  SELFTEST_CHECK(same.series.size() == 3);
  for (const SeriesDiff& d : same.series) SELFTEST_CHECK(d.verdict == "ok");

  // --- A regressed fresh run fails, in the right directions. ---
  const std::string fresh2 = scratch_dir + "/fresh";
  // scratch_dir is created by the caller; the subdirs here are ours.
  ::mkdir(fresh2.c_str(), 0755);
  w = WriteFileOrDie(fresh2 + "/BENCH_selftest.json",
                     "{\n  \"bench\": \"selftest\",\n"
                     "  \"count\": 43,\n"     // exact/0: any drift fails
                     "  \"ratio\": 1.5,\n"    // -40% < -25% tolerance: fails
                     "  \"tiny\": 0.0009\n"   // improved (lower): passes
                     "\n}\n");
  if (!w.ok()) return w;
  DiffReport drift = DiffAgainstBaselines(base_dir, fresh2, rules.value());
  SELFTEST_CHECK(drift.failures == 2);
  SELFTEST_CHECK(drift.series[0].failed);   // count drifted
  SELFTEST_CHECK(drift.series[1].failed);   // ratio regressed
  SELFTEST_CHECK(!drift.series[2].failed);  // tiny improved
  SELFTEST_CHECK(!drift.ToString().empty());

  // --- min= floor fails even when the relative gate passes. ---
  w = WriteFileOrDie(fresh2 + "/BENCH_selftest.json",
                     "{\n  \"bench\": \"selftest\",\n"
                     "  \"count\": 42,\n"
                     "  \"ratio\": 1.1,\n"  // within a fresh-baseline's 25%?
                     "  \"tiny\": 0.001\n}\n");
  if (!w.ok()) return w;
  // Rebase so the relative gate passes and only the floor trips: baseline
  // ratio 1.3 -> fresh 1.1 is -15.4% (inside 25%), but 1.1 < min 1.2.
  const std::string base2 = scratch_dir + "/base";
  ::mkdir(base2.c_str(), 0755);
  w = WriteFileOrDie(base2 + "/BENCH_selftest.json",
                     "{\n  \"bench\": \"selftest\",\n"
                     "  \"count\": 42,\n"
                     "  \"ratio\": 1.3,\n"
                     "  \"tiny\": 0.001\n}\n");
  if (!w.ok()) return w;
  DiffReport floor = DiffAgainstBaselines(base2, fresh2, rules.value());
  SELFTEST_CHECK(floor.failures == 1);
  SELFTEST_CHECK(floor.series[1].failed);
  SELFTEST_CHECK(floor.series[1].verdict.find("floor") != std::string::npos);

  // --- Missing fresh series always fails; missing baseline is gated by
  // allow_new_series. ---
  w = WriteFileOrDie(fresh2 + "/BENCH_selftest.json",
                     "{\n  \"bench\": \"selftest\",\n  \"count\": 42\n}\n");
  if (!w.ok()) return w;
  DiffReport missing_fresh =
      DiffAgainstBaselines(base2, fresh2, rules.value(),
                           /*allow_new_series=*/true);
  SELFTEST_CHECK(missing_fresh.failures == 2);  // ratio + tiny vanished

  std::vector<GateRule> new_rule = rules.value();
  new_rule[0].series = "brand_new_series";
  w = WriteFileOrDie(fresh2 + "/BENCH_selftest.json",
                     "{\n  \"bench\": \"selftest\",\n"
                     "  \"brand_new_series\": 1,\n"
                     "  \"ratio\": 1.3,\n"
                     "  \"tiny\": 0.001\n}\n");
  if (!w.ok()) return w;
  DiffReport strict = DiffAgainstBaselines(base2, fresh2, new_rule);
  SELFTEST_CHECK(strict.failures == 1);  // new series rejected by default
  DiffReport lenient = DiffAgainstBaselines(base2, fresh2, new_rule,
                                            /*allow_new_series=*/true);
  SELFTEST_CHECK(lenient.ok());

  // --- NaN never passes a gate. ---
  w = WriteFileOrDie(fresh2 + "/BENCH_selftest.json",
                     "{\n  \"bench\": \"selftest\",\n"
                     "  \"count\": nan,\n"
                     "  \"ratio\": 1.3,\n"
                     "  \"tiny\": 0.001\n}\n");
  if (!w.ok()) return w;
  DiffReport poisoned = DiffAgainstBaselines(base2, fresh2, rules.value());
  SELFTEST_CHECK(poisoned.series[0].failed);

  return Status::OK();
}

}  // namespace autostats::diag
