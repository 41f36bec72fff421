// perfbench --workload <adhoc_cold|update_churn|tenant_fleet> --seed <n>
//           --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints a human-readable report, then one JSON result line (the last line
// of stdout). Exits 1 when a correctness check fails, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<adhoc_cold|update_churn|tenant_fleet> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds < 1 || options.seconds > 120) {
    Usage("--seconds must be within 1..120");
  }
  perfbench::RunResult result;
  if (options.workload == "adhoc_cold") {
    result = perfbench::RunAdhocCold(options);
  } else if (options.workload == "update_churn") {
    result = perfbench::RunUpdateChurn(options);
  } else if (options.workload == "tenant_fleet") {
    result = perfbench::RunTenantFleet(options);
  } else {
    Usage("unknown workload");
  }
  result.Print();
  return result.correct() ? 0 : 1;
}
