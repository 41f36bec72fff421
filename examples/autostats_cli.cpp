// autostats_cli — an interactive shell over the library: type SQL, get
// plans; watch MNSA pick statistics; inspect and persist the catalog.
//
// Commands:
//   explain <sql>   optimize and print the plan with current statistics
//   exec <sql>      optimize, execute, report work units and rows
//   mnsa <sql>      run MNSA for the query and list what it built
//   analyze <sql>   EXPLAIN ANALYZE: per-node est vs actual rows
//   workload <path> run a workload file (MNSA + execute per query)
//   advise <path>   what-if index recommendations for a workload file
//   stats           list active and drop-listed statistics
//   save <path>     write the catalog to a snapshot file (atomically)
//   load <path>     install the statistics of a saved catalog or of a
//                   durability snapshot-<lsn>.ckpt
//   tables          list tables and row counts
//   help, quit
//
// Reads commands from stdin (pipe a script, or run interactively); with no
// piped input it runs a small built-in demo against skewed TPC-D.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <unistd.h>

#include "advisor/index_advisor.h"
#include "core/auto_manager.h"
#include "core/mnsa.h"
#include "executor/executor.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "query/printer.h"
#include "query/workload_io.h"
#include "stats/durability.h"
#include "tpcd/dbgen.h"
#include "tpcd/tuning.h"

using namespace autostats;

namespace {

class Shell {
 public:
  Shell() : db_(MakeDb()), catalog_(&db_), optimizer_(&db_),
            executor_(&db_, optimizer_.cost_model()) {}

  void HandleLine(const std::string& line) {
    std::istringstream ss(line);
    std::string command;
    ss >> command;
    std::string rest;
    std::getline(ss, rest);
    if (!rest.empty() && rest[0] == ' ') rest.erase(0, 1);

    if (command.empty() || command[0] == '#') return;
    if (command == "help") {
      std::printf("commands: explain|exec|mnsa <sql>, workload|advise "
                  "<path>, stats, tables, save|load <path>, quit\n");
    } else if (command == "workload") {
      RunWorkloadFile(rest);
    } else if (command == "advise") {
      AdviseWorkloadFile(rest);
    } else if (command == "tables") {
      for (int t = 0; t < db_.num_tables(); ++t) {
        std::printf("  %-12s %zu rows\n",
                    db_.table(t).schema().table_name().c_str(),
                    db_.table(t).num_rows());
      }
    } else if (command == "stats") {
      PrintStats();
    } else if (command == "save") {
      const Status s = SaveCatalog(catalog_, rest);
      std::printf("%s\n", s.ok() ? "saved" : s.ToString().c_str());
    } else if (command == "load") {
      const Status s = LoadCatalog(&catalog_, rest);
      std::printf("%s\n", s.ok() ? "loaded" : s.ToString().c_str());
    } else if (command == "explain" || command == "exec" ||
               command == "mnsa" || command == "analyze") {
      HandleQuery(command, rest);
    } else if (command == "quit" || command == "exit") {
      done_ = true;
    } else {
      std::printf("unknown command '%s' (try: help)\n", command.c_str());
    }
  }

  bool done() const { return done_; }

 private:
  static Database MakeDb() {
    tpcd::TpcdConfig config;
    config.scale_factor = 0.002;
    config.skew_mode = tpcd::SkewMode::kFixed;
    config.z = 2.0;
    Database db = tpcd::BuildTpcd(config);
    tpcd::ApplyTunedIndexes(&db);
    return db;
  }

  void PrintStats() {
    std::printf("active statistics (%zu):\n", catalog_.num_active());
    for (const StatKey& key : catalog_.ActiveKeys()) {
      std::printf("  %s\n", catalog_.FindEntry(key)->stat.Name(db_).c_str());
    }
    const auto dropped = catalog_.DropListKeys();
    if (!dropped.empty()) {
      std::printf("drop-list (%zu):\n", dropped.size());
      for (const StatKey& key : dropped) {
        std::printf("  %s\n",
                    catalog_.FindEntry(key)->stat.Name(db_).c_str());
      }
    }
  }

  void RunWorkloadFile(const std::string& path) {
    Result<Workload> w = LoadWorkload(db_, path);
    if (!w.ok()) {
      std::printf("error: %s\n", w.status().ToString().c_str());
      return;
    }
    ManagerPolicy policy;
    policy.mode = CreationMode::kMnsaDOnTheFly;
    AutoStatsManager manager(&db_, &catalog_, &optimizer_, policy);
    const RunReport report = manager.Run(*w);
    std::printf("%s\n", FormatReport(report).c_str());
  }

  void AdviseWorkloadFile(const std::string& path) {
    Result<Workload> w = LoadWorkload(db_, path);
    if (!w.ok()) {
      std::printf("error: %s\n", w.status().ToString().c_str());
      return;
    }
    const IndexAdvice advice =
        AdviseIndexes(&db_, &catalog_, optimizer_, *w);
    std::printf("workload cost %.0f -> %.0f with %zu recommendation(s):\n",
                advice.initial_cost, advice.final_cost,
                advice.recommendations.size());
    for (const IndexRecommendation& rec : advice.recommendations) {
      std::printf("  CREATE INDEX %s  (benefit %.0f)\n",
                  rec.index.name.c_str(), rec.benefit());
    }
  }

  void HandleQuery(const std::string& command, const std::string& sql) {
    Result<Query> parsed = ParseQuery(db_, sql);
    if (!parsed.ok()) {
      std::printf("parse error: %s\n", parsed.status().ToString().c_str());
      return;
    }
    const Query& q = *parsed;
    if (command == "mnsa") {
      MnsaConfig config;
      const MnsaResult r = RunMnsa(optimizer_, &catalog_, q, config);
      std::printf("MNSA: %zu statistic(s) created, %d optimizer calls, "
                  "cost %.0f units%s\n",
                  r.created.size(), r.optimizer_calls, r.creation_cost,
                  r.converged ? "" : " (candidates exhausted)");
      for (const StatKey& key : r.created) {
        std::printf("  + %s\n",
                    catalog_.FindEntry(key)->stat.Name(db_).c_str());
      }
      return;
    }
    const OptimizeResult r = optimizer_.Optimize(q, StatsView(&catalog_));
    if (command == "analyze") {
      const AnalyzedResult analyzed = executor_.ExecuteAnalyzed(q, r.plan);
      std::printf("%s\n", RenderAnalyzed(db_, q, r.plan, analyzed).c_str());
      return;
    }
    if (command == "explain") {
      std::printf("%s\n", r.plan.root->ToString(db_, q).c_str());
      for (const SelVarBinding& b : r.uncertain) {
        std::printf("  uncertain: %s in [%.4g, %.4g]%s\n",
                    DescribeSelVar(db_, q, b.var).c_str(), b.low, b.high,
                    b.from_magic ? " (magic number)" : "");
      }
    } else {
      const ExecResult e = executor_.Execute(q, r.plan);
      std::printf("%.0f rows, %.1f work units (estimated cost %.1f)\n",
                  e.output_rows, e.work_units, r.cost);
    }
  }

  Database db_;
  StatsCatalog catalog_;
  Optimizer optimizer_;
  Executor executor_;
  bool done_ = false;
};

const char* kDemoScript[] = {
    "tables",
    "explain SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey "
    "AND l_quantity < 24 AND o_orderdate BETWEEN 700 AND 1100",
    "mnsa SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey "
    "AND l_quantity < 24 AND o_orderdate BETWEEN 700 AND 1100",
    "explain SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey "
    "AND l_quantity < 24 AND o_orderdate BETWEEN 700 AND 1100",
    "exec SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey "
    "AND l_quantity < 24 AND o_orderdate BETWEEN 700 AND 1100",
    "stats",
};

}  // namespace

int main() {
  Shell shell;
  if (isatty(STDIN_FILENO)) {
    std::printf("autostats shell over skewed TPC-D (z=2, 13 indexes). "
                "Type 'help'.\n");
  }
  std::string line;
  const bool piped = !isatty(STDIN_FILENO);
  if (piped && std::cin.peek() == EOF) {
    // No input at all: run the built-in demo.
    for (const char* cmd : kDemoScript) {
      std::printf(">> %s\n", cmd);
      shell.HandleLine(cmd);
    }
    return 0;
  }
  while (!shell.done() && std::getline(std::cin, line)) {
    if (!piped) std::printf("> ");
    shell.HandleLine(line);
  }
  return 0;
}
