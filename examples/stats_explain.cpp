// stats_explain: replay a seeded MNSA/D-managed statement stream with
// decision tracing enabled (obs/trace.h) and reconstruct, from the trace
// alone, the complete causal lifecycle of any statistic the manager
// touched — why it was created (the mnsa.pick rationale under the stmt
// that triggered it), every refresh with its mode and cost, every fence,
// drop-list move, resurrection, and physical drop.
//
//   stats_explain                       lifecycle summary of every statistic
//   stats_explain --stat lineitem.l_quantity   full trail for one statistic
//   stats_explain --stat 3:4                   same, by raw catalog key
//   stats_explain --all                 full trail for every statistic
//   stats_explain --trace out.jsonl     also write the raw JSONL trace
//   stats_explain --replay dump.jsonl   render a flight-recorder post-mortem
//   stats_explain --selftest            determinism + reconstruction check
//
// The selftest replays the identical workload twice and asserts the two
// traces are BYTE-IDENTICAL (the contract in obs/trace.h), then checks
// that the final state reconstructed from trace events alone matches the
// live catalog's active / drop-list sets.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/auto_manager.h"
#include "obs/trace.h"
#include "rags/rags.h"
#include "stats/statistic.h"
#include "tpcd/dbgen.h"
#include "tpcd/schema.h"

using namespace autostats;

namespace {

// ---------------------------------------------------------------------
// Replay: the same seeded server online_server.cpp runs, MNSA/D policy,
// with incremental refresh and a low trigger so the stream exercises the
// whole lifecycle (create, merge/rebuild refresh, fence, drop, drop-rule
// physical deletion, resurrection).

struct Replay {
  std::vector<std::string> lines;  // the JSONL trace, in seq order
  std::string dump;                // exact bytes (Lines joined + '\n')
  std::vector<StatKey> active;     // catalog truth at end of stream
  std::vector<StatKey> drop_listed;
  RunReport report;
};

Replay RunTracedWorkload() {
  tpcd::TpcdConfig db_config;
  db_config.scale_factor = 0.002;
  db_config.skew_mode = tpcd::SkewMode::kFixed;
  db_config.z = 2.0;
  Database db = tpcd::BuildTpcd(db_config);

  rags::RagsConfig rags_config;
  rags_config.num_statements = 120;
  rags_config.update_fraction = 0.25;
  rags_config.complexity = rags::Complexity::kComplex;
  rags_config.join_edges = tpcd::TpcdForeignKeys(db);
  const Workload w = rags::Generate(db, rags_config);

  StatsCatalog catalog(&db);
  Optimizer optimizer(&db);
  ManagerPolicy policy;
  policy.mode = CreationMode::kMnsaDOnTheFly;
  policy.mnsa.t_percent = 20.0;
  // Low trigger + incremental mode: the 25% DML slice then drives real
  // merge refreshes, cadence rescans, and drop-list fences.
  policy.update_trigger.fraction = 0.01;
  policy.update_trigger.floor = 10;
  policy.update_trigger.incremental = true;
  AutoStatsManager manager(&db, &catalog, &optimizer, policy);

  obs::TraceSink& sink = obs::TraceSink::Instance();
  sink.Clear();
  sink.SetLogicalClock(0);
  obs::EnableTrace(true);
  Replay out;
  out.report = manager.Run(w);
  obs::EnableTrace(false);
  out.lines = sink.Lines();
  out.dump = sink.Dump();
  out.active = catalog.ActiveKeys();
  out.drop_listed = catalog.DropListKeys();
  return out;
}

// The replayed database again, for key -> human-name rendering only.
Database ReplayDb() {
  tpcd::TpcdConfig db_config;
  db_config.scale_factor = 0.002;
  db_config.skew_mode = tpcd::SkewMode::kFixed;
  db_config.z = 2.0;
  return tpcd::BuildTpcd(db_config);
}

// ---------------------------------------------------------------------
// Minimal scanner for our own flat one-line JSON events. Good enough for
// the format TraceEvent writes (no nesting; keys are plain identifiers).

// Raw text of `"key":<value>` in `line`; empty string if absent. String
// values are unescaped, numbers/bools returned verbatim.
std::string Field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  size_t pos = at + needle.size();
  if (pos >= line.size()) return "";
  if (line[pos] == '"') {
    std::string out;
    for (++pos; pos < line.size() && line[pos] != '"'; ++pos) {
      char c = line[pos];
      if (c == '\\' && pos + 1 < line.size()) {
        c = line[++pos];
        if (c == 'n') c = '\n';
        if (c == 't') c = '\t';
        if (c == 'r') c = '\r';
      }
      out += c;
    }
    return out;
  }
  const size_t end = line.find_first_of(",}", pos);
  return line.substr(pos, end == std::string::npos ? end : end - pos);
}

uint64_t U64Field(const std::string& line, const char* key) {
  const std::string raw = Field(line, key);
  return raw.empty() ? 0 : std::strtoull(raw.c_str(), nullptr, 10);
}

struct Event {
  uint64_t seq = 0;
  uint64_t clock = 0;
  std::string type;
  std::string line;
};

std::vector<Event> ParseTrace(const std::vector<std::string>& lines) {
  std::vector<Event> events;
  events.reserve(lines.size());
  for (const std::string& line : lines) {
    Event e;
    e.seq = U64Field(line, "seq");
    e.clock = U64Field(line, "clock");
    e.type = Field(line, "type");
    e.line = line;
    events.push_back(std::move(e));
  }
  return events;
}

// "3:4,7" -> "lineitem(l_quantity, l_tax)". Falls back to the raw key
// when the ids do not resolve against the replay schema.
std::string KeyToName(const Database& db, const StatKey& key) {
  const size_t colon = key.find(':');
  if (colon == std::string::npos) return key;
  const TableId table =
      static_cast<TableId>(std::atoi(key.substr(0, colon).c_str()));
  if (table < 0 || table >= db.num_tables()) return key;
  const Schema& schema = db.table(table).schema();
  std::string out = schema.table_name() + "(";
  size_t pos = colon + 1;
  bool first = true;
  while (pos < key.size()) {
    size_t end = key.find(',', pos);
    if (end == std::string::npos) end = key.size();
    const ColumnId col =
        static_cast<ColumnId>(std::atoi(key.substr(pos, end - pos).c_str()));
    if (col < 0 || col >= schema.num_columns()) return key;
    if (!first) out += ", ";
    out += schema.column(col).name;
    first = false;
    pos = end + 1;
  }
  return out + ")";
}

// "--stat" argument -> catalog key: raw "t:c" keys pass through,
// "table.column" resolves against the replay schema.
bool ResolveStatArg(const Database& db, const std::string& arg,
                    StatKey* key) {
  if (arg.find(':') != std::string::npos) {
    *key = arg;
    return true;
  }
  const size_t dot = arg.find('.');
  if (dot == std::string::npos) return false;
  const TableId table = db.FindTable(arg.substr(0, dot));
  if (table == kInvalidTableId) return false;
  const ColumnId col =
      db.table(table).schema().FindColumn(arg.substr(dot + 1));
  if (col < 0) return false;
  *key = MakeStatKey({{table, col}});
  return true;
}

// ---------------------------------------------------------------------
// Lifecycle reconstruction: group every key-carrying event (plus the
// mnsa.pick events whose space-joined `keys` field names the key) and
// derive the final state purely from the trace.

struct Lifecycle {
  std::vector<const Event*> events;
  // Derived final state: "never built", "active", "drop-listed", or
  // "physically dropped".
  std::string final_state = "never built";
  int creates = 0, refreshes = 0, fences = 0, drops = 0, resurrections = 0;
};

bool MentionsKey(const Event& e, const StatKey& key) {
  if (Field(e.line, "key") == key) return true;
  if (e.type == "mnsa.pick") {
    // `keys` is a space-joined list.
    const std::string keys = Field(e.line, "keys");
    size_t pos = 0;
    while (pos <= keys.size()) {
      size_t end = keys.find(' ', pos);
      if (end == std::string::npos) end = keys.size();
      if (keys.compare(pos, end - pos, key) == 0) return true;
      pos = end + 1;
    }
  }
  return false;
}

std::map<StatKey, Lifecycle> Reconstruct(const std::vector<Event>& events) {
  // First collect every key the trace ever names.
  std::map<StatKey, Lifecycle> out;
  for (const Event& e : events) {
    const std::string key = Field(e.line, "key");
    if (!key.empty()) out[key];  // ensure
    if (e.type == "mnsa.pick") {
      const std::string keys = Field(e.line, "keys");
      size_t pos = 0;
      while (pos < keys.size()) {
        size_t end = keys.find(' ', pos);
        if (end == std::string::npos) end = keys.size();
        out[keys.substr(pos, end - pos)];
        pos = end + 1;
      }
    }
  }
  for (auto& [key, life] : out) {
    for (const Event& e : events) {
      if (!MentionsKey(e, key)) continue;
      life.events.push_back(&e);
      if (e.type == "stat.create" || e.type == "stat.restore" ||
          e.type == "stat.resurrect") {
        life.final_state = (e.type == "stat.restore" &&
                            Field(e.line, "drop_listed") == "true")
                               ? "drop-listed"
                               : "active";
        if (e.type == "stat.create") ++life.creates;
        if (e.type == "stat.resurrect") ++life.resurrections;
      } else if (e.type == "stat.drop_list") {
        life.final_state = "drop-listed";
        ++life.drops;
      } else if (e.type == "stat.physical_drop") {
        life.final_state = "physically dropped";
      } else if (e.type == "stat.refresh") {
        ++life.refreshes;
      } else if (e.type == "stat.fence" || e.type == "stat.refresh_stale") {
        ++life.fences;
      }
    }
  }
  return out;
}

// One-line rendering of an event for the trail printout.
std::string Describe(const Event& e) {
  char buf[256];
  if (e.type == "stmt") {
    const std::string kind = Field(e.line, "kind");
    if (kind == "query") return "statement: query " + Field(e.line, "name");
    return "statement: dml " + Field(e.line, "op") + " on table " +
           Field(e.line, "table");
  }
  if (e.type == "mnsa.pick") {
    std::snprintf(buf, sizeof(buf),
                  "picked by mnsa under %s: %s%s%s -> %s candidate(s)",
                  Field(e.line, "query").c_str(),
                  Field(e.line, "rationale").c_str(),
                  Field(e.line, "op").empty() ? "" : " at op ",
                  Field(e.line, "op").c_str(), Field(e.line, "picked").c_str());
    return buf;
  }
  if (e.type == "stat.create") {
    return "created, build cost " + Field(e.line, "cost") +
           (Field(e.line, "fenced") == "true" ? " (fenced: unconsumed delta)"
                                              : "");
  }
  if (e.type == "stat.create_failed") {
    return "create FAILED: " + Field(e.line, "error");
  }
  if (e.type == "stat.refresh") {
    return "refresh (" + Field(e.line, "mode") + "), cost " +
           Field(e.line, "cost") +
           (Field(e.line, "changed") == "true" ? ", estimates changed"
                                               : ", no change");
  }
  if (e.type == "stat.refresh_stale") {
    return "refresh FAILED (" + Field(e.line, "mode") +
           "), kept stale statistic; fence: " + Field(e.line, "fence_reason");
  }
  if (e.type == "stat.fence") {
    return "fenced pending_full_rebuild: " + Field(e.line, "reason");
  }
  if (e.type == "stat.drop_list") return "moved to drop-list";
  if (e.type == "stat.resurrect") return "resurrected from drop-list";
  if (e.type == "stat.physical_drop") return "physically dropped";
  if (e.type == "stat.restore") {
    return std::string("restored from durable state") +
           (Field(e.line, "drop_listed") == "true" ? " (drop-listed)" : "");
  }
  if (e.type == "mnsa.drop_detect") {
    return "mnsa/d: plan unchanged without it under " +
           Field(e.line, "query");
  }
  if (e.type == "mnsa.small_table") {
    return "small-table augmentation under " + Field(e.line, "query") +
           " (" + Field(e.line, "table_rows") + " rows)";
  }
  if (e.type == "shrink.verdict") {
    return std::string("shrinking-set verdict: ") +
           (Field(e.line, "needed") == "true" ? "essential (" : "redundant (") +
           Field(e.line, "differing_plans") + "/" +
           Field(e.line, "relevant_queries") + " plans differ)";
  }
  return e.type;
}

void PrintTrail(const Database& db, const StatKey& key, const Lifecycle& life,
                const std::vector<Event>& events) {
  std::printf("== %s   [key %s]\n", KeyToName(db, key).c_str(), key.c_str());
  // Index stmt anchors by clock so each decision prints under the
  // statement that caused it.
  std::map<uint64_t, const Event*> stmts;
  for (const Event& e : events) {
    if (e.type == "stmt") stmts[e.clock] = &e;
  }
  uint64_t last_clock = UINT64_MAX;
  for (const Event* e : life.events) {
    if (e->clock != last_clock) {
      auto it = stmts.find(e->clock);
      std::printf("  clock %4llu  %s\n",
                  static_cast<unsigned long long>(e->clock),
                  it != stmts.end() ? Describe(*it->second).c_str()
                                    : "(before first statement)");
      last_clock = e->clock;
    }
    std::printf("    seq %5llu  %s\n", static_cast<unsigned long long>(e->seq),
                Describe(*e).c_str());
  }
  std::printf("  final state (from trace alone): %s — %d create(s), %d "
              "refresh(es), %d fence(s), %d drop(s), %d resurrection(s)\n\n",
              life.final_state.c_str(), life.creates, life.refreshes,
              life.fences, life.drops, life.resurrections);
}

void PrintSummary(const Database& db,
                  const std::map<StatKey, Lifecycle>& lifecycles,
                  const std::vector<Event>& events) {
  std::map<std::string, int> by_type;
  for (const Event& e : events) ++by_type[e.type];
  std::printf("trace: %zu events over %zu statistics\n", events.size(),
              lifecycles.size());
  for (const auto& [type, count] : by_type) {
    std::printf("  %-22s %6d\n", type.c_str(), count);
  }
  std::printf("\n%-44s %-20s %s\n", "statistic", "final state",
              "creates/refreshes/fences/drops");
  for (const auto& [key, life] : lifecycles) {
    std::printf("%-44s %-20s %d/%d/%d/%d\n", KeyToName(db, key).c_str(),
                life.final_state.c_str(), life.creates, life.refreshes,
                life.fences, life.drops);
  }
  std::printf("\n(use --stat <table.column> or --all for full causal "
              "trails)\n");
}

// ---------------------------------------------------------------------
// Selftest.

#define SELFTEST_EXPECT(cond, what)                 \
  do {                                              \
    if (!(cond)) {                                  \
      std::printf("selftest FAILED: %s\n", (what)); \
      return 1;                                     \
    }                                               \
  } while (0)

int RunSelftest() {
  // 1. Two replays write byte-identical traces.
  const Replay r1 = RunTracedWorkload();
  const Replay r2 = RunTracedWorkload();
  SELFTEST_EXPECT(!r1.lines.empty(), "trace is non-empty");
  SELFTEST_EXPECT(r1.dump == r2.dump, "second replay's trace == first's");

  // 2. The stream exercised the interesting lifecycle transitions.
  const std::vector<Event> events = ParseTrace(r1.lines);
  std::map<std::string, int> by_type;
  for (const Event& e : events) ++by_type[e.type];
  SELFTEST_EXPECT(by_type["stmt"] == 120, "one stmt anchor per statement");
  SELFTEST_EXPECT(by_type["stat.create"] > 0, "creates were traced");
  SELFTEST_EXPECT(by_type["mnsa.probe_pair"] > 0, "probe pairs were traced");
  SELFTEST_EXPECT(by_type["mnsa.pick"] > 0, "pick rationales were traced");

  // 3. Every event's clock matches a stmt anchor ordering: clocks are
  // non-decreasing in seq order and seq is dense from 0.
  for (size_t i = 0; i < events.size(); ++i) {
    SELFTEST_EXPECT(events[i].seq == i, "seq numbers are dense from 0");
    SELFTEST_EXPECT(i == 0 || events[i].clock >= events[i - 1].clock,
                    "logical clock is non-decreasing");
  }

  // 4. Reconstruction from the trace alone matches the live catalog.
  const std::map<StatKey, Lifecycle> lifecycles = Reconstruct(events);
  std::vector<StatKey> derived_active, derived_dropped;
  for (const auto& [key, life] : lifecycles) {
    if (life.final_state == "active") derived_active.push_back(key);
    if (life.final_state == "drop-listed") derived_dropped.push_back(key);
  }
  SELFTEST_EXPECT(derived_active == r1.active,
                  "derived active set matches catalog.ActiveKeys()");
  SELFTEST_EXPECT(derived_dropped == r1.drop_listed,
                  "derived drop-list matches catalog.DropListKeys()");

  std::printf("selftest PASSED: %zu events byte-identical across replays; "
              "%zu lifecycles reconstructed (%zu active, %zu drop-listed)\n",
              events.size(), lifecycles.size(), derived_active.size(),
              derived_dropped.size());
  return 0;
}

// ---------------------------------------------------------------------
// Flight-recorder replay: render a post-mortem dump
// (obs/flight_recorder.h) back into the victim's event timeline. The
// dump is JSONL: one header line, the recorded trace event lines
// verbatim, then metric rows with deltas since the previous dump.

int ReplayFlightDump(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);

  std::vector<std::string> trace_lines;
  std::vector<std::string> metric_lines;
  std::string header;
  size_t pos = 0;
  while (pos < contents.size()) {
    size_t end = contents.find('\n', pos);
    if (end == std::string::npos) end = contents.size();
    std::string line = contents.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    const std::string flight = Field(line, "flight");
    if (flight == "header") {
      header = std::move(line);
    } else if (flight == "metric") {
      metric_lines.push_back(std::move(line));
    } else {
      trace_lines.push_back(std::move(line));
    }
  }
  if (header.empty()) {
    std::fprintf(stderr, "%s: no flight header — not a flight-recorder "
                 "dump\n", path.c_str());
    return 2;
  }

  std::printf("flight recorder: tenant %s, reason %s (%s events recorded, "
              "%s dropped from the ring)\n",
              Field(header, "tenant").c_str(),
              Field(header, "reason").c_str(),
              Field(header, "events").c_str(),
              Field(header, "dropped").c_str());

  const std::vector<Event> events = ParseTrace(trace_lines);
  uint64_t last_clock = UINT64_MAX;
  for (const Event& e : events) {
    if (e.clock != last_clock) {
      std::printf("  clock %4llu\n",
                  static_cast<unsigned long long>(e.clock));
      last_clock = e.clock;
    }
    std::printf("    seq %5llu  %s\n",
                static_cast<unsigned long long>(e.seq), Describe(e).c_str());
  }
  if (!metric_lines.empty()) {
    std::printf("  metrics at dump time (delta since previous dump):\n");
    for (const std::string& m : metric_lines) {
      std::printf("    %-48s %10s  (%+lld)\n", Field(m, "name").c_str(),
                  Field(m, "value").c_str(),
                  static_cast<long long>(
                      std::strtoll(Field(m, "delta").c_str(), nullptr, 10)));
    }
  }
  std::printf("%zu events, %zu metric rows rendered\n", events.size(),
              metric_lines.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string stat_arg, trace_path;
  bool all = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return RunSelftest();
    if (arg == "--replay" && i + 1 < argc) {
      return ReplayFlightDump(argv[++i]);
    }
    if (arg == "--all") {
      all = true;
    } else if (arg == "--stat" && i + 1 < argc) {
      stat_arg = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: stats_explain [--stat <table.column|key>] [--all] "
                   "[--trace <out.jsonl>]\n"
                   "       stats_explain --replay <dump.jsonl>\n"
                   "       stats_explain --selftest\n");
      return 2;
    }
  }

  const Replay replay = RunTracedWorkload();
  if (!trace_path.empty()) {
    obs::TraceSink::Instance().WriteFile(trace_path);
    std::printf("[wrote %s]\n", trace_path.c_str());
  }
  const std::vector<Event> events = ParseTrace(replay.lines);
  const std::map<StatKey, Lifecycle> lifecycles = Reconstruct(events);
  const Database db = ReplayDb();

  if (!stat_arg.empty()) {
    StatKey key;
    if (!ResolveStatArg(db, stat_arg, &key)) {
      std::fprintf(stderr, "cannot resolve --stat %s\n", stat_arg.c_str());
      return 2;
    }
    auto it = lifecycles.find(key);
    if (it == lifecycles.end()) {
      std::printf("%s [key %s]: no trace events — the manager never "
                  "considered this statistic\n",
                  KeyToName(db, key).c_str(), key.c_str());
      return 0;
    }
    PrintTrail(db, key, it->second, events);
  } else if (all) {
    for (const auto& [key, life] : lifecycles) {
      PrintTrail(db, key, life, events);
    }
  } else {
    PrintSummary(db, lifecycles, events);
  }
  return 0;
}
