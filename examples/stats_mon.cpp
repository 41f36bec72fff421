// stats_mon: the observability console for the multi-tenant
// AutoStatsServer. Runs a small seeded fleet with per-statement spans
// enabled (obs/span.h) and renders every surface the server exposes:
//
//   stats_mon                     tenant health table (JSON) to stdout
//   stats_mon --health            same, explicitly
//   stats_mon --prom              Prometheus text: health plane + registry
//   stats_mon --spans             raw per-tenant span JSONL (logical mode)
//   stats_mon --perfetto out.json wall-clock spans as Chrome trace_event
//                                 JSON (load in chrome://tracing or
//                                 ui.perfetto.dev)
//   stats_mon --selftest          format validation: byte-identical
//                                 logical span streams at 1/2/4/8 workers,
//                                 Perfetto JSON structure, Prometheus
//                                 data-model rules, health JSON round-trip
//
// The fleet is four tenants (t00..t03) over skewed TPC-D streams; t03 is
// durable so its spans carry real WAL append/fsync attribution. Logical
// mode keeps every stamp on the tenant's own logical clocks, so the span
// streams — like the traces — are byte-identical at any worker count;
// --perfetto switches to wall mode for real timing.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "rags/rags.h"
#include "server/autostats_server.h"
#include "server/health.h"
#include "tpcd/dbgen.h"
#include "tpcd/schema.h"

using namespace autostats;

namespace {

constexpr size_t kTenants = 4;
constexpr size_t kStatementsPerTenant = 40;

Database MakeDb() {
  tpcd::TpcdConfig config;
  config.scale_factor = 0.002;
  config.skew_mode = tpcd::SkewMode::kFixed;
  config.z = 2.0;
  return tpcd::BuildTpcd(config);
}

Workload MakeStream(const Database& db, size_t tenant) {
  rags::RagsConfig config;
  config.num_statements = static_cast<int>(kStatementsPerTenant);
  config.update_fraction = 0.25;
  config.complexity = rags::Complexity::kComplex;
  config.join_edges = tpcd::TpcdForeignKeys(db);
  config.seed = 7 + tenant;  // distinct stream per tenant
  return rags::Generate(db, config);
}

std::string TenantName(size_t i) {
  return (i < 10 ? "t0" : "t") + std::to_string(i);
}

// Everything one fleet run produces, captured before the server dies.
struct FleetRun {
  std::vector<std::string> span_dumps;  // per tenant index
  std::string perfetto;
  std::string health_json;
  std::string health_prom;
  std::string registry_prom;
};

FleetRun RunFleet(obs::SpanMode mode, int workers) {
  obs::MetricsRegistry::Instance().ResetAll();
  obs::EnableMetrics(true);
  obs::EnableSpans(mode);

  const std::string root = "stats_mon.dir";
  std::error_code ec;
  std::filesystem::remove_all(root, ec);

  std::vector<Database> dbs;
  dbs.reserve(kTenants);
  std::vector<Workload> streams;
  streams.reserve(kTenants);
  for (size_t i = 0; i < kTenants; ++i) {
    dbs.push_back(MakeDb());
    streams.push_back(MakeStream(dbs.back(), i));
  }

  ServerOptions options;
  options.num_workers = workers;
  // Deterministic fsync cadence: logical-mode span streams must be a
  // pure function of the streams (no wall-clock coordinator passes).
  options.fsync_budget_per_sec = 0.0;
  AutoStatsServer server(options);
  for (size_t i = 0; i < kTenants; ++i) {
    TenantConfig tc;
    tc.name = TenantName(i);
    tc.db = &dbs[i];
    ManagerPolicy policy;
    policy.mode = CreationMode::kMnsaDOnTheFly;
    policy.mnsa.t_percent = 20.0;
    tc.policy = policy;
    if (i == kTenants - 1) tc.durability_dir = root + "/" + tc.name;
    server.AddTenant(tc);
  }
  server.Start();
  // Round-robin ingress: per-tenant order is each tenant's stream order.
  for (size_t s = 0; s < kStatementsPerTenant; ++s) {
    for (size_t i = 0; i < kTenants; ++i) {
      server.Submit(i, streams[i].statements()[s]);
    }
  }
  server.Drain();

  FleetRun out;
  std::vector<obs::TenantSpans> tenant_spans;
  for (size_t i = 0; i < kTenants; ++i) {
    out.span_dumps.push_back(server.spans(i).DumpJsonl());
    obs::TenantSpans ts;
    ts.name = server.tenant_name(i);
    ts.spans = server.spans(i).Spans();
    ts.passes = server.spans(i).FsyncPasses();
    tenant_spans.push_back(std::move(ts));
  }
  out.perfetto = obs::SpansToPerfettoJson(tenant_spans);
  const HealthSnapshot health = server.Health();
  out.health_json = HealthJson(health);
  out.health_prom = HealthPrometheus(health);
  out.registry_prom = obs::MetricsRegistry::Instance().PrometheusText();
  server.Stop();

  obs::EnableSpans(obs::SpanMode::kDisabled);
  obs::EnableMetrics(false);
  std::filesystem::remove_all(root, ec);
  return out;
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

// Counts occurrences of `needle` in `hay`.
size_t CountOf(const std::string& hay, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

int RunSelftest() {
  // 1. Logical-mode span streams are byte-identical at any worker count
  // (the span determinism contract).
  const FleetRun base = RunFleet(obs::SpanMode::kLogical, 1);
  for (size_t i = 0; i < kTenants; ++i) {
    SELFTEST_EXPECT(!base.span_dumps[i].empty(), "span streams are nonempty");
  }
  for (int workers : {2, 4, 8}) {
    const FleetRun run = RunFleet(obs::SpanMode::kLogical, workers);
    for (size_t i = 0; i < kTenants; ++i) {
      SELFTEST_EXPECT(run.span_dumps[i] == base.span_dumps[i],
                      "logical span streams byte-identical across "
                      "worker counts");
    }
  }
  // Every span line carries the causal fields.
  SELFTEST_EXPECT(
      CountOf(base.span_dumps[0], "\"span\":\"stmt\"") ==
          kStatementsPerTenant,
      "one span per admitted statement");
  SELFTEST_EXPECT(base.span_dumps[0].find("\"ingress_seq\":1") !=
                      std::string::npos,
                  "ingress sequence starts at 1");

  // 2. Wall-mode Perfetto export is structurally valid trace_event JSON.
  const FleetRun wall = RunFleet(obs::SpanMode::kWall, 4);
  const std::string& pf = wall.perfetto;
  SELFTEST_EXPECT(pf.rfind("{\"traceEvents\":[", 0) == 0,
                  "perfetto JSON opens a traceEvents array");
  SELFTEST_EXPECT(pf.find("\"displayTimeUnit\":\"ms\"") != std::string::npos,
                  "perfetto JSON sets displayTimeUnit");
  size_t braces = 0, brackets = 0;
  for (char c : pf) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  SELFTEST_EXPECT(braces == 0 && brackets == 0,
                  "perfetto JSON braces/brackets balance");
  SELFTEST_EXPECT(CountOf(pf, "\"ph\":\"M\"") >= kTenants,
                  "one thread_name metadata event per track");
  SELFTEST_EXPECT(CountOf(pf, "\"ph\":\"X\"") >=
                      kTenants * kStatementsPerTenant,
                  "one complete event per statement span");

  // 3. Prometheus data-model rules: tenant-scoped registry series are
  // exposed under sanitized names with a tenant label — never a '/'.
  const std::string& prom = wall.registry_prom;
  SELFTEST_EXPECT(prom.find("tenant=\"t00\"") != std::string::npos,
                  "registry exposition carries tenant labels");
  size_t pos = 0;
  while (pos < prom.size()) {
    size_t end = prom.find('\n', pos);
    if (end == std::string::npos) end = prom.size();
    const std::string line = prom.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t name_end = line.find_first_of("{ ");
    const std::string name =
        name_end == std::string::npos ? line : line.substr(0, name_end);
    SELFTEST_EXPECT(name.find('/') == std::string::npos,
                    "no '/' survives in an exposed metric name");
  }
  SELFTEST_EXPECT(prom.find("_overflow") != std::string::npos,
                  "histograms expose an _overflow row");

  // 4. Health plane round-trip: every tenant appears, name-ordered, in
  // both serializations.
  for (size_t i = 0; i < kTenants; ++i) {
    const std::string name = TenantName(i);
    SELFTEST_EXPECT(wall.health_json.find("\"name\":\"" + name + "\"") !=
                        std::string::npos,
                    "health JSON lists every tenant");
    SELFTEST_EXPECT(wall.health_prom.find("autostats_tenant_up{tenant=\"" +
                                          name + "\"} 1") !=
                        std::string::npos,
                    "health Prometheus reports every tenant up");
  }
  SELFTEST_EXPECT(wall.health_json.find("\"queue_depth_total\":0") !=
                      std::string::npos,
                  "drained fleet reports an empty queue");
  SELFTEST_EXPECT(
      wall.health_json.find("\"name\":\"t00\"") <
          wall.health_json.find("\"name\":\"t03\""),
      "health JSON tenants are name-ordered");
  SELFTEST_EXPECT(wall.health_json.find("\"attribution\":{") !=
                      std::string::npos,
                  "health JSON carries span attribution");

  std::printf(
      "selftest PASSED: logical span streams byte-identical at 1/2/4/8 "
      "workers; perfetto JSON structurally valid (%zu bytes); Prometheus "
      "and health serializations follow the data model\n",
      pf.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string perfetto_path;
  bool health = false, prom = false, spans = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return RunSelftest();
    if (arg == "--health") {
      health = true;
    } else if (arg == "--prom") {
      prom = true;
    } else if (arg == "--spans") {
      spans = true;
    } else if (arg == "--perfetto" && i + 1 < argc) {
      perfetto_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: stats_mon [--health] [--prom] [--spans] "
                   "[--perfetto <out.json>]\n"
                   "       stats_mon --selftest\n");
      return 2;
    }
  }

  // Wall-clock mode when exporting for a human timeline viewer; logical
  // mode (deterministic bytes) for everything else.
  const obs::SpanMode mode = !perfetto_path.empty() ? obs::SpanMode::kWall
                                                    : obs::SpanMode::kLogical;
  const FleetRun run = RunFleet(mode, 4);

  if (!perfetto_path.empty()) {
    std::FILE* f = std::fopen(perfetto_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", perfetto_path.c_str());
      return 2;
    }
    std::fwrite(run.perfetto.data(), 1, run.perfetto.size(), f);
    std::fclose(f);
    std::printf("[wrote %s — load it in chrome://tracing or "
                "ui.perfetto.dev]\n",
                perfetto_path.c_str());
  }
  if (spans) {
    for (size_t i = 0; i < run.span_dumps.size(); ++i) {
      std::printf("-- %s spans --\n%s", TenantName(i).c_str(),
                  run.span_dumps[i].c_str());
    }
  }
  if (prom) {
    std::fputs(run.health_prom.c_str(), stdout);
    std::fputs(run.registry_prom.c_str(), stdout);
  }
  if (health || (!prom && !spans && perfetto_path.empty())) {
    std::fputs(run.health_json.c_str(), stdout);
  }
  return 0;
}
