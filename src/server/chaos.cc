#include "server/chaos.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <utility>

#include "catalog/database.h"
#include "common/fault.h"
#include "common/rng.h"
#include "core/auto_manager.h"
#include "core/policy.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "query/dml.h"
#include "query/query.h"
#include "query/workload.h"
#include "server/autostats_server.h"
#include "server/catalog_digest.h"
#include "stats/durability.h"
#include "stats/stats_catalog.h"

namespace autostats {

namespace {

namespace fs = std::filesystem;

std::string ChaosTenantName(size_t i) {
  char buf[24];  // room for any size_t: no truncation
  std::snprintf(buf, sizeof(buf), "t%03zu", i);
  return buf;
}

// One tenant's synthetic database: fact(fk, val, grp) + dim(pk, attr),
// with per-tenant distribution skews so no two tenants evolve the same
// catalog (a leaked fault or a cross-tenant mixup can never hide behind
// identical state).
struct ChaosDb {
  std::unique_ptr<Database> db;
  TableId fact = kInvalidTableId;
  TableId dim = kInvalidTableId;
  ColumnRef fact_fk, fact_val, fact_grp, dim_pk, dim_attr;
};

ChaosDb MakeChaosDb(size_t tenant, size_t fact_rows) {
  ChaosDb out;
  out.db = std::make_unique<Database>();
  const size_t dim_rows = std::max<size_t>(8, fact_rows / 20);
  out.fact = out.db->AddTable(Schema("fact", {{"fk", ValueType::kInt64},
                                              {"val", ValueType::kInt64},
                                              {"grp", ValueType::kInt64}}));
  out.dim = out.db->AddTable(Schema(
      "dim", {{"pk", ValueType::kInt64}, {"attr", ValueType::kInt64}}));
  const size_t stride = 1 + tenant % 7;
  Table& fact = out.db->mutable_table(out.fact);
  for (size_t i = 0; i < fact_rows; ++i) {
    fact.AppendRow({Datum(static_cast<int64_t>((i * stride + tenant) % dim_rows)),
                    Datum(static_cast<int64_t>((i * stride) % 100)),
                    Datum(static_cast<int64_t>(i % (3 + tenant % 5)))});
  }
  Table& dim = out.db->mutable_table(out.dim);
  for (size_t i = 0; i < dim_rows; ++i) {
    dim.AppendRow({Datum(static_cast<int64_t>(i)),
                   Datum(static_cast<int64_t>((i + tenant) % 9))});
  }
  out.fact_fk = {out.fact, 0};
  out.fact_val = {out.fact, 1};
  out.fact_grp = {out.fact, 2};
  out.dim_pk = {out.dim, 0};
  out.dim_attr = {out.dim, 1};
  return out;
}

// The chaos fleet runs the unconditional-creation policy so the
// stats.refresh path (the latency-spike target) actually executes, with
// checkpoints on a short cadence so persistence.rename and snapshot
// fsyncs fire during an episode.
ManagerPolicy ChaosPolicy() {
  ManagerPolicy policy;
  policy.mode = CreationMode::kSqlServer7;
  policy.update_trigger.fraction = 0.01;
  policy.update_trigger.floor = 1;
  policy.update_trigger.incremental = true;
  policy.enable_aging = true;
  policy.aging.cooldown_ticks = 2;
  policy.durability_checkpoint_every = 3;
  return policy;
}

// A tenant's statement stream for one episode: a pure function of
// (seed, tenant, episode) — both fleet runs and the serial oracle
// regenerate it bit-identically.
Workload EpisodeStream(const ChaosDb& t, size_t tenant, int episode,
                       size_t count, uint64_t seed) {
  Workload w(ChaosTenantName(tenant));
  Rng rng(seed ^ (0x9E3779B97F4A7C15ull * (tenant + 1)) ^
          (0xBF58476D1CE4E5B9ull * static_cast<uint64_t>(episode + 1)));
  for (size_t i = 0; i < count; ++i) {
    switch (rng.NextU64(4)) {
      case 0: {
        Query q("chaos_filter");
        q.AddTable(t.fact);
        q.AddFilter(FilterPredicate{t.fact_val, CompareOp::kLt,
                                    Datum(static_cast<int64_t>(
                                        10 + rng.NextU64(80))),
                                    Datum()});
        w.AddQuery(std::move(q));
        break;
      }
      case 1: {
        Query q("chaos_join");
        q.AddTable(t.fact);
        q.AddTable(t.dim);
        q.AddJoin(JoinPredicate{t.fact_fk, t.dim_pk});
        q.AddFilter(FilterPredicate{t.fact_val, CompareOp::kLt,
                                    Datum(static_cast<int64_t>(
                                        20 + rng.NextU64(60))),
                                    Datum()});
        w.AddQuery(std::move(q));
        break;
      }
      case 2: {
        DmlStatement d;
        d.kind = DmlKind::kInsert;
        d.table = t.fact;
        d.row_count = 20 + rng.NextU64(80);
        d.seed = rng.NextU64(1 << 20);
        w.AddDml(d);
        break;
      }
      default: {
        DmlStatement d;
        d.kind = DmlKind::kUpdate;
        d.table = t.fact;
        d.update_column = 1;  // fact.val
        d.row_count = 10 + rng.NextU64(60);
        d.seed = rng.NextU64(1 << 20);
        w.AddDml(d);
        break;
      }
    }
  }
  return w;
}

// One armed fault assignment: victim tenant + injection point + schedule.
struct FaultAssignment {
  size_t tenant = 0;
  std::string point;
  FaultSchedule schedule;
  bool error = true;  // false = latency spike (no error injected)
};

// One episode's plan, fixed before either run starts.
struct EpisodePlan {
  std::vector<FaultAssignment> faults;
  std::vector<size_t> lifecycle_targets;  // remove+reopen pairs
  uint64_t interleave_seed = 0;
};

struct ChaosPlan {
  std::vector<EpisodePlan> episodes;
  std::set<size_t> error_victims;    // union across episodes
  std::set<size_t> latency_victims;  // union across episodes
};

// Draw `k` distinct elements from `pool` (seeded).
std::vector<size_t> DrawDistinct(std::vector<size_t> pool, size_t k,
                                 Rng* rng) {
  std::vector<size_t> out;
  for (size_t i = 0; i < k && !pool.empty(); ++i) {
    const size_t j = rng->NextU64(pool.size());
    out.push_back(pool[j]);
    pool.erase(pool.begin() + static_cast<long>(j));
  }
  return out;
}

// Tenants are partitioned into disjoint pools BY INDEX so an error victim
// is never also a lifecycle target: their convergence oracles differ
// (serial replay with quarantine fences vs the lifecycle-replaying
// reference run). Live-added tenants (index >= the initial fleet) are
// never targeted.
ChaosPlan BuildPlan(const ChaosOptions& options) {
  std::vector<size_t> error_pool, lifecycle_pool, latency_pool;
  for (size_t i = 0; i < options.tenants; ++i) {
    switch (i % 5) {
      case 0: error_pool.push_back(i); break;
      case 1: lifecycle_pool.push_back(i); break;
      case 2: latency_pool.push_back(i); break;
      default: break;  // always-untargeted bystanders
    }
  }
  // The fault injector holds ONE schedule per point, so concurrent error
  // victims need distinct points: at most the three persistence.* points
  // per episode, and one stats.refresh latency victim.
  const size_t error_victims =
      std::min<size_t>(options.error_victims_per_episode, 3);
  const size_t latency_victims =
      std::min<size_t>(options.latency_victims_per_episode, 1);

  ChaosPlan plan;
  Rng rng(options.seed);
  for (int e = 0; e < options.episodes; ++e) {
    EpisodePlan ep;
    ep.interleave_seed = rng.Next();
    const std::vector<size_t> victims =
        DrawDistinct(error_pool, error_victims, &rng);
    for (size_t k = 0; k < victims.size(); ++k) {
      FaultAssignment fa;
      fa.tenant = victims[k];
      fa.schedule.kind = FaultKind::kFailNth;
      fa.schedule.nth = 1;
      fa.schedule.count = INT64_MAX;
      fa.schedule.match = "tenant=" + ChaosTenantName(victims[k]);
      switch (k % 3) {
        case 0:
          // Journal/snapshot fsync: alternate simulated kill (seals the
          // writer at once) and plain persistent failure (trips on the
          // streak).
          fa.point = faults::kPersistenceFsync;
          fa.schedule.torn_write_bytes = (e % 2 == 0) ? 0 : -1;
          break;
        case 1:
          // Journal append: alternate plain failure and a torn write
          // (5 bytes of the frame persist, then death).
          fa.point = faults::kPersistenceAppend;
          fa.schedule.torn_write_bytes = (e % 2 == 0) ? -1 : 5;
          break;
        default:
          // Snapshot publish (checkpoint rename) fails persistently.
          fa.point = faults::kPersistenceRename;
          break;
      }
      ep.faults.push_back(fa);
      plan.error_victims.insert(victims[k]);
    }
    for (size_t v : DrawDistinct(latency_pool, latency_victims, &rng)) {
      FaultAssignment fa;
      fa.tenant = v;
      fa.error = false;
      fa.point = faults::kStatsRefresh;
      fa.schedule.kind = FaultKind::kLatencySpike;
      fa.schedule.nth = 1;
      fa.schedule.count = 8;
      fa.schedule.latency_micros = 2000;
      fa.schedule.match = "tenant=" + ChaosTenantName(v);
      ep.faults.push_back(fa);
      plan.latency_victims.insert(v);
    }
    ep.lifecycle_targets =
        DrawDistinct(lifecycle_pool, options.lifecycle_ops_per_episode, &rng);
    plan.episodes.push_back(std::move(ep));
  }
  return plan;
}

struct TenantSnapshot {
  std::string dump;
  uint32_t digest = 0;
  std::string trace;
  RunReport report;
  int64_t trips = 0;
  int64_t probes = 0;
  int64_t recoveries = 0;
  int64_t shed = 0;
};

struct FleetResult {
  std::vector<TenantSnapshot> tenants;
  int64_t statements_submitted = 0;
  int64_t faults_fired = 0;
  int64_t removes = 0;
  int64_t reopens = 0;
  int64_t live_adds = 0;
  std::vector<std::string> errors;  // operational failures, fatal to `ok`
};

// Runs the whole fleet once — chaos (arm = true) or the no-fault
// reference twin (arm = false). Everything except the Arm/Probe calls is
// identical between the two.
FleetResult RunOnce(const ChaosOptions& options, const ChaosPlan& plan,
                    const std::string& run_root, bool arm) {
  FleetResult out;
  std::error_code ec;
  fs::remove_all(run_root, ec);

  const size_t final_fleet =
      options.tenants + static_cast<size_t>(options.episodes);
  std::vector<ChaosDb> dbs;
  dbs.reserve(final_fleet);
  for (size_t i = 0; i < final_fleet; ++i) {
    dbs.push_back(MakeChaosDb(i, options.fact_rows));
  }

  ServerOptions so;
  so.num_workers = options.workers;
  // Determinism: no wall-clock fsync coordinator — every trip, probe, and
  // trace byte is a pure function of the streams.
  so.fsync_budget_per_sec = 0.0;
  // Small breaker backoff so in-episode probes actually exercise the
  // half-open path.
  so.breaker_probe_backoff_statements = 2;
  so.breaker_probe_backoff_max_statements = 16;
  so.breaker_seed = options.seed;
  // Only the chaos run writes post-mortems; the reference twin stays
  // dump-free so the two runs' observable bytes still match exactly.
  so.flight_dump_dir = arm ? options.flight_dump_dir : "";
  AutoStatsServer server(so);

  auto tenant_config = [&](size_t i) {
    TenantConfig tc;
    tc.name = ChaosTenantName(i);
    tc.db = dbs[i].db.get();
    tc.policy = ChaosPolicy();
    tc.durability_dir = run_root + "/" + tc.name;
    return tc;
  };
  for (size_t i = 0; i < options.tenants; ++i) {
    server.AddTenant(tenant_config(i));
  }
  server.Start();

  size_t active = options.tenants;
  for (int e = 0; e < options.episodes; ++e) {
    const EpisodePlan& ep = plan.episodes[static_cast<size_t>(e)];
    if (arm) {
      for (const FaultAssignment& fa : ep.faults) {
        FaultInjector::Instance().Arm(fa.point, fa.schedule);
      }
    }

    std::vector<Workload> streams;
    streams.reserve(active + 1);
    for (size_t i = 0; i < active; ++i) {
      streams.push_back(EpisodeStream(dbs[i], i, e,
                                      options.statements_per_tenant,
                                      options.seed));
    }
    std::vector<size_t> pos(active, 0);
    size_t total = active * options.statements_per_tenant;
    const size_t half = total / 2;
    size_t submitted = 0;
    bool mid_ops_done = false;
    Rng interleave(ep.interleave_seed);
    while (submitted < total) {
      if (!mid_ops_done && submitted >= half) {
        mid_ops_done = true;
        // Live lifecycle ops while the workers are mid-stream on the
        // whole fleet: quiesce + seal + release, then recover
        // bit-identical from snapshot + replay — siblings never pause.
        for (size_t target : ep.lifecycle_targets) {
          const Status removed = server.RemoveTenant(target);
          if (!removed.ok()) {
            out.errors.push_back("RemoveTenant(" + ChaosTenantName(target) +
                                 "): " + removed.ToString());
            continue;
          }
          ++out.removes;
          const Status reopened = server.ReopenTenant(target);
          if (!reopened.ok()) {
            out.errors.push_back("ReopenTenant(" + ChaosTenantName(target) +
                                 "): " + reopened.ToString());
            continue;
          }
          ++out.reopens;
        }
        // Grow the fleet live; the new tenant's stream joins the
        // remaining interleave.
        const size_t added = server.AddTenant(tenant_config(active));
        if (added != active) {
          out.errors.push_back("live AddTenant returned unexpected index");
        }
        ++out.live_adds;
        streams.push_back(EpisodeStream(dbs[active], active, e,
                                        options.statements_per_tenant,
                                        options.seed));
        pos.push_back(0);
        ++active;
        total += options.statements_per_tenant;
      }
      size_t pick = interleave.NextU64(active);
      while (pos[pick] >= streams[pick].size()) pick = (pick + 1) % active;
      const Status s =
          server.Submit(pick, streams[pick].statements()[pos[pick]]);
      if (!s.ok()) {
        out.errors.push_back("Submit(" + ChaosTenantName(pick) +
                             "): " + s.ToString());
      }
      ++pos[pick];
      ++submitted;
      ++out.statements_submitted;
    }
    server.Drain();

    if (arm) {
      out.faults_fired += FaultInjector::Instance().TotalFires();
      FaultInjector::Instance().Reset();
      // Disarmed: force half-open probes until every tripped victim
      // recovers (fence, Resume, replay parked).
      for (const FaultAssignment& fa : ep.faults) {
        if (!fa.error) continue;
        Status probed = Status::OK();
        for (int attempt = 0; attempt < 4; ++attempt) {
          probed = server.ProbeTenant(fa.tenant);
          if (probed.ok()) break;
        }
        if (!probed.ok()) {
          out.errors.push_back("victim " + ChaosTenantName(fa.tenant) +
                               " failed to recover: " + probed.ToString());
        }
      }
    }
  }

  server.Drain();
  server.Stop();
  out.tenants.resize(active);
  for (size_t i = 0; i < active; ++i) {
    TenantSnapshot& snap = out.tenants[i];
    snap.dump = CatalogCanonicalDump(server.catalog(i));
    snap.digest = CatalogDigest(server.catalog(i));
    snap.trace = server.trace(i).Dump();
    snap.report = server.Report(i);
    snap.trips = server.breaker_trips(i);
    snap.probes = server.breaker_probes(i);
    snap.recoveries = server.breaker_recoveries(i);
    snap.shed = server.shed_total(i);
  }
  return out;
}

// The statement boundaries at which the tenant tripped (== where its
// recovery applied the quarantine fences), read back from the tenant's
// own tenant.lifecycle trace events.
std::vector<uint64_t> TripPoints(const std::string& trace) {
  std::vector<uint64_t> points;
  const std::string needle = "\"event\":\"breaker_trip\"";
  for (size_t pos = trace.find(needle); pos != std::string::npos;
       pos = trace.find(needle, pos + needle.size())) {
    const size_t eol = trace.find('\n', pos);
    const size_t p = trace.find("\"processed\":", pos);
    if (p != std::string::npos && (eol == std::string::npos || p < eol)) {
      points.push_back(
          std::strtoull(trace.c_str() + p + 12, nullptr, 10));
    }
  }
  return points;
}

// Renders the first point where two blobs diverge, with a little context
// on each side — a finding that names the divergent line is actionable,
// "diverged" alone is not.
std::string FirstDiff(const std::string& got, const std::string& want) {
  size_t i = 0;
  const size_t n = std::min(got.size(), want.size());
  while (i < n && got[i] == want[i]) ++i;
  const size_t from = i > 60 ? i - 60 : 0;
  auto excerpt = [&](const std::string& s) {
    std::string e = s.substr(from, 120);
    for (char& c : e) {
      if (c == '\n') c = '~';
    }
    return e;
  };
  return " @" + std::to_string(i) + " got \"" + excerpt(got) + "\" want \"" +
         excerpt(want) + "\"";
}

// The recovered-vs-live comparisons ignore the pending_full_rebuild
// flags: a dead DeltaStore legitimately fences more than a live one.
std::string StripPending(std::string s) {
  for (size_t p = s.find(" pending="); p != std::string::npos;
       p = s.find(" pending=", p)) {
    s.erase(p, 10);  // " pending=X"
  }
  return s;
}

// Serial replay oracle for one error victim: a single-threaded manager
// processes the victim's exact submitted stream fault-free, with the
// quarantine fences applied at the trip boundaries the chaos run
// recorded. The victim's final catalog must match bit-for-bit modulo
// pending flags.
std::string VictimOracleDump(const ChaosOptions& options, size_t victim,
                             const std::vector<uint64_t>& fence_after) {
  ChaosDb t = MakeChaosDb(victim, options.fact_rows);
  StatsCatalog catalog(t.db.get());
  Optimizer optimizer(t.db.get());
  AutoStatsManager manager(t.db.get(), &catalog, &optimizer, ChaosPolicy());
  uint64_t processed = 0;
  size_t next_fence = 0;
  for (int e = 0; e < options.episodes; ++e) {
    const Workload stream = EpisodeStream(
        t, victim, e, options.statements_per_tenant, options.seed);
    for (const Statement& s : stream.statements()) {
      while (next_fence < fence_after.size() &&
             fence_after[next_fence] == processed) {
        catalog.FlagAllPendingFullRebuild();
        ++next_fence;
      }
      manager.Process(s);
      ++processed;
    }
  }
  return CatalogCanonicalDump(catalog);
}

}  // namespace

ChaosReport RunChaosFleet(const ChaosOptions& options) {
  ChaosReport report;
  report.episodes = options.episodes;
  const ChaosPlan plan = BuildPlan(options);

  const bool trace_was_enabled = obs::TraceEnabled();
  obs::EnableTrace(true);
  FaultInjector::Instance().Reset();

  if (!options.flight_dump_dir.empty()) {
    std::error_code ec;
    fs::remove_all(options.flight_dump_dir, ec);
  }
  const FleetResult chaos =
      RunOnce(options, plan, options.root_dir + "/chaos", /*arm=*/true);
  FaultInjector::Instance().Reset();
  if (!options.flight_dump_dir.empty()) {
    std::error_code ec;
    for (const auto& entry :
         fs::directory_iterator(options.flight_dump_dir, ec)) {
      if (entry.is_regular_file()) ++report.flight_dumps;
    }
  }

  report.statements_submitted = chaos.statements_submitted;
  report.faults_fired = chaos.faults_fired;
  report.removes = chaos.removes;
  report.reopens = chaos.reopens;
  report.live_adds = chaos.live_adds;
  for (const TenantSnapshot& snap : chaos.tenants) {
    report.breaker_trips += snap.trips;
    report.breaker_probes += snap.probes;
    report.breaker_recoveries += snap.recoveries;
    report.statements_shed += snap.shed;
  }
  report.findings = chaos.errors;

  // 1. Untargeted tenants — including lifecycle targets and latency-spike
  // victims — must be byte-identical to the no-fault reference twin.
  const FleetResult ref =
      RunOnce(options, plan, options.root_dir + "/ref", /*arm=*/false);
  for (const std::string& err : ref.errors) {
    report.findings.push_back("reference run: " + err);
  }
  if (ref.tenants.size() != chaos.tenants.size()) {
    report.findings.push_back("fleet sizes diverged between runs");
  }
  const size_t n = std::min(ref.tenants.size(), chaos.tenants.size());
  for (size_t i = 0; i < n; ++i) {
    if (plan.error_victims.count(i) != 0) continue;
    bool identical = true;
    if (chaos.tenants[i].dump != ref.tenants[i].dump ||
        chaos.tenants[i].digest != ref.tenants[i].digest) {
      report.findings.push_back(
          "fault leaked into tenant " + ChaosTenantName(i) +
          ": catalog diverged" +
          FirstDiff(chaos.tenants[i].dump, ref.tenants[i].dump));
      identical = false;
    }
    // Latency victims legitimately record fault.fire trace events (the
    // injector's own observability), which shift every later sequence
    // number — for them only the catalog bytes must match. Everyone
    // else must match trace bytes too.
    if (plan.latency_victims.count(i) == 0 &&
        chaos.tenants[i].trace != ref.tenants[i].trace) {
      report.findings.push_back(
          "fault leaked into tenant " + ChaosTenantName(i) +
          ": trace diverged" +
          FirstDiff(chaos.tenants[i].trace, ref.tenants[i].trace));
      identical = false;
    }
    if (identical) ++report.tenants_checked_identical;
  }

  // 2. Error victims — converge to the serial replay oracle, lose no
  // statements, and their durable directory reopens to the live state.
  for (size_t victim : plan.error_victims) {
    const TenantSnapshot& snap = chaos.tenants[victim];
    const int64_t expected_statements =
        static_cast<int64_t>(options.episodes *
                             options.statements_per_tenant) -
        snap.shed;
    if (snap.report.num_queries + snap.report.num_dml != expected_statements) {
      report.findings.push_back(
          "victim " + ChaosTenantName(victim) + " lost statements: " +
          std::to_string(snap.report.num_queries + snap.report.num_dml) +
          " accounted, " + std::to_string(expected_statements) + " admitted");
    }
    const std::vector<uint64_t> fences = TripPoints(snap.trace);
    const std::string oracle = VictimOracleDump(options, victim, fences);
    if (StripPending(snap.dump) != StripPending(oracle)) {
      std::string fence_str;
      for (uint64_t f : fences) fence_str += " " + std::to_string(f);
      report.findings.push_back(
          "victim " + ChaosTenantName(victim) +
          " did not converge to the serial oracle (trips" + fence_str +
          ", recoveries " + std::to_string(snap.recoveries) + ")" +
          FirstDiff(StripPending(snap.dump), StripPending(oracle)));
    } else {
      ++report.victims_checked_oracle;
    }
    // Durable round trip: the victim's post-recovery directory (Resume
    // snapshot + later records) reopens to the live catalog.
    ChaosDb t = MakeChaosDb(victim, options.fact_rows);
    StatsCatalog recovered(t.db.get());
    Result<std::unique_ptr<CatalogDurability>> opened = CatalogDurability::
        Open(&recovered, {.dir = options.root_dir + "/chaos/" +
                                     ChaosTenantName(victim)});
    if (!opened.ok()) {
      report.findings.push_back("victim " + ChaosTenantName(victim) +
                                " durable dir unreadable: " +
                                opened.status().ToString());
    } else if (StripPending(CatalogCanonicalDump(recovered)) !=
               StripPending(snap.dump)) {
      report.findings.push_back("victim " + ChaosTenantName(victim) +
                                " durable state diverged from live catalog");
    }
  }

  obs::EnableTrace(trace_was_enabled);
  report.ok = report.findings.empty();
  return report;
}

std::string FormatChaosReport(const ChaosReport& report) {
  std::string out;
  out += "chaos fleet: " + std::string(report.ok ? "OK" : "FAILED") + "\n";
  out += "  episodes              " + std::to_string(report.episodes) + "\n";
  out += "  statements submitted  " +
         std::to_string(report.statements_submitted) + "\n";
  out += "  faults fired          " + std::to_string(report.faults_fired) +
         "\n";
  out += "  breaker trips         " + std::to_string(report.breaker_trips) +
         "\n";
  out += "  breaker probes        " + std::to_string(report.breaker_probes) +
         "\n";
  out += "  breaker recoveries    " +
         std::to_string(report.breaker_recoveries) + "\n";
  out += "  removes / reopens     " + std::to_string(report.removes) + " / " +
         std::to_string(report.reopens) + "\n";
  out += "  live adds             " + std::to_string(report.live_adds) + "\n";
  out += "  statements shed       " + std::to_string(report.statements_shed) +
         "\n";
  out += "  flight dumps          " + std::to_string(report.flight_dumps) +
         "\n";
  out += "  identical tenants     " +
         std::to_string(report.tenants_checked_identical) + "\n";
  out += "  oracle-checked victims " +
         std::to_string(report.victims_checked_oracle) + "\n";
  for (const std::string& finding : report.findings) {
    out += "  FINDING: " + finding + "\n";
  }
  return out;
}

}  // namespace autostats
