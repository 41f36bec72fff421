// Deterministic chaos harness for the multi-tenant AutoStatsServer
// (examples/chaos_server drives it; tests/chaos_test pins it).
//
// RunChaosFleet builds a fleet of durable tenants (default 100), runs a
// seeded sequence of *episodes*, and verifies failure containment after
// every one. Each episode:
//
//   1. Picks fault victims from a dedicated victim pool and arms seeded
//      fault schedules against them, matched "tenant=<name>" so firings
//      land only on the victim and advance in its serial statement order:
//      simulated kills (persistence.fsync, torn_write_bytes = 0), torn
//      journal appends (persistence.append, a partial frame then death),
//      plain fsync failures, and latency spikes (stats.refresh).
//   2. Submits every active tenant's episode stream through the server in
//      a seeded interleaving, and — mid-stream, while workers drain the
//      whole fleet — performs live lifecycle ops on a disjoint lifecycle
//      pool: RemoveTenant (quiesce + seal) immediately followed by
//      ReopenTenant (snapshot + replay recovery), plus one live AddTenant
//      growing the fleet.
//   3. Drains, disarms the schedules, and forces half-open probes
//      (ProbeTenant) until every tripped victim recovers — catalog
//      fenced pending_full_rebuild, durability re-established via
//      CatalogDurability::Resume, parked statements replayed.
//
// Verification, after the last episode:
//   - UNTARGETED tenants (everything outside the episode's error-victim
//     assignments, including lifecycle-targeted tenants): catalog dump,
//     digest, and trace must be BYTE-IDENTICAL to a no-fault reference
//     run of the same options (same streams, same interleaving, same
//     lifecycle schedule — only the fault arming differs). Faults must
//     not leak across tenant boundaries, and lifecycle ops must be
//     deterministic. Latency-spike victims are held to catalog byte
//     identity only: their traces legitimately record the injector's
//     fault.fire events.
//   - ERROR VICTIMS: the final catalog must converge to a serial replay
//     oracle — a single-threaded AutoStatsManager processing the exact
//     same stream fault-free, with the quarantine fences
//     (FlagAllPendingFullRebuild) applied at the statement boundaries the
//     victim's own tenant.lifecycle trace records for each trip. Victims
//     lose no statements: every admitted statement is either processed or
//     parked-and-replayed.
//
// Everything is a pure function of ChaosOptions (streams, schedules,
// victim/lifecycle picks, probe timing): the harness runs with
// fsync_budget_per_sec = 0 so no wall-clock coordinator passes exist, and
// breaker probes ride the logical degraded-statement clock. Two runs with
// the same options are byte-identical in full — including the victims —
// at ANY worker count.
#ifndef AUTOSTATS_SERVER_CHAOS_H_
#define AUTOSTATS_SERVER_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace autostats {

struct ChaosOptions {
  // Initial fleet size; one live AddTenant per episode grows it.
  size_t tenants = 100;
  int workers = 4;
  // Seeded fault/interleave/jitter streams; same seed = same run, bytes
  // and all.
  uint64_t seed = 0xC11A05u;
  int episodes = 2;
  // Statements each active tenant submits per episode (streams differ
  // per tenant and per episode).
  size_t statements_per_tenant = 8;
  // Error-fault victims per episode, drawn from a dedicated pool so a
  // victim is never also a lifecycle target (their oracles differ).
  size_t error_victims_per_episode = 2;
  // Latency-spike victims per episode (no error injected: these tenants
  // must stay byte-identical to the reference run).
  size_t latency_victims_per_episode = 1;
  // Remove+reopen pairs per episode, drawn from the lifecycle pool.
  size_t lifecycle_ops_per_episode = 2;
  // Rows in each tenant's synthetic fact table (dim is rows/20).
  size_t fact_rows = 400;
  // Root directory for the per-tenant WAL directories. The harness
  // wipes and recreates "<root>/<run>" for each of its two runs.
  std::string root_dir = "chaos_fleet.dir";
  // Breaker knobs passed through to ServerOptions (small backoff so
  // in-episode probes actually exercise the half-open path).
  int breaker_trip_threshold = 3;
  int64_t breaker_probe_backoff_statements = 2;
  int64_t breaker_probe_backoff_max_statements = 16;
  // Skip the no-fault twin run (and with it the untargeted byte-identity
  // check); the serial-oracle victim check still runs. For benches that
  // only want the chaos load.
  bool skip_reference_run = false;
  // When non-empty, the CHAOS run's server dumps each victim's flight
  // recorder here on every breaker trip (the reference twin never arms
  // it). The harness wipes the directory first and counts the dumps into
  // ChaosReport::flight_dumps.
  std::string flight_dump_dir;
};

struct ChaosReport {
  bool ok = false;
  // What the chaos run did.
  int64_t episodes = 0;
  int64_t statements_submitted = 0;
  int64_t faults_fired = 0;
  int64_t breaker_trips = 0;
  int64_t breaker_probes = 0;
  int64_t breaker_recoveries = 0;
  int64_t removes = 0;
  int64_t reopens = 0;
  int64_t live_adds = 0;
  int64_t statements_shed = 0;
  // Flight-recorder post-mortems written on breaker trips (0 unless
  // ChaosOptions::flight_dump_dir is set).
  int64_t flight_dumps = 0;
  // What verification concluded.
  int64_t tenants_checked_identical = 0;  // byte-identical to reference
  int64_t victims_checked_oracle = 0;     // converged to serial oracle
  std::vector<std::string> findings;      // one line per violation; empty = ok
};

// Runs the chaos fleet and verifies it (see file comment). Arms and
// resets the process-wide FaultInjector; the caller must not have its own
// schedules armed. Deterministic: the report (and every byte of tenant
// state behind it) is a pure function of `options`.
ChaosReport RunChaosFleet(const ChaosOptions& options);

// Formats a report as a short human-readable block (examples/chaos_server).
std::string FormatChaosReport(const ChaosReport& report);

}  // namespace autostats

#endif  // AUTOSTATS_SERVER_CHAOS_H_
