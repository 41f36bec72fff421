// Pins the deterministic chaos harness (server/chaos.h) in CI: a seeded
// fleet episode — faults + lifecycle ops + breaker recoveries — must
// verify clean (untargeted tenants byte-identical to the no-fault twin
// run, error victims converged to the fence-aware serial oracle) at more
// than one worker count, and the harness itself must be a
// pure function of its options.
//
// The fleet here is intentionally smaller than examples/chaos_server's
// 100-tenant default so the suite stays fast; the verification logic and
// every fault point exercised are identical.
#include "server/chaos.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>

#include "common/fault.h"
#include "obs/trace.h"

namespace autostats {
namespace {

namespace fs = std::filesystem;

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Instance().Reset();
    obs::TraceSink::Instance().Clear();
    obs::EnableTrace(false);
    std::error_code ec;
    fs::remove_all(Root(), ec);
  }

  // Per-process scratch root: two ctest entries running this binary
  // concurrently must not share (or wipe) each other's directories.
  static std::string Root() {
    return "chaos_test." + std::to_string(::getpid()) + ".dir";
  }

  static ChaosOptions SmallFleet() {
    ChaosOptions options;
    options.tenants = 20;
    options.episodes = 2;
    options.statements_per_tenant = 8;
    options.error_victims_per_episode = 2;
    options.latency_victims_per_episode = 1;
    options.lifecycle_ops_per_episode = 2;
    options.fact_rows = 300;
    options.root_dir = Root();
    return options;
  }
};

// The acceptance configuration matrix: the same seeded episode schedule
// must verify clean at several worker counts.
TEST_F(ChaosTest, SeededEpisodesVerifyAcrossConfigurations) {
  for (int workers : {1, 4, 8}) {
    ChaosOptions options = SmallFleet();
    options.workers = workers;
    const ChaosReport report = RunChaosFleet(options);
    for (const std::string& finding : report.findings) {
      ADD_FAILURE() << workers << " workers: " << finding;
    }
    EXPECT_TRUE(report.ok) << workers << " workers";
    // The episode actually exercised the machinery it claims to verify.
    EXPECT_EQ(report.episodes, options.episodes);
    EXPECT_GT(report.faults_fired, 0) << workers << " workers";
    EXPECT_GT(report.breaker_trips, 0) << workers << " workers";
    EXPECT_EQ(report.breaker_recoveries, report.breaker_trips)
        << workers << " workers"
        << ": a tripped tenant failed to recover after disarm";
    EXPECT_EQ(report.removes, static_cast<int64_t>(
                                  options.episodes *
                                  options.lifecycle_ops_per_episode));
    EXPECT_EQ(report.reopens, report.removes);
    EXPECT_EQ(report.live_adds, static_cast<int64_t>(options.episodes));
    EXPECT_GT(report.tenants_checked_identical, 0);
    EXPECT_GT(report.victims_checked_oracle, 0);
  }
}

// With a flight-dump directory armed, every breaker trip in the chaos
// run leaves a post-mortem on disk — and the reference twin (which never
// arms it) still verifies byte-identical, because dumps emit no events.
TEST_F(ChaosTest, BreakerTripsLeaveFlightDumps) {
  ChaosOptions options = SmallFleet();
  options.workers = 4;
  options.flight_dump_dir = Root() + ".flight";
  const ChaosReport report = RunChaosFleet(options);
  for (const std::string& finding : report.findings) {
    ADD_FAILURE() << finding;
  }
  EXPECT_TRUE(report.ok);
  EXPECT_GT(report.breaker_trips, 0);
  EXPECT_GT(report.flight_dumps, 0);
  EXPECT_LE(report.flight_dumps, report.breaker_trips);
  std::error_code ec;
  fs::remove_all(options.flight_dump_dir, ec);
}

// Determinism of the harness itself: the report's counters (and the
// tenant state behind them) are a pure function of ChaosOptions.
TEST_F(ChaosTest, SameOptionsSameReport) {
  ChaosOptions options = SmallFleet();
  options.workers = 4;
  const ChaosReport a = RunChaosFleet(options);
  const ChaosReport b = RunChaosFleet(options);
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
  EXPECT_EQ(a.statements_submitted, b.statements_submitted);
  EXPECT_EQ(a.faults_fired, b.faults_fired);
  EXPECT_EQ(a.breaker_trips, b.breaker_trips);
  EXPECT_EQ(a.breaker_probes, b.breaker_probes);
  EXPECT_EQ(a.breaker_recoveries, b.breaker_recoveries);
  EXPECT_EQ(a.statements_shed, b.statements_shed);
  EXPECT_EQ(a.tenants_checked_identical, b.tenants_checked_identical);
  EXPECT_EQ(a.victims_checked_oracle, b.victims_checked_oracle);
}

// A different seed re-draws victims, schedules, and interleavings — and
// still verifies clean: the harness is not tuned to one lucky draw.
TEST_F(ChaosTest, AlternateSeedStillVerifies) {
  ChaosOptions options = SmallFleet();
  options.workers = 2;
  options.seed = 0xDEC0DEull;
  const ChaosReport report = RunChaosFleet(options);
  for (const std::string& finding : report.findings) {
    ADD_FAILURE() << finding;
  }
  EXPECT_TRUE(report.ok);
  EXPECT_GT(report.faults_fired, 0);
}

}  // namespace
}  // namespace autostats
