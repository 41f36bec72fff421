// Optimizer thread-safety — exact atomic call counters and bit-identical
// plan-cache hits under concurrent callers (the contract the server's
// workers rely on) — and run-to-run determinism of the MNSA + Shrinking
// Set pipeline.
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/mnsa.h"
#include "core/mnsa_d.h"
#include "core/shrinking_set.h"
#include "optimizer/optimizer.h"
#include "query/workload.h"
#include "stats/stats_catalog.h"
#include "tests/test_util.h"

namespace autostats {
namespace {

using testing::MakeFilterQuery;
using testing::MakeJoinQuery;
using testing::MakeTwoTableDb;
using testing::TwoTableDb;

// Calls fn(i) for every i in [0, n) from kThreads concurrent threads,
// each taking every kThreads-th index.
constexpr size_t kThreads = 4;
template <typename Fn>
void RunConcurrently(size_t n, const Fn& fn) {
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < n; i += kThreads) fn(i);
    });
  }
  for (std::thread& th : threads) th.join();
}

TEST(OptimizerConcurrencyTest, CallCountersAreExactUnderContention) {
  TwoTableDb t = MakeTwoTableDb();
  OptimizerConfig config;
  config.enable_plan_cache = false;  // every call runs the real pipeline
  Optimizer optimizer(&t.db, config);
  StatsCatalog catalog(&t.db);
  const StatsView view(&catalog);

  constexpr size_t kProbes = 200;
  RunConcurrently(kProbes, [&](size_t i) {
    optimizer.Optimize(MakeFilterQuery(t, static_cast<int64_t>(i % 100)),
                       view);
  });
  EXPECT_EQ(optimizer.num_calls(), static_cast<int64_t>(kProbes));
  EXPECT_EQ(optimizer.num_real_calls(), static_cast<int64_t>(kProbes));
}

TEST(OptimizerConcurrencyTest, ConcurrentCacheHitsAreBitIdentical) {
  TwoTableDb t = MakeTwoTableDb();
  Optimizer optimizer(&t.db);
  StatsCatalog catalog(&t.db);
  const StatsView view(&catalog);
  const Query q = MakeJoinQuery(t);

  const OptimizeResult reference = optimizer.Optimize(q, view);
  constexpr size_t kProbes = 64;
  std::vector<OptimizeResult> results(kProbes);
  RunConcurrently(kProbes,
                  [&](size_t i) { results[i] = optimizer.Optimize(q, view); });
  for (const OptimizeResult& r : results) {
    ASSERT_EQ(r.plan.Signature(), reference.plan.Signature());
    ASSERT_EQ(r.cost, reference.cost);
  }
  EXPECT_EQ(optimizer.num_calls(), static_cast<int64_t>(kProbes) + 1);
  EXPECT_EQ(optimizer.num_cache_hits(), static_cast<int64_t>(kProbes));
}

// ---------------------------------------------------------------------------
// Determinism: two runs of the full pipeline are bit-identical.
// ---------------------------------------------------------------------------

Workload MakeMixedWorkload(const TwoTableDb& t) {
  Workload w;
  w.AddQuery(MakeJoinQuery(t, 30));
  w.AddQuery(MakeJoinQuery(t, 70));
  w.AddQuery(MakeFilterQuery(t, 20));
  w.AddQuery(MakeFilterQuery(t, 80, /*group=*/true));
  w.AddQuery(MakeFilterQuery(t, 50));
  return w;
}

// Everything observable about a pipeline run, for exact comparison.
struct RunSnapshot {
  std::vector<StatKey> mnsa_created;
  std::vector<StatKey> mnsa_dropped;
  double mnsa_creation_cost = 0.0;
  int mnsa_optimizer_calls = 0;
  bool mnsa_converged = false;
  std::vector<StatKey> essential;
  std::vector<StatKey> removed;
  int shrink_optimizer_calls = 0;
  std::vector<StatKey> active_keys;
  std::vector<std::string> plan_signatures;
  std::vector<double> plan_costs;
};

RunSnapshot RunPipeline() {
  TwoTableDb t = MakeTwoTableDb();
  Optimizer optimizer(&t.db);
  StatsCatalog catalog(&t.db);
  const Workload w = MakeMixedWorkload(t);

  RunSnapshot snap;
  MnsaConfig mnsa_config;
  mnsa_config.drop_detection = true;
  const MnsaResult mnsa = RunMnsaWorkload(optimizer, &catalog, w, mnsa_config);
  snap.mnsa_created = mnsa.created;
  snap.mnsa_dropped = mnsa.dropped;
  snap.mnsa_creation_cost = mnsa.creation_cost;
  snap.mnsa_optimizer_calls = mnsa.optimizer_calls;
  snap.mnsa_converged = mnsa.converged;

  const ShrinkingSetResult shrink =
      RunShrinkingSet(optimizer, &catalog, w, ShrinkingSetConfig{});
  snap.essential = shrink.essential;
  snap.removed = shrink.removed;
  snap.shrink_optimizer_calls = shrink.optimizer_calls;

  snap.active_keys = catalog.ActiveKeys();
  const StatsView view(&catalog);
  for (const Query* q : w.Queries()) {
    const OptimizeResult r = optimizer.Optimize(*q, view);
    snap.plan_signatures.push_back(r.plan.Signature());
    snap.plan_costs.push_back(r.cost);
  }
  return snap;
}

void ExpectIdentical(const RunSnapshot& first, const RunSnapshot& second) {
  EXPECT_EQ(first.mnsa_created, second.mnsa_created);
  EXPECT_EQ(first.mnsa_dropped, second.mnsa_dropped);
  EXPECT_EQ(first.mnsa_creation_cost, second.mnsa_creation_cost);
  EXPECT_EQ(first.mnsa_optimizer_calls, second.mnsa_optimizer_calls);
  EXPECT_EQ(first.mnsa_converged, second.mnsa_converged);
  EXPECT_EQ(first.essential, second.essential);
  EXPECT_EQ(first.removed, second.removed);
  EXPECT_EQ(first.shrink_optimizer_calls, second.shrink_optimizer_calls);
  EXPECT_EQ(first.active_keys, second.active_keys);
  EXPECT_EQ(first.plan_signatures, second.plan_signatures);
  EXPECT_EQ(first.plan_costs, second.plan_costs);  // bit-exact doubles
}

TEST(DeterminismTest, RepeatedRunsAreStable) {
  const RunSnapshot first = RunPipeline();
  const RunSnapshot second = RunPipeline();
  ExpectIdentical(first, second);
  // The workload must actually exercise both phases for the comparison to
  // mean anything.
  EXPECT_FALSE(first.mnsa_created.empty());
  EXPECT_GT(first.shrink_optimizer_calls, 0);
}

}  // namespace
}  // namespace autostats
