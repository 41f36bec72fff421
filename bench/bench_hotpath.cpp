// bench_hotpath: the measurement half of the perf-trajectory gate
// (examples/bench_diff.cpp is the comparison half). Emits
// BENCH_hotpath.json with three classes of series, gated by
// bench/baselines/gate.rules:
//
//   1. Deterministic counts and checksums — selectivity checksums over a
//      fixed probe grid (locking in the kernels' bit-identical contract),
//      the join enumerator's bit-for-bit agreement with its reference,
//      the statistic lookups', the executor's and the statistic build
//      kernels' agreement with theirs,
//      optimizer call accounting, WAL fsync/append counts of the
//      per-statement commit path, and the workload's executed cost.
//      Gated exactly: any drift on any machine is a semantic change, not
//      noise.
//
//   2. In-process old-vs-new speedup ratios — the pre-optimization
//      kernels (linear bucket scan, the tree-building join enumerator,
//      the sorted-key statistic lookups, the Datum-per-cell executor, the
//      comparison-sort statistic builds, the bytewise CRC-32) are kept as
//      reference implementations and timed against the shipped ones in
//      the same process. Ratios are robust to machine speed, so they gate
//      loosely (they still move with cache sizes and compilers, hence
//      wide tolerances + absolute floors).
//
//   3. Absolute latencies and the PR 5 metrics percentiles — recorded for
//      trend reading across the committed baselines, never gated.
#include <algorithm>
#include <bit>
#include <clocale>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/auto_manager.h"
#include "core/mnsa.h"
#include "executor/executor.h"
#include "stats/builder.h"
#include "stats/distinct.h"
#include "stats/durability.h"
#include "stats/histogram.h"
#include "stats/maxdiff.h"
#include "tests/reference_builder.h"
#include "tests/reference_enumerator.h"
#include "tests/reference_executor.h"
#include "tests/reference_view.h"
#include "tests/test_util.h"
#include "tpcd/tuning.h"

namespace autostats::bench {
namespace {

using testing::MakeFilterQuery;
using testing::MakeJoinQuery;
using testing::MakeTwoTableDb;
using testing::TwoTableDb;

// xorshift64*: deterministic probe-grid generator (fixed seed, no
// std::random machinery whose streams could differ across libstdc++s).
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1Dull;
  }
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(Next() >> 11) * 0x1.0p-53);
  }
};

// Best-of-N wall time for `rounds` calls of fn; minimum filters scheduler
// noise out of the ratio numerator and denominator alike.
double BestMs(const std::function<void()>& fn, int rounds = 5) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < rounds; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.ElapsedMs());
  }
  return best;
}

// Best-of-N wall times of `a` and `b`, timed in alternation so that slow
// drift (the host's speed, a sanitizer's allocator state) reaches both.
std::pair<double, double> BestMsInterleaved(const std::function<void()>& a,
                                            const std::function<void()>& b,
                                            int rounds = 7) {
  double best_a = std::numeric_limits<double>::infinity();
  double best_b = best_a;
  for (int r = 0; r < rounds; ++r) {
    WallTimer ta;
    a();
    best_a = std::min(best_a, ta.ElapsedMs());
    WallTimer tb;
    b();
    best_b = std::min(best_b, tb.ElapsedMs());
  }
  return {best_a, best_b};
}

// --- Reference (pre-optimization) kernels ---------------------------------
// Verbatim ports of the linear-scan selectivity code this PR replaced,
// operating on the public bucket vector. The bench asserts they still
// produce bit-identical sums, then times them against the shipped kernels.

double RefCoveredFraction(const HistogramBucket& b, double a, double bb) {
  if (b.hi <= b.lo) return (b.lo > a && b.lo <= bb) ? 1.0 : 0.0;
  const double lo = std::max(a, b.lo);
  const double hi = std::min(bb, b.hi);
  if (hi <= lo) return 0.0;
  return (hi - lo) / (b.hi - b.lo);
}

double RefSelectivityEq(const Histogram& h, double key) {
  if (h.empty()) return 0.0;
  if (key < h.min_value() || key > h.max_value()) return 0.0;
  const std::vector<HistogramBucket>& buckets = h.buckets();
  for (size_t i = 0; i < buckets.size(); ++i) {
    const HistogramBucket& b = buckets[i];
    const bool in =
        (b.hi <= b.lo) ? (key == b.lo)
        : (i == 0)     ? (key >= b.lo && key <= b.hi)
                       : (key > b.lo && key <= b.hi);
    if (in) {
      const double d = std::max(b.distinct, 1.0);
      return (b.rows / d) / h.total_rows();
    }
  }
  return 0.0;
}

double RefSelectivityRange(const Histogram& h, double lo, bool lo_inclusive,
                           double hi, bool hi_inclusive) {
  if (h.empty()) return 0.0;
  if (hi < lo) return 0.0;
  double rows = 0.0;
  for (const HistogramBucket& b : h.buckets()) {
    rows += b.rows * RefCoveredFraction(b, lo, hi);
  }
  double sel = rows / h.total_rows();
  if (lo_inclusive && lo > -std::numeric_limits<double>::infinity()) {
    sel += RefSelectivityEq(h, lo);
  }
  if (!hi_inclusive && hi < std::numeric_limits<double>::infinity()) {
    sel -= RefSelectivityEq(h, hi);
  }
  return std::clamp(sel, 0.0, 1.0);
}

// --- Section 1: histogram kernels -----------------------------------------

void HistogramSection(BenchJson* json) {
  // A skewed 20k-value distribution compressed to ~200 buckets: large
  // enough that the linear scan pays ~100 bucket visits per probe.
  std::vector<ValueFreq> dist;
  dist.reserve(20000);
  Rng rng(0xC0FFEE);
  for (int i = 0; i < 20000; ++i) {
    dist.push_back({static_cast<double>(i),
                    1.0 + static_cast<double>(rng.Next() % 97)});
  }
  const Histogram hist = BuildMaxDiff(dist, 200);
  json->Add("hist_buckets", static_cast<double>(hist.buckets().size()));

  constexpr int kProbes = 4096;
  std::vector<double> eq_keys(kProbes);
  std::vector<std::pair<double, double>> ranges(kProbes);
  Rng probe_rng(0xDECAF);
  for (int i = 0; i < kProbes; ++i) {
    eq_keys[i] = std::floor(probe_rng.Uniform(-500.0, 20500.0));
    double a = probe_rng.Uniform(-500.0, 20500.0);
    double b = probe_rng.Uniform(-500.0, 20500.0);
    ranges[i] = {std::min(a, b), std::max(a, b)};
  }

  // Checksums first — and the reference kernels must agree bit-for-bit,
  // which is the optimization's core claim.
  double eq_sum = 0.0, range_sum = 0.0, distinct_sum = 0.0;
  double ref_eq_sum = 0.0, ref_range_sum = 0.0;
  for (int i = 0; i < kProbes; ++i) {
    eq_sum += hist.SelectivityEq(eq_keys[i]);
    ref_eq_sum += RefSelectivityEq(hist, eq_keys[i]);
    const auto& [lo, hi] = ranges[i];
    range_sum += hist.SelectivityRange(lo, (i & 1) != 0, hi, (i & 2) != 0);
    ref_range_sum +=
        RefSelectivityRange(hist, lo, (i & 1) != 0, hi, (i & 2) != 0);
    distinct_sum += hist.DistinctInRange(lo, hi);
  }
  json->Add("selectivity_eq_checksum", eq_sum);
  json->Add("selectivity_range_checksum", range_sum);
  json->Add("distinct_checksum", distinct_sum);
  json->Add("hist_ref_matches",
            (eq_sum == ref_eq_sum && range_sum == ref_range_sum) ? 1.0 : 0.0);

  constexpr int kReps = 50;
  volatile double sink = 0.0;
  const double eq_new_ms = BestMs([&] {
    double s = 0.0;
    for (int r = 0; r < kReps; ++r) {
      for (int i = 0; i < kProbes; ++i) s += hist.SelectivityEq(eq_keys[i]);
    }
    sink = s;
  });
  const double eq_old_ms = BestMs([&] {
    double s = 0.0;
    for (int r = 0; r < kReps; ++r) {
      for (int i = 0; i < kProbes; ++i) s += RefSelectivityEq(hist, eq_keys[i]);
    }
    sink = s;
  });
  const double range_new_ms = BestMs([&] {
    double s = 0.0;
    for (int r = 0; r < kReps; ++r) {
      for (int i = 0; i < kProbes; ++i) {
        const auto& [lo, hi] = ranges[i];
        s += hist.SelectivityRange(lo, (i & 1) != 0, hi, (i & 2) != 0);
      }
    }
    sink = s;
  });
  const double range_old_ms = BestMs([&] {
    double s = 0.0;
    for (int r = 0; r < kReps; ++r) {
      for (int i = 0; i < kProbes; ++i) {
        const auto& [lo, hi] = ranges[i];
        s += RefSelectivityRange(hist, lo, (i & 1) != 0, hi, (i & 2) != 0);
      }
    }
    sink = s;
  });
  (void)sink;

  const double probes = static_cast<double>(kReps) * kProbes;
  json->Add("hist_eq_ns_per_probe", eq_new_ms * 1e6 / probes);
  json->Add("hist_range_ns_per_probe", range_new_ms * 1e6 / probes);
  json->Add("hist_eq_speedup", eq_new_ms > 0 ? eq_old_ms / eq_new_ms : 0.0);
  json->Add("hist_range_speedup",
            range_new_ms > 0 ? range_old_ms / range_new_ms : 0.0);
}

// --- Section 2: join enumeration -------------------------------------------

// The tuned TPC-D mix and 100 complex Rags queries (up to 8 tables) over
// it, shared by the enumerator and view-lookup sections.
Database TunedTpcdMix() {
  Database db = tpcd::BuildTpcdVariant("TPCD_MIX", ScaleFactor(), 42);
  tpcd::ApplyTunedIndexes(&db);
  return db;
}

Workload ComplexQueries(const Database& db) {
  rags::RagsConfig rc;
  rc.num_statements = 100;
  rc.complexity = rags::Complexity::kComplex;
  rc.join_edges = tpcd::TpcdForeignKeys(db);
  return rags::Generate(db, rc);
}

void EnumeratorSection(BenchJson* json) {
  // The complex queries planned on an empty catalog: magic numbers
  // everywhere, both index paths in play. Each query's cardinality model
  // is built once and shared by the two enumerators, so the ratio times
  // enumeration alone.
  const Database db = TunedTpcdMix();
  const Workload w = ComplexQueries(db);
  const std::vector<const Query*> queries = w.Queries();
  StatsCatalog catalog(&db);
  const Optimizer optimizer(&db);
  const OptimizerConfig& config = optimizer.config();
  std::vector<SelectivityAnalysis> sels;
  for (const Query* q : queries) {
    sels.push_back(AnalyzeSelectivities(db, *q, StatsView(&catalog),
                                        config.magic, {}, config.epsilon));
  }
  std::vector<CardinalityModel> cards;
  for (size_t i = 0; i < queries.size(); ++i) {
    cards.emplace_back(&db, queries[i], &sels[i]);
  }
  auto enumerate = [&](size_t i, bool reference) {
    return reference
               ? testing::ReferenceEnumerateJoins(db, *queries[i], cards[i],
                                                  optimizer.cost_model(),
                                                  config.enumerator)
               : EnumerateJoins(db, *queries[i], cards[i],
                                optimizer.cost_model(), config.enumerator);
  };

  bool matches = true;
  for (size_t i = 0; i < queries.size(); ++i) {
    matches = matches && testing::PlanDiff(*enumerate(i, false).root,
                                           *enumerate(i, true).root)
                             .empty();
  }
  json->Add("enumerate_ref_matches", matches ? 1.0 : 0.0);

  volatile double sink = 0.0;
  auto sweep = [&](bool reference) {
    return BestMs([&] {
      double s = 0.0;
      for (size_t i = 0; i < queries.size(); ++i) {
        s += enumerate(i, reference).cost();
      }
      sink = s;
    });
  };
  const double new_ms = sweep(false);
  const double old_ms = sweep(true);
  (void)sink;
  json->Add("enumerate_us_per_call",
            new_ms * 1e3 / static_cast<double>(queries.size()));
  json->Add("enumerate_speedup", new_ms > 0 ? old_ms / new_ms : 0.0);
}

// --- Section 3: statistic lookups ------------------------------------------

void ViewLookupSection(BenchJson* json) {
  // The catalog MNSA/D builds over the complex queries (39 active and 39
  // drop-listed statistics at SF 0.0005); both lookups of each of their
  // 933 filter and join columns, through the shipped one-pass view and
  // the sorted-key reference.
  const Database db = TunedTpcdMix();
  const Workload w = ComplexQueries(db);
  StatsCatalog catalog(&db);
  const Optimizer optimizer(&db);
  MnsaConfig mnsa_d;
  mnsa_d.drop_detection = true;
  std::vector<ColumnRef> columns;
  for (const Query* q : w.Queries()) {
    RunMnsa(optimizer, &catalog, *q, mnsa_d);
    for (const FilterPredicate& f : q->filters()) columns.push_back(f.column);
    for (const JoinPredicate& j : q->joins()) {
      columns.push_back(j.left);
      columns.push_back(j.right);
    }
  }
  std::vector<std::vector<ColumnId>> sets;
  for (const ColumnRef& c : columns) sets.push_back({c.column});
  const StatsView view(&catalog);

  bool matches = true;
  for (size_t i = 0; i < columns.size(); ++i) {
    const ColumnRef c = columns[i];
    int len = -1, ref_len = -1;
    matches = matches &&
              view.HistogramFor(c) ==
                  testing::ReferenceHistogramFor(view, c) &&
              view.DensityFor(c.table, sets[i], &len) ==
                  testing::ReferenceDensityFor(view, c.table, sets[i],
                                               &ref_len) &&
              len == ref_len;
  }
  json->Add("view_lookup_ref_matches", matches ? 1.0 : 0.0);

  // Microseconds per lookup over `reps` sweeps; the shipped lookups get
  // more sweeps so both timings run for tens of milliseconds.
  const Statistic* volatile sink = nullptr;
  auto us_per_lookup = [&](bool reference, int reps) {
    const double ms = BestMs([&] {
      int len = 0;
      for (int r = 0; r < reps; ++r) {
        for (size_t i = 0; i < columns.size(); ++i) {
          const ColumnRef c = columns[i];
          sink = reference ? testing::ReferenceHistogramFor(view, c)
                           : view.HistogramFor(c);
          sink = reference ? testing::ReferenceDensityFor(view, c.table,
                                                          sets[i], &len)
                           : view.DensityFor(c.table, sets[i], &len);
        }
      }
    });
    return ms * 1e3 / (2.0 * reps * static_cast<double>(columns.size()));
  };
  const double new_us = us_per_lookup(false, 50);
  const double old_us = us_per_lookup(true, 5);
  (void)sink;
  json->Add("view_lookup_us", new_us);
  json->Add("view_lookup_speedup", new_us > 0 ? old_us / new_us : 0.0);
}

// --- Section 4: executor ---------------------------------------------------

void ExecutorSection(BenchJson* json) {
  // The complex queries planned on the catalog MNSA/D builds over them,
  // each plan executed by the shipped typed kernels and by the
  // Datum-per-cell reference; plans are made once, outside the timing.
  const Database db = TunedTpcdMix();
  const Workload w = ComplexQueries(db);
  const std::vector<const Query*> queries = w.Queries();
  StatsCatalog catalog(&db);
  const Optimizer optimizer(&db);
  MnsaConfig mnsa_d;
  mnsa_d.drop_detection = true;
  for (const Query* q : queries) RunMnsa(optimizer, &catalog, *q, mnsa_d);
  std::vector<Plan> plans;
  for (const Query* q : queries) {
    plans.push_back(
        std::move(optimizer.Optimize(*q, StatsView(&catalog)).plan));
  }
  const CostModel& cost = optimizer.cost_model();
  const Executor executor(&db, cost);
  auto execute = [&](size_t i, bool reference) {
    return reference
               ? testing::ReferenceExecute(db, cost, *queries[i], plans[i])
               : executor.Execute(*queries[i], plans[i]);
  };

  bool matches = true;
  for (size_t i = 0; i < queries.size(); ++i) {
    const ExecResult got = execute(i, false);
    const ExecResult want = execute(i, true);
    matches = matches && got.work_units == want.work_units &&
              got.output_rows == want.output_rows;
  }
  json->Add("exec_ref_matches", matches ? 1.0 : 0.0);

  volatile double sink = 0.0;
  auto sweep = [&](bool reference) {
    double s = 0.0;
    for (size_t i = 0; i < queries.size(); ++i) {
      s += execute(i, reference).work_units;
    }
    sink = s;
  };
  const auto [new_ms, old_ms] =
      BestMsInterleaved([&] { sweep(false); }, [&] { sweep(true); });
  (void)sink;
  json->Add("exec_us_per_query",
            new_ms * 1e3 / static_cast<double>(queries.size()));
  json->Add("exec_speedup", new_ms > 0 ? old_ms / new_ms : 0.0);
}

// --- Section 5: statistic builds -------------------------------------------

void BuildSection(BenchJson* json) {
  // Single-column builds of every column of the tuned TPC-D mix: the
  // column's distribution and its distinct count, through the shipped
  // radix-sort and hash-set kernels and the comparison-sort reference.
  const Database db = TunedTpcdMix();
  std::vector<ColumnRef> columns;
  for (TableId t = 0; t < db.num_tables(); ++t) {
    for (ColumnId c = 0; c < db.table(t).schema().num_columns(); ++c) {
      columns.push_back({t, c});
    }
  }
  auto same_runs = [](const std::vector<ValueFreq>& a,
                      const std::vector<ValueFreq>& b) {
    return std::equal(
        a.begin(), a.end(), b.begin(), b.end(),
        [](const ValueFreq& x, const ValueFreq& y) {
          return std::bit_cast<uint64_t>(x.value) ==
                     std::bit_cast<uint64_t>(y.value) &&
                 std::bit_cast<uint64_t>(x.freq) ==
                     std::bit_cast<uint64_t>(y.freq);
        });
  };
  bool matches = true;
  for (const ColumnRef c : columns) {
    const Table& table = db.table(c.table);
    for (const double fraction : {1.0, 0.25}) {
      matches = matches &&
                same_runs(ColumnDistribution(table, c.column, fraction),
                          testing::ReferenceColumnDistribution(
                              table, c.column, fraction));
    }
    matches = matches &&
              CountDistinctPrefixes(table, {c.column}) ==
                  testing::ReferenceCountDistinctPrefixes(table, {c.column});
  }
  json->Add("build_ref_matches", matches ? 1.0 : 0.0);

  constexpr int kReps = 4;
  volatile double sink = 0.0;
  auto sweep = [&](bool reference) {
    double s = 0.0;
    for (int r = 0; r < kReps; ++r) {
      for (const ColumnRef c : columns) {
        const Table& table = db.table(c.table);
        s += static_cast<double>(
            reference
                ? testing::ReferenceColumnDistribution(table, c.column, 1.0)
                      .size()
                : ColumnDistribution(table, c.column, 1.0).size());
        s += static_cast<double>(
            reference
                ? testing::ReferenceCountDistinctPrefixes(table, {c.column})
                      .front()
                : CountDistinctPrefixes(table, {c.column}).front());
      }
    }
    sink = s;
  };
  const auto [new_ms, old_ms] =
      BestMsInterleaved([&] { sweep(false); }, [&] { sweep(true); });
  (void)sink;
  json->Add("build_us_per_column",
            new_ms * 1e3 / (kReps * static_cast<double>(columns.size())));
  json->Add("build_speedup", new_ms > 0 ? old_ms / new_ms : 0.0);
}

// --- Section 6: WAL checksum ------------------------------------------------

// The bytewise CRC-32 (one table lookup per byte) that the slice-by-8
// Crc32 replaced.
uint32_t RefCrc32(const unsigned char* p, size_t len) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void CrcSection(BenchJson* json) {
  std::vector<unsigned char> buf(size_t{1} << 20);
  Rng rng(0xC4C);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Next());
  volatile uint32_t sink = 0;
  const auto [new_ms, old_ms] = BestMsInterleaved(
      [&] {
        for (int r = 0; r < 8; ++r) sink = Crc32(buf.data(), buf.size());
      },
      [&] {
        for (int r = 0; r < 8; ++r) sink = RefCrc32(buf.data(), buf.size());
      });
  (void)sink;
  json->Add("crc_speedup", new_ms > 0 ? old_ms / new_ms : 0.0);
}

// --- Section 7: optimizer call accounting ----------------------------------

void ProbeSection(BenchJson* json) {
  TwoTableDb t = MakeTwoTableDb(4000, 100);
  StatsCatalog catalog(&t.db);

  // Deterministic call accounting: three identical sweeps over the
  // workload. The counts gate exactly.
  Optimizer optimizer(&t.db);
  Workload w("hotpath");
  w.AddQuery(MakeFilterQuery(t, 30));
  w.AddQuery(MakeJoinQuery(t, 60));
  w.AddQuery(MakeFilterQuery(t, 80, /*group=*/true));
  w.AddQuery(MakeJoinQuery(t, 20));
  for (int round = 0; round < 3; ++round) {
    for (const Query* q : w.Queries()) {
      (void)optimizer.Optimize(*q, StatsView(&catalog));
    }
  }
  json->AddOptimizerCounters("probe", optimizer);

  json->Add("exec_cost_t1", WorkloadExecCost(t.db, catalog, optimizer, w));
}

// --- Section 8: WAL commit path -------------------------------------------

Workload WalWorkload(const TwoTableDb& t) {
  Workload w("wal");
  w.AddQuery(MakeFilterQuery(t, 30));
  for (int i = 0; i < 10; ++i) {
    DmlStatement dml;
    dml.kind = DmlKind::kInsert;
    dml.table = t.fact;
    dml.row_count = 50 + 10 * i;
    dml.seed = static_cast<uint64_t>(100 + i);
    w.AddDml(dml);
  }
  w.AddQuery(MakeJoinQuery(t, 60));
  return w;
}

// Runs the WAL workload (one append + one inline fsync per statement);
// returns wall ms and fills the fsync/append counts from the metrics
// registry.
double RunWalOnce(double* fsyncs, double* appends) {
  namespace fs = std::filesystem;
  const std::string dir = "bench_hotpath.wal.dir";
  std::error_code ec;
  fs::remove_all(dir, ec);

  TwoTableDb t = MakeTwoTableDb(2000, 100);
  const Workload w = WalWorkload(t);
  StatsCatalog catalog(&t.db);
  Result<std::unique_ptr<CatalogDurability>> opened =
      CatalogDurability::Open(&catalog, {.dir = dir});
  if (!opened.ok()) {
    std::fprintf(stderr, "bench_hotpath: durability open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  Optimizer optimizer(&t.db);
  ManagerPolicy policy;
  policy.mode = CreationMode::kMnsaDOnTheFly;
  policy.update_trigger.fraction = 0.01;
  policy.update_trigger.floor = 1;
  policy.update_trigger.incremental = true;
  policy.durability_checkpoint_every = 0;  // no checkpoints: pure commits
  AutoStatsManager manager(&t.db, &catalog, &optimizer, policy);
  manager.AttachDurability(opened->get());

  obs::MetricsRegistry::Instance().ResetAll();
  obs::EnableMetrics(true);
  WallTimer timer;
  RunReport report = manager.Run(w);
  const double ms = timer.ElapsedMs();
  obs::EnableMetrics(false);

  *fsyncs = 0.0;
  *appends = 0.0;
  for (const auto& [name, snap] :
       obs::MetricsRegistry::Instance().HistogramValues()) {
    if (name == "wal_fsync_us") *fsyncs = static_cast<double>(snap.count);
    if (name == "wal_append_us") *appends = static_cast<double>(snap.count);
  }
  if (report.durability_failures != 0) {
    std::fprintf(stderr, "bench_hotpath: durability failures in WAL run\n");
    std::exit(1);
  }
  fs::remove_all(dir, ec);
  return ms;
}

void WalSection(BenchJson* json) {
  double fsyncs = 0.0, appends = 0.0;
  const double ms = RunWalOnce(&fsyncs, &appends);
  json->Add("wal_fsyncs", fsyncs);
  json->Add("wal_appends", appends);
  json->Add("wal_run_ms", ms);

  // One instrumented run's full metric surface (counters, gauges,
  // histogram count/mean/p50/p90/p99) — the PR 5 percentile fields the
  // trajectory records but never gates.
  TwoTableDb t = MakeTwoTableDb(2000, 100);
  const Workload w = WalWorkload(t);
  StatsCatalog catalog(&t.db);
  Optimizer optimizer(&t.db);
  ManagerPolicy policy;
  policy.mode = CreationMode::kMnsaDOnTheFly;
  policy.update_trigger.fraction = 0.01;
  policy.update_trigger.floor = 1;
  policy.update_trigger.incremental = true;
  AutoStatsManager manager(&t.db, &catalog, &optimizer, policy);
  obs::MetricsRegistry::Instance().ResetAll();
  obs::EnableMetrics(true);
  (void)manager.Run(w);
  obs::EnableMetrics(false);
  json->AddMetrics("run");
}

}  // namespace
}  // namespace autostats::bench

int main() {
  using namespace autostats::bench;
  std::setlocale(LC_NUMERIC, "C");  // %.17g must not localize decimal points
  BenchJson json("hotpath");
  HistogramSection(&json);
  EnumeratorSection(&json);
  ViewLookupSection(&json);
  ExecutorSection(&json);
  BuildSection(&json);
  CrcSection(&json);
  ProbeSection(&json);
  WalSection(&json);
  if (!json.Write()) return 1;
  std::printf("bench_hotpath: BENCH_hotpath.json written\n");
  return 0;
}
