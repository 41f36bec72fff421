// MetricsRegistry: process-wide counters, gauges, and fixed-bucket
// histograms for the statistics-management hot paths (optimizer probe
// latency split real-vs-cache-hit, statistic build cost, merge-vs-full
// refresh cost, WAL append/fsync/checkpoint latency, plan-cache
// occupancy).
//
// Design constraints, in order:
//   1. Near-zero overhead when disabled: every instrumentation site
//      first checks MetricsEnabled(), a single relaxed atomic load
//      (the same pattern as FaultsArmed() in common/fault.h). No
//      timing, no allocation, no lock when metrics are off.
//   2. Thread-safe when enabled: all instruments are plain atomics;
//      Observe/Add never take the registry lock. The lock only guards
//      registration (first lookup per site, typically cached in a
//      function-local static) and snapshotting.
//   3. Deterministic exports: snapshots iterate a std::map, so the
//      BenchJson and Prometheus dumps list metrics in name order
//      regardless of registration order or thread count. (Latency
//      *values* are wall-clock and thus not deterministic; anything
//      that must be bit-identical across runs belongs in the trace
//      layer, obs/trace.h, not here.)
//
// Instruments live forever once registered (the registry is a leaky
// Meyers singleton and Reset() zeroes values without invalidating
// pointers), so call sites may cache Counter*/Histogram* in statics.
#ifndef AUTOSTATS_OBS_METRICS_H_
#define AUTOSTATS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace autostats {
namespace obs {

namespace internal {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal

// One relaxed load; the only cost instrumentation pays when disabled.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

// Flips collection on/off. Off is the default; bench_policies and the
// observability tests turn it on explicitly.
void EnableMetrics(bool on);

// Monotonic event count (probe calls, cache hits, ...).
class Counter {
 public:
  void Add(int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Last-write-wins instantaneous value (plan-cache occupancy).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Fixed-bucket histogram: `bounds` are ascending inclusive upper edges;
// an implicit +inf bucket catches the tail. Observe() is lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  struct Snapshot {
    int64_t count = 0;
    double sum = 0.0;
    // Observations past the last edge (the implicit +inf bucket). The
    // buckets vector still carries them as its final entry; this field
    // just makes a clipped distribution — edges chosen too low for the
    // data — distinguishable from a legitimate tail at a glance.
    int64_t overflow = 0;
    std::vector<double> bounds;    // upper edges, ascending
    std::vector<int64_t> buckets;  // bounds.size() + 1 entries
    // Linear interpolation within the winning bucket; q in [0,1].
    // Returns 0 for an empty histogram.
    double Percentile(double q) const;
    double Mean() const { return count > 0 ? sum / count : 0.0; }
  };
  Snapshot Snap() const;
  // Observations that landed past the last edge so far.
  int64_t Overflow() const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;  // bounds_.size()+1
  std::atomic<int64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // double stored as bits (CAS add)
};

// `count` ascending upper edges starting at `start`, each `factor`
// apart: ExponentialBounds(1, 2, 4) -> {1, 2, 4, 8}.
std::vector<double> ExponentialBounds(double start, double factor, int count);

// `count` ascending upper edges starting at `start`, each `step` apart:
// LinearBounds(1, 1, 4) -> {1, 2, 3, 4}. For small-integer distributions
// (tenants per fsync batch) where exponential edges
// would fold everything into the first bucket.
std::vector<double> LinearBounds(double start, double step, int count);

// Standard edges used by every latency histogram in the catalog:
// 1us .. ~67s in x2 steps (27 edges), +inf tail. Saturated server
// queues wait hundreds of milliseconds, so the top edge sits past a
// minute.
const std::vector<double>& LatencyBoundsUs();

// Standard edges for optimizer cost-unit histograms: 1 .. ~1e6 in x4
// steps (11 edges), +inf tail.
const std::vector<double>& CostBounds();

class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  // Get-or-register. Never returns null; pointers stay valid forever.
  // Re-registering a histogram ignores `bounds` and returns the
  // existing instrument.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds);

  // Zeroes every instrument; registrations (and cached pointers)
  // survive. Tests call this between scenarios.
  void ResetAll();

  // Name-ordered snapshots.
  std::vector<std::pair<std::string, int64_t>> CounterValues() const;
  std::vector<std::pair<std::string, int64_t>> GaugeValues() const;
  std::vector<std::pair<std::string, Histogram::Snapshot>> HistogramValues()
      const;

  // Prometheus text exposition (name-ordered; histograms expand into
  // cumulative `_bucket{le=...}` rows plus `_sum`/`_count`/`_overflow`).
  // Tenant-scoped series — the `<tenant>/<name>` names minted by
  // ScopedMetricsLabel, whose `/` is invalid in the Prometheus data
  // model — are exposed under the sanitized base name with a
  // `tenant="<name>"` label; unlabeled series keep their flat names
  // byte-for-byte. (BenchJson consumes the raw registry names and is
  // untouched by this mapping.)
  std::string PrometheusText() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// --- Instance / tenant label dimension -------------------------------------
//
// Two catalogs in one process (the multi-tenant server) would otherwise
// fold their series into the same instruments. A ScopedMetricsLabel
// prefixes "<label>/" onto every instrument name resolved through the
// GetLabeled* helpers below for the scope's lifetime on this thread, so
// "plan_cache.hits" becomes "t03/plan_cache.hits" while worker code runs
// tenant t03's statements. With no scope active (the default, and every
// pre-existing single-tenant path) names — and the committed baselines
// built on them — are unchanged.
//
// Call sites keep their resolution cheap with a thread_local slot that
// caches the resolved pointer until the thread's label changes:
//
//   obs::Histogram* BuildCostHistogram() {
//     thread_local obs::LabeledSlot<obs::Histogram> slot;
//     return obs::GetLabeledHistogram(slot, "stat_build_cost",
//                                     obs::CostBounds());
//   }
class ScopedMetricsLabel {
 public:
  explicit ScopedMetricsLabel(const std::string& label);
  ~ScopedMetricsLabel();
  ScopedMetricsLabel(const ScopedMetricsLabel&) = delete;
  ScopedMetricsLabel& operator=(const ScopedMetricsLabel&) = delete;

  // This thread's active label ("" = unlabeled) and its change epoch.
  // The epoch starts at 1 and bumps on every scope entry/exit, so a
  // zero-initialized LabeledSlot always resolves on first use.
  static const std::string& Current();
  static uint64_t Epoch();

 private:
  std::string prev_;
};

template <typename T>
struct LabeledSlot {
  uint64_t epoch = 0;  // 0 never matches a real epoch
  T* ptr = nullptr;
};

// Slow paths: registry lookup of "<label>/<name>" (or plain `name` when
// unlabeled). Instrument pointers stay valid forever, so caching them per
// (thread, label-epoch) is safe.
Counter* ResolveLabeledCounter(const char* name);
Gauge* ResolveLabeledGauge(const char* name);
Histogram* ResolveLabeledHistogram(const char* name,
                                   const std::vector<double>& bounds);

inline Counter* GetLabeledCounter(LabeledSlot<Counter>& slot,
                                  const char* name) {
  const uint64_t epoch = ScopedMetricsLabel::Epoch();
  if (slot.epoch != epoch) {
    slot.ptr = ResolveLabeledCounter(name);
    slot.epoch = epoch;
  }
  return slot.ptr;
}

inline Gauge* GetLabeledGauge(LabeledSlot<Gauge>& slot, const char* name) {
  const uint64_t epoch = ScopedMetricsLabel::Epoch();
  if (slot.epoch != epoch) {
    slot.ptr = ResolveLabeledGauge(name);
    slot.epoch = epoch;
  }
  return slot.ptr;
}

inline Histogram* GetLabeledHistogram(LabeledSlot<Histogram>& slot,
                                      const char* name,
                                      const std::vector<double>& bounds) {
  const uint64_t epoch = ScopedMetricsLabel::Epoch();
  if (slot.epoch != epoch) {
    slot.ptr = ResolveLabeledHistogram(name, bounds);
    slot.epoch = epoch;
  }
  return slot.ptr;
}

// Prometheus name/label-value rules, shared with the server health
// exposition (server/health.cc): metric names allow [a-zA-Z0-9_:] (every
// other byte becomes '_'); label values escape backslash, double-quote,
// and newline.
std::string PromSanitizeName(const std::string& name);
std::string PromEscapeLabelValue(const std::string& value);

// Records elapsed wall time in microseconds into `h` on destruction.
// Construction captures MetricsEnabled() once, so a scope that starts
// disabled stays free even if metrics flip on mid-flight.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* h);
  ~ScopedLatency();
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* h_;
  int64_t start_ns_;  // 0 when disabled at construction
};

}  // namespace obs
}  // namespace autostats

#endif  // AUTOSTATS_OBS_METRICS_H_
