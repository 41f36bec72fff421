// Deterministic fault injection for the online statistics loop. Fallible
// operations gate themselves on a named *injection point* (PokeFault); a
// test or bench arms a point with a seeded schedule — fail the Nth hit,
// fail with probability p, or spike latency — and the operation observes
// an injected non-OK Status exactly as it would a real I/O or build
// failure. Disarmed (the production state) a poke is a single relaxed
// atomic load; no point state is touched and behavior is bit-identical to
// a binary without the layer.
//
// Determinism contract: schedules are driven by per-point hit counters and
// a per-point seeded Rng, and every fallible operation of a statement runs
// on the calling thread in program order, so the set of operations that
// fail under a given schedule is a pure function of the workload —
// independent of timing.
//
// The registered injection points (see AllFaultPoints() and the table in
// docs/ARCHITECTURE.md §9):
//
//   stats.create      building a new statistic from data
//   stats.refresh     full rebuild of a statistic during update triggering
//   persistence.save  writing the statistics catalog to disk
//   persistence.load  restoring the statistics catalog from disk
//   optimizer.probe   an MNSA / Shrinking Set optimizer probe
//   dml.apply         applying a DML statement to the live database
//   stats.delta       recording a DML statement's delta sketch (a firing
//                     poisons the table's delta; the DML itself proceeds)
//   persistence.append   appending a record to the catalog write-ahead
//                        journal (stats/durability.*)
//   persistence.fsync    flushing a journal record or snapshot to stable
//                        storage
//   persistence.rename   atomically publishing a snapshot or fresh journal
//
// The three persistence.* points additionally understand *simulated kill*
// schedules (FaultSchedule::torn_write_bytes >= 0, read through
// PokeFaultCrash): the writer persists exactly that many bytes of the
// in-flight frame and then behaves as if the process died — modeling a
// torn write followed by crash recovery.
#ifndef AUTOSTATS_COMMON_FAULT_H_
#define AUTOSTATS_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace autostats {

namespace faults {
inline constexpr char kStatsCreate[] = "stats.create";
inline constexpr char kStatsRefresh[] = "stats.refresh";
inline constexpr char kPersistenceSave[] = "persistence.save";
inline constexpr char kPersistenceLoad[] = "persistence.load";
inline constexpr char kOptimizerProbe[] = "optimizer.probe";
inline constexpr char kDmlApply[] = "dml.apply";
inline constexpr char kStatsDelta[] = "stats.delta";
inline constexpr char kPersistenceAppend[] = "persistence.append";
inline constexpr char kPersistenceFsync[] = "persistence.fsync";
inline constexpr char kPersistenceRename[] = "persistence.rename";
}  // namespace faults

// Every registered injection point, for schedule sweeps in tests.
const std::vector<std::string>& AllFaultPoints();

enum class FaultKind {
  kFailNth,          // fail eligible hits n with nth <= n < nth + count
  kFailProbability,  // fail each eligible hit with `probability` (seeded)
  kLatencySpike,     // sleep `latency_micros` on the kFailNth window; no error
};

struct FaultSchedule {
  FaultKind kind = FaultKind::kFailNth;
  // kFailNth / kLatencySpike: 1-based index of the first eligible hit that
  // fires, and how many consecutive eligible hits fire from there
  // (INT64_MAX = forever).
  int64_t nth = 1;
  int64_t count = 1;
  // kFailProbability: per-eligible-hit failure probability and the seed of
  // the point's private Bernoulli stream.
  double probability = 0.0;
  uint64_t seed = 0;
  // kLatencySpike: injected delay per firing hit.
  int latency_micros = 0;
  // Fire only on hits whose detail string contains this substring (empty
  // matches every hit). Lets a test make a specific statistic key
  // permanently unbuildable.
  std::string match;
  // The code of the injected error.
  StatusCode code = StatusCode::kInternal;
  // Simulated process kill for durability writers polling through
  // PokeFaultCrash: when >= 0 and the schedule fires, the writer persists
  // exactly this many bytes of the in-flight frame (clamped to its size)
  // before "dying" — it seals itself and every later write fails without
  // touching disk, until the state is reopened through crash recovery.
  // -1 (the default) injects a plain recoverable I/O failure instead.
  int64_t torn_write_bytes = -1;
};

struct FaultPointStats {
  int64_t hits = 0;      // pokes observed while any point was armed
  int64_t eligible = 0;  // hits passing the schedule's match filter
  int64_t fires = 0;     // injected failures (or latency spikes)
};

namespace fault_internal {
extern std::atomic<bool> g_armed;
}  // namespace fault_internal

// True while at least one injection point is armed.
inline bool FaultsArmed() {
  return fault_internal::g_armed.load(std::memory_order_relaxed);
}

// Thread-local scope tag composed into every poke's match detail for the
// scope's lifetime: while a worker runs tenant t03's statements under
// ScopedFaultScope("tenant=t03"), a schedule armed with match
// "tenant=t03" fires only on that tenant's operations — and because each
// tenant's statements are processed serially, the schedule's eligible-hit
// counter advances in that tenant's own statement order, keeping firings
// deterministic even under concurrent multi-tenant traffic. Scopes nest
// (the previous tag is restored on destruction); the tag is prepended as
// "<tag>|<detail>", so existing detail-substring filters (statistic keys)
// keep matching.
class ScopedFaultScope {
 public:
  explicit ScopedFaultScope(std::string tag);
  ~ScopedFaultScope();
  ScopedFaultScope(const ScopedFaultScope&) = delete;
  ScopedFaultScope& operator=(const ScopedFaultScope&) = delete;

  // This thread's active tag ("" = unscoped).
  static const std::string& Current();

 private:
  std::string prev_;
};

// The process-wide injection registry. All methods are thread-safe.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Arms `point` with `schedule` (replacing any previous schedule and
  // resetting the point's counters and Bernoulli stream).
  void Arm(const std::string& point, FaultSchedule schedule);
  void Disarm(const std::string& point);
  // Disarms every point and clears all counters — the state tests must
  // restore before returning.
  void Reset();

  // Slow path of PokeFault; call only when FaultsArmed(). When the firing
  // schedule carries torn_write_bytes >= 0 and `torn_write_bytes` is
  // non-null, the budget is written through it (it is left untouched
  // otherwise — callers initialize it to -1).
  Status Poke(const char* point, const char* detail,
              int64_t* torn_write_bytes = nullptr);

  FaultPointStats PointStats(const std::string& point) const;
  int64_t TotalFires() const;

 private:
  FaultInjector() = default;

  struct PointState {
    FaultSchedule schedule;
    bool armed = false;
    Rng rng{0};
    FaultPointStats stats;
  };

  mutable std::mutex mutex_;
  std::map<std::string, PointState> points_;
};

// The gate fallible operations call. `detail` is free-form context (e.g. a
// statistic key) matched against the schedule's `match` filter; nullptr
// means "no detail". Returns OK unless an armed schedule fires.
inline Status PokeFault(const char* point, const char* detail = nullptr) {
  if (!FaultsArmed()) return Status::OK();
  return FaultInjector::Instance().Poke(point, detail);
}

// Crash-aware gate for the durability write path. Identical to PokeFault
// except that a firing schedule with torn_write_bytes >= 0 reports its
// byte budget through *torn_write_bytes: the caller must persist exactly
// that many bytes of the in-flight frame, then stop acting like a live
// process (see CatalogDurability in stats/durability.h). On OK and on
// plain failures *torn_write_bytes is -1.
inline Status PokeFaultCrash(const char* point, const char* detail,
                             int64_t* torn_write_bytes) {
  *torn_write_bytes = -1;
  if (!FaultsArmed()) return Status::OK();
  return FaultInjector::Instance().Poke(point, detail, torn_write_bytes);
}

// Bounded retry with exponential backoff — the first rung of the
// degradation ladder (retry -> stale statistic -> magic numbers).
struct RetryPolicy {
  int max_attempts = 3;  // total attempts, including the first
  int initial_backoff_micros = 100;
  double backoff_multiplier = 2.0;
};

// Delay before re-attempt number `attempt` (1-based re-attempts).
int64_t BackoffDelayMicros(const RetryPolicy& policy, int attempt);
// Sleeps that delay (no-op for non-positive delays).
void BackoffSleep(const RetryPolicy& policy, int attempt);

// Invokes `attempt` until it returns OK or `policy.max_attempts` attempts
// are spent, sleeping the backoff between attempts. Adds the number of
// re-attempts to *retries (may be null). Returns the final status.
Status RetryWithBackoff(const RetryPolicy& policy,
                        const std::function<Status()>& attempt,
                        int64_t* retries = nullptr);

}  // namespace autostats

#endif  // AUTOSTATS_COMMON_FAULT_H_
