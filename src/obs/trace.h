// TraceSink: structured JSONL lifecycle events for every decision the
// statistics manager makes — MNSA probe pairs with both forced-magic
// costs and the t-test verdict, find_next_stat's most-expensive-
// operator rationale, MNSA/D drop-list moves, shrinking-set discard
// verdicts, create/refresh/fence/resurrect transitions in
// StatsCatalog, WAL commit/checkpoint/recovery events, and fault-point
// firings.
//
// Determinism contract (the whole point): two traces taken over the same
// seeded workload are BYTE-IDENTICAL. Three rules make that hold:
//   1. Events are only emitted from decision points, which run on the
//      calling thread in program order. The twin ε/1−ε probes emit
//      nothing; the MNSA loop emits one combined `mnsa.probe_pair`
//      event per pair, in loop order.
//   2. Events carry a logical clock (the manager's statement tick,
//      via SetLogicalClock) and a sink-assigned sequence number —
//      never wall time.
//   3. Floating-point payloads are themselves deterministic (optimizer
//      costs, t-test thresholds) and formatted with a fixed rule.
//
// Overhead contract: when tracing is disabled, constructing a
// TraceEvent costs one relaxed atomic load and touches no heap (the
// builder's std::string member stays in its SSO default state and
// every field append is skipped). observability_test pins this with a
// global-new counting allocator.
//
// Event lines look like:
//   {"seq":17,"clock":4,"type":"stat.create","key":"3:1","cost":812.5}
// `seq` is assigned at append (total order of all events), `clock` is
// the logical statement tick during which the event fired. The trace
// is buffered in memory; examples/stats_explain replays a workload and
// reconstructs per-statistic lifecycles from these lines alone.
#ifndef AUTOSTATS_OBS_TRACE_H_
#define AUTOSTATS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace autostats {
namespace obs {

class FlightRecorder;

namespace internal {
extern std::atomic<bool> g_trace_enabled;
extern std::atomic<bool> g_flight_enabled;  // defined in flight_recorder.cc
}  // namespace internal

// One relaxed load; the only cost instrumentation pays when disabled.
inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

// The guard for TraceEvent call sites: an event must be BUILT when the
// trace is displayed OR a flight recorder wants it buffered
// (flight_recorder.h — production fleets run with display off). Whether
// the sink then *stores* the line is still TraceEnabled() alone, so
// flight recording never changes the visible trace bytes.
inline bool TraceActive() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed) ||
         internal::g_flight_enabled.load(std::memory_order_relaxed);
}

// Flips trace collection on/off (off by default).
void EnableTrace(bool on);

class TraceSink {
 public:
  // A standalone sink (per-tenant trace streams; see ScopedTraceSink).
  // Seq numbering and the logical clock are per-sink, so two catalogs
  // traced into two sinks never interleave or collide.
  TraceSink() = default;

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  // The process-wide default sink (single-tenant tools and tests).
  static TraceSink& Instance();

  // The sink events are appended to on this thread: the innermost active
  // ScopedTraceSink override, or Instance() when none is active.
  static TraceSink& Current();

  // Appends one event. `fields` is the comma-joined key/value body
  // WITHOUT the surrounding braces or the seq/clock prefix; the sink
  // stamps `"seq":N,"clock":C` and wraps it. Thread-safe, but see the
  // determinism contract in the file comment: call sites must be
  // decision points on the statement's own thread for traces to be
  // reproducible.
  void Append(const std::string& fields);

  // The logical clock stamped on subsequent events. AutoStatsManager
  // advances it once per processed statement (StatsCatalog::Tick);
  // recovery restores it from the durable snapshot.
  void SetLogicalClock(uint64_t clock);
  uint64_t LogicalClock() const {
    return clock_.load(std::memory_order_relaxed);
  }

  // Attaches a flight recorder (obs/flight_recorder.h): every appended
  // event line is forwarded to it, verbatim, whether or not trace
  // display is on. The forward never changes what this sink stores, so
  // trace bytes stay identical with or without a recorder. Install
  // before the sink sees traffic; nullptr detaches.
  void set_flight_recorder(FlightRecorder* recorder);

  // Drops all buffered events and resets seq (not the logical clock).
  void Clear();

  size_t NumEvents() const;
  std::vector<std::string> Lines() const;
  // All lines joined with '\n', with a trailing newline when nonempty
  // (the exact JSONL bytes the determinism test diffs).
  std::string Dump() const;
  // Writes Dump() to `path`; returns false on I/O error.
  bool WriteFile(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
  uint64_t next_seq_ = 0;
  std::atomic<uint64_t> clock_{0};
  FlightRecorder* recorder_ = nullptr;  // guarded by mu_
};

// Redirects this thread's trace stream to `sink` for the scope's lifetime
// (restoring the previous override on destruction — scopes nest). The
// multi-tenant server wraps each statement it processes in one of these,
// so every lifecycle event a tenant's catalog emits lands in that
// tenant's own sink with that tenant's own seq numbers and logical
// clock, byte-identical regardless of which worker thread ran it.
// nullptr restores the default Instance() routing.
class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(TraceSink* sink);
  ~ScopedTraceSink();
  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;

 private:
  TraceSink* prev_;
};

// Builder for one event; appends to TraceSink::Current() on
// destruction. Usage:
//   obs::TraceEvent("stat.create").Str("key", key).Num("cost", c);
// When tracing is disabled every method is a no-op and nothing is
// allocated or appended.
class TraceEvent {
 public:
  explicit TraceEvent(const char* type);
  ~TraceEvent();
  TraceEvent(const TraceEvent&) = delete;
  TraceEvent& operator=(const TraceEvent&) = delete;

  TraceEvent& Str(const char* key, const std::string& value);
  TraceEvent& Num(const char* key, double value);
  TraceEvent& Int(const char* key, int64_t value);
  TraceEvent& Bool(const char* key, bool value);

 private:
  bool enabled_;
  std::string body_;
};

// Deterministic number rendering shared by TraceEvent and the
// stats_explain selftest: integers in [-2^53, 2^53] print without a
// decimal point, everything else as %.17g.
std::string TraceFormatNumber(double v);

}  // namespace obs
}  // namespace autostats

#endif  // AUTOSTATS_OBS_TRACE_H_
