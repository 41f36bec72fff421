// Per-statement span attribution for the multi-tenant server. A span is
// the causal timeline of one admitted statement:
//
//   ingress -> enqueue -> batch pickup -> apply -> WAL append
//           -> (inline fsync | deferred to the fsync coordinator)
//
// with one stamp or duration per segment, collected into a bounded
// per-tenant SpanSink ring. Two modes:
//
//  - kLogical (deterministic): every stamp is an existing logical clock,
//    never wall time. Ingress/enqueue carry the tenant's dense submit
//    sequence (stream position), pickup/apply carry the processed-
//    statement count (== catalog tick == WAL LSN), and the WAL segments
//    count events (appends / inline fsyncs) instead of timing them. Per-
//    tenant statement order is the scheduler's only determinism input
//    (ARCHITECTURE §14), so the span stream — like the trace — is
//    BYTE-IDENTICAL at any worker count and interleaving. The PR 7
//    trace contract itself is untouched: spans live in their own sink.
//  - kWall (profiling): stamps are monotonic microseconds and the WAL
//    segments are real durations; feeds the Perfetto/Chrome trace_event
//    export in examples/stats_mon. Makes no determinism promise.
//
// Overhead contract: when spans are disabled (the default) every
// instrumented site costs one relaxed atomic load and touches no heap —
// the same bar as TraceEvent, pinned by span_test with a counting
// global operator new. When enabled, appending costs one short
// mutex-protected ring push per statement; bench_server gates the
// spans-on throughput at >= 0.95x spans-off (gate.rules).
//
// The WAL layer (stats/durability.cc) cannot see the server's span
// structs, so attribution crosses the layer through a thread-local
// SpanScratch: the worker installs one around Process(), the WAL's
// SpanStage RAII adds its elapsed time (or event count) into whatever
// scratch is active, and the worker folds the scratch into the span it
// appends. No scratch installed (standalone tools, coordinator threads)
// means SpanStage is a no-op.
#ifndef AUTOSTATS_OBS_SPAN_H_
#define AUTOSTATS_OBS_SPAN_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace autostats {
namespace obs {

enum class SpanMode {
  kDisabled = 0,
  kLogical = 1,  // deterministic logical-clock stamps
  kWall = 2,     // monotonic-microsecond stamps
};

namespace internal {
extern std::atomic<int> g_span_mode;
}  // namespace internal

// One relaxed load; the only cost instrumentation pays when disabled.
inline bool SpansEnabled() {
  return internal::g_span_mode.load(std::memory_order_relaxed) !=
         static_cast<int>(SpanMode::kDisabled);
}

SpanMode CurrentSpanMode();
void EnableSpans(SpanMode mode);

// Monotonic wall clock in microseconds (kWall stamps).
double SpanNowUs();

// The causal timeline of one statement. Stamp meaning depends on the
// mode it was recorded under (see file comment); segment durations
// derive as pickup-enqueue (queue wait) and apply_end-apply_begin
// (apply, which contains the WAL sub-segments).
struct StatementSpan {
  uint64_t stmt = 0;         // processed-statement index (== WAL LSN); 0 if parked
  uint64_t ingress_seq = 0;  // dense per-tenant submit sequence (1-based)
  bool query = false;        // statement kind
  bool degraded = false;     // parked by a tripped breaker instead of applied
  bool replay = false;       // parked statement re-applied after recovery
  bool fsync_deferred = false;  // fsync owed to the coordinator, not paid inline
  double ingress = 0;        // Submit() entry
  double enqueue = 0;        // admitted into the tenant's queue
  double pickup = 0;         // drained into a worker batch
  double apply_begin = 0;    // Process() entry
  double apply_end = 0;      // Process() return
  double wal_append_us = 0;  // kWall: time in WAL AppendFrame; kLogical: appends
  double fsync_us = 0;       // kWall: time in inline fsync; kLogical: fsyncs
};

// One coordinator fsync pass as observed by a member tenant (kWall only;
// passes are asynchronous and have no logical clock).
struct FsyncPassSpan {
  double begin = 0;
  double end = 0;
  uint64_t synced_lsn = 0;  // tenant's last LSN the pass left durable
};

// p50/p99 over one span segment, for the tenant health plane.
struct SpanSegmentStats {
  double p50_us = 0;
  double p99_us = 0;
};

// Per-segment attribution breakdown over the sink's current window.
struct SpanAttribution {
  int64_t spans = 0;
  SpanSegmentStats queue_wait;   // pickup - enqueue
  SpanSegmentStats apply;        // apply_end - apply_begin
  SpanSegmentStats wal_append;   // wal_append_us
  SpanSegmentStats fsync;        // fsync_us
};

// Bounded ring of recent spans for one tenant. Appends come only from
// the tenant's owning worker (per-tenant serialization), fsync-pass
// appends from the server's coordinator thread; a mutex arbitrates the
// rare overlap and the cross-thread readers (health snapshots, dumps).
class SpanSink {
 public:
  SpanSink() = default;
  SpanSink(const SpanSink&) = delete;
  SpanSink& operator=(const SpanSink&) = delete;

  // Ring capacity (oldest spans dropped past it). Set before traffic.
  void set_capacity(size_t spans, size_t passes = 256);

  void Append(const StatementSpan& span);
  void AppendFsyncPass(const FsyncPassSpan& pass);
  void Clear();

  size_t NumSpans() const;
  size_t NumFsyncPasses() const;
  uint64_t dropped() const;
  std::vector<StatementSpan> Spans() const;
  std::vector<FsyncPassSpan> FsyncPasses() const;

  // One JSONL line per span, in append order, trailing newline when
  // nonempty — the exact bytes the logical-mode determinism test diffs.
  // Numbers render with TraceFormatNumber (trace.h), so logical stamps
  // print as bare integers.
  std::string DumpJsonl() const;

  // Percentile breakdown over the spans currently in the ring (degraded
  // park records excluded — they never reached apply).
  SpanAttribution Attribution() const;

 private:
  mutable std::mutex mu_;
  std::deque<StatementSpan> spans_;
  std::deque<FsyncPassSpan> passes_;
  size_t capacity_ = 4096;
  size_t pass_capacity_ = 256;
  uint64_t dropped_ = 0;
};

// ---- WAL-layer attribution (thread-local scratch) -------------------------

// Accumulates the WAL sub-segments of the statement currently being
// applied on this thread.
struct SpanScratch {
  double wal_append_us = 0;
  double fsync_us = 0;
  bool fsync_deferred = false;
};

// The scratch installed on this thread, or nullptr.
SpanScratch* ActiveSpanScratch();

// Installs `scratch` as this thread's active scratch for the scope's
// lifetime (nesting restores the previous one; nullptr deactivates).
class ScopedSpanScratch {
 public:
  explicit ScopedSpanScratch(SpanScratch* scratch);
  ~ScopedSpanScratch();
  ScopedSpanScratch(const ScopedSpanScratch&) = delete;
  ScopedSpanScratch& operator=(const ScopedSpanScratch&) = delete;

 private:
  SpanScratch* prev_;
};

// RAII timer for one WAL stage, placed by durability.cc beside its
// latency histograms. Into the active scratch it adds elapsed
// microseconds (kWall) or 1 per entry (kLogical — an event count, so
// the value stays deterministic). Inert when spans are disabled or no
// scratch is installed.
class SpanStage {
 public:
  enum Kind { kWalAppend, kFsync };
  explicit SpanStage(Kind kind);
  ~SpanStage();
  SpanStage(const SpanStage&) = delete;
  SpanStage& operator=(const SpanStage&) = delete;

 private:
  SpanScratch* scratch_;
  Kind kind_;
  bool wall_;
  double start_us_ = 0;
};

// Marks the in-flight statement's fsync as deferred to the coordinator.
void SpanNoteFsyncDeferred();

// ---- Perfetto export ------------------------------------------------------

// One tenant's spans for the Perfetto/Chrome trace_event export.
struct TenantSpans {
  std::string name;
  std::vector<StatementSpan> spans;
  std::vector<FsyncPassSpan> passes;
};

// Renders kWall-mode spans as Chrome trace_event JSON ("X" complete
// events; one track per tenant, fsync passes on a sibling track), the
// format chrome://tracing and ui.perfetto.dev load directly. Logical
// stamps are unit-less, so callers should only feed kWall recordings.
std::string SpansToPerfettoJson(const std::vector<TenantSpans>& tenants);

}  // namespace obs
}  // namespace autostats

#endif  // AUTOSTATS_OBS_SPAN_H_
