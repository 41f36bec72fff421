// FsyncCoordinator: cross-tenant async group commit for the
// AutoStatsServer, and the only code that decides when a deferred journal
// fsync runs.
//
// Without it, every durable tenant pays one physical fsync per processed
// statement, inline on the worker thread — at fleet scale
// (many tenants, shared cores) the workers spend most of their time
// waiting on the disk even though sibling tenants are flushing the same
// device at the same instant.
//
// The coordinator moves the fsync off the commit hot path and shares its
// cost across tenants ("Probably Approximately Optimal Query
// Optimization"'s budgeted-work framing, applied to the commit path):
//
//   - Workers still append + OS-flush one journal record per statement
//     through CatalogDurability::CommitStatement (statement-boundary
//     tearing and per-tenant replay are byte-for-byte unchanged), but each
//     commit invokes the tenant's fsync-deferral hook (stats/durability.h)
//     instead of paying SyncJournal inline.
//   - The hook enqueues the tenant with the coordinator. The
//     coordinator thread coalesces requests — N commits by one tenant,
//     or commits by N tenants, between two passes collapse into one
//     fsync per dirty journal — and runs a flush pass when either the
//     fsync budget allows (budget_per_sec caps passes/sec) or
//     the oldest pending request has waited max_coalesce_us (the
//     durability-lag bound: a committed record is never further than
//     one coalesce window from stable storage while the server lives).
//   - Each member's Flush() runs under that tenant's metrics label,
//     trace sink, and fault scope ("tenant=<name>"), so wal_fsync_us
//     lands in the tenant's series and an injected persistence.fsync
//     kill seals exactly one tenant's writer — per-tenant recovery
//     independence is preserved (pinned by server_test's
//     crash-mid-fsync-batch test).
//
// What changes and what does not: per-tenant journal *content* (and so
// recovery, catalogs, traces) stays a pure function of the tenant's
// statement stream. Only the physical fsync *schedule* becomes
// wall-clock dependent, budgeted across tenants: a crash that also takes
// the OS page cache can lose at most the unsynced tail, and recovery
// truncates to the last durable statement boundary per tenant.
#ifndef AUTOSTATS_SERVER_FSYNC_COORDINATOR_H_
#define AUTOSTATS_SERVER_FSYNC_COORDINATOR_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "stats/durability.h"

namespace autostats {

class FsyncCoordinator {
 public:
  struct Options {
    // Flush passes per second this coordinator may spend (the shared
    // budget).
    // <= 0 means unbudgeted: a pass runs as soon as the coalesce window
    // opens it.
    double budget_per_sec = 0.0;
    // Upper bound on how long a committed-but-unsynced record may wait
    // for coalescing before a pass is forced regardless of budget.
    int max_coalesce_us = 10000;
  };

  struct Member {
    std::string name;                  // tenant name (scope tag)
    CatalogDurability* durability = nullptr;  // not owned
    obs::TraceSink* trace = nullptr;          // not owned
    // When set and spans run in wall mode, each successful pass appends
    // one FsyncPassSpan (begin/end/synced LSN) for this member. Not
    // owned; the sink has its own mutex and outlives the coordinator.
    obs::SpanSink* spans = nullptr;
    // Invoked (from the coordinator thread, no locks held) when a flush
    // fails for a live, unsealed writer — the owner accounts it as a
    // tenant durability failure. Seals are not reported here: the
    // tenant's next commit fails and is accounted by its manager.
    std::function<void(const Status&)> on_flush_error;
  };

  explicit FsyncCoordinator(Options options);
  ~FsyncCoordinator();  // Stops and joins.

  FsyncCoordinator(const FsyncCoordinator&) = delete;
  FsyncCoordinator& operator=(const FsyncCoordinator&) = delete;

  // Registers one durable tenant; returns the id RequestFsync takes.
  // Callable before or after Start() (live tenant add): ids are indices,
  // assigned in registration order and never reused.
  size_t AddMember(Member member);

  // Retires a member (tenant removal or circuit-breaker quarantine): its
  // pending request is dropped and later passes skip it. Blocks until any
  // in-flight pass finishes, so on return no coordinator code holds the
  // member's durability pointer and the owner may retire the object.
  // Must not be called from the coordinator thread (the error callback).
  void DeactivateMember(size_t member);

  // Re-admits a deactivated member around a NEW durability object (tenant
  // reopen / breaker recovery publish a fresh writer for the same
  // directory). The caller must have DeactivateMember'd first.
  void ReactivateMember(size_t member, CatalogDurability* durability);

  // Synchronous final flush of one member on the calling thread, under
  // the member's scopes (the tenant-removal seal). Clears the member's
  // pending request; returns the flush status directly instead of
  // routing it through on_flush_error. OK for an inactive, sealed, or
  // never-dirty member.
  Status FlushMember(size_t member);

  // Spawns the coordinator thread (even with zero members: live-added
  // tenants enqueue work later). Call once.
  void Start();

  // Announces that `member`'s journal owes an fsync (the deferral hook).
  // Thread-safe; requests for the same member coalesce.
  void RequestFsync(size_t member);

  // Forces an immediate pass over everything pending and blocks until
  // the coordinator is idle (Drain's barrier). Safe before Start() —
  // with no thread there is nothing pending.
  void FlushNow();

  // Stops and joins the thread (idempotent). Pending requests are
  // abandoned: CatalogDurability's destructor closes each journal's
  // unsynced tail, and a clean shutdown calls FlushNow() first.
  void Stop();

  // --- Accounting (for tests and bench; monotone, thread-safe) ---
  int64_t passes() const;     // flush passes run
  int64_t requests() const;   // RequestFsync calls observed
  int64_t coalesced() const;  // requests absorbed by an already-dirty member
  int64_t fsyncs() const;     // member Flush() calls issued by passes

 private:
  // Member plus its lifecycle flag; heap-allocated so addresses are
  // stable while AddMember grows the vector under traffic.
  struct MemberState {
    Member member;
    bool active = true;
  };

  void Loop();
  void FlushBatch(const std::vector<size_t>& batch);

  const Options options_;
  std::vector<std::unique_ptr<MemberState>> members_;  // guarded by mu_

  mutable std::mutex mu_;
  std::condition_variable cv_;       // coordinator: work arrived / forced
  std::condition_variable idle_cv_;  // FlushNow: pass finished
  std::set<size_t> dirty_;           // members owing an fsync
  std::chrono::steady_clock::time_point oldest_request_{};
  std::chrono::steady_clock::time_point last_pass_{};
  bool force_ = false;
  bool in_pass_ = false;
  bool stop_ = false;
  bool started_ = false;
  int64_t passes_ = 0;
  int64_t requests_ = 0;
  int64_t coalesced_ = 0;
  int64_t fsyncs_ = 0;
  std::thread thread_;

  // Aggregate (unlabeled) instruments, resolved once at construction.
  obs::Counter* passes_total_;
  obs::Counter* requests_total_;
  obs::Counter* coalesced_total_;
  obs::Histogram* batch_tenants_;
};

}  // namespace autostats

#endif  // AUTOSTATS_SERVER_FSYNC_COORDINATOR_H_
