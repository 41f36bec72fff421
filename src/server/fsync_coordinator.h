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
//   - The coordinator only paces. It knows ids (the server's tenant
//     index), one flush callback per armed id, which ids owe an fsync,
//     and the budget; a pass runs the callback of every dirty id. The
//     server's callback is its one tenant flush routine, which runs under
//     the tenant's metrics label, trace sink and fault scope, so an
//     injected persistence.fsync kill seals exactly one tenant's writer
//     (pinned by server_test's crash-mid-fsync-batch test).
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
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "obs/metrics.h"

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

  explicit FsyncCoordinator(Options options);
  ~FsyncCoordinator();  // Stops and joins.

  FsyncCoordinator(const FsyncCoordinator&) = delete;
  FsyncCoordinator& operator=(const FsyncCoordinator&) = delete;

  // Arms `id` with the callback a pass runs to flush its journal (on the
  // coordinator thread, with no coordinator lock held). Callable before
  // or after Start(); `id` must not be armed already.
  void Activate(size_t id, std::function<void()> flush);

  // Disarms `id` (tenant removal, breaker quarantine): its pending
  // request is dropped and later requests are ignored. Then blocks until
  // any in-flight pass finishes, which may still be running the old
  // callback. On return no pass runs it again, so the owner may replace
  // or destroy whatever the callback reads — this wait is the only
  // synchronization for that state. Must not be called from the
  // coordinator thread, or while holding a lock the callback takes.
  void Deactivate(size_t id);

  // Spawns the coordinator thread (even with nothing armed: live-added
  // tenants enqueue work later). Call once.
  void Start();

  // Announces that `id`'s journal owes an fsync (the deferral hook).
  // Thread-safe; requests for the same id coalesce. Ignored unless armed.
  void RequestFsync(size_t id);

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
  int64_t coalesced() const;  // requests absorbed by an already-dirty id
  int64_t fsyncs() const;     // flush callbacks run by passes

 private:
  void Loop();

  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;       // coordinator: work arrived / forced
  std::condition_variable idle_cv_;  // FlushNow: pass finished
  // Flush callback per armed id, indexed by id (empty = not armed).
  std::vector<std::function<void()>> flush_;
  std::set<size_t> dirty_;           // armed ids owing an fsync
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
