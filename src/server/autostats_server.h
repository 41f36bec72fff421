// AutoStatsServer: one statistics-management service hosting N tenant
// databases on a shared worker pool. The paper frames statistics
// management as an unattended background activity beside the server (§6);
// at fleet scale that activity is multiplexed — many databases, one
// budget of cores — so the server owns, per tenant: a StatsCatalog, an
// Optimizer (with its PlanCache), an AutoStatsManager driving the
// configured policy, an optional CatalogDurability (own WAL directory),
// and a private TraceSink. Statement streams arrive on any number of
// ingress threads tagged by tenant; workers drain them.
//
// Scheduling is ONE ready queue: a single mutex guards every tenant's
// queue state, one FIFO of schedulable tenants, and one pending count.
// Workers pop the head tenant, drain up to max_batch of its statements,
// and requeue it at the back if more arrived — plain round-robin across
// ready tenants, so a busy tenant cannot starve its siblings.
//
// Determinism contract (the tentpole invariant, pinned by server_test):
// identical per-tenant statement streams produce bit-identical per-tenant
// catalogs AND byte-identical per-tenant traces at any worker count and
// any ingress interleaving. Two mechanisms make that hold:
//
//   1. Per-tenant serialization. Each tenant has a FIFO queue and is
//      executed by at most one worker at a time (a `scheduled` flag —
//      the actor pattern): a tenant's catalog evolution is a pure
//      function of its own stream, never of sibling traffic or of which
//      worker picked it up.
//   2. Thread-scoped observability. Workers wrap every statement in a
//      ScopedTraceSink (events land in the tenant's sink with its own
//      seq numbers and logical clock), a ScopedMetricsLabel (metric
//      series become "<tenant>/<name>"), and a ScopedFaultScope
//      ("tenant=<name>", so fault schedules can target one tenant and
//      their eligible-hit counters advance in that tenant's own serial
//      statement order — deterministic firing under concurrency).
// Everything a statement does — optimizer probes, MNSA, statistic builds
// — runs on the worker that applies it: the workers are the library's
// only parallelism.
//
// Durability: with fsync_budget_per_sec > 0 the server creates one
// FsyncCoordinator (server/fsync_coordinator.h) when it is constructed
// and starts it in Start(). Durable tenants append + OS-flush their own
// WAL records but defer the physical fsync to the coordinator, which
// coalesces fsyncs across tenants under the shared budget — journal
// content, recovery, and statement-boundary tearing are unchanged; only
// the fsync schedule becomes wall-clock dependent. 0 means no
// coordinator: the per-tenant inline cadence (deterministic fsync
// counts). One routine flushes a tenant's journal under its scopes; the
// coordinator's passes, RemoveTenant and Drain all call it.
//
// Tenant lifecycle (live, under traffic — docs/ARCHITECTURE.md §16):
// AddTenant is callable at any time, including while workers drain other
// tenants. RemoveTenant quiesces exactly one tenant — admission starts
// rejecting with kNotFound, the queue drains, the owed WAL fsync is
// paid — and releases its catalog/manager.
// ReopenTenant rebuilds the tenant from its durability directory
// (bit-identical snapshot + replay recovery, exactness fences included)
// without pausing siblings. States: Active -> Draining -> Removed ->
// Reopening -> Active.
//
// Circuit breakers (per tenant): a failure streak over durability
// commits, statistic builds, and coordinator fsync passes trips the
// tenant Healthy -> Degraded. Degraded serving is in-memory and
// magic-number-only: the WAL is sealed, the manager is frozen, and every
// admitted statement is acknowledged degraded and parked — a permanently
// failing persistence.fsync no longer retries on every statement and
// never blocks the workers. Recovery is by half-open probes on a seeded
// exponential backoff measured in statements served degraded (logical
// time counted by the owning worker, so probe schedules are bit-exact
// functions of the tenant's stream): a probe fences the live catalog
// pending_full_rebuild and re-establishes durability via
// CatalogDurability::Resume (a full snapshot of the authoritative
// in-memory state that supersedes the sealed journal) — then the parked
// statements replay through the manager and the tenant returns Healthy.
// Probe timing from *coordinator* fsync failures is wall-clock shaped
// (the coordinator itself is); with fsync_budget_per_sec == 0 every trip
// and recovery is deterministic.
//
// Admission control: each tenant's queue is bounded
// (ServerOptions::max_queue_depth). Submit() blocks the ingress thread
// until space frees (counting a backpressure wait); TrySubmit() rejects
// instead (counting a rejection, per tenant and on the aggregate
// server.rejected_total counter). Backpressure is per-tenant — a slow
// tenant saturates its own queue, not its siblings'. Both entry points
// return a typed Status: kNotFound for an unknown or removed tenant,
// kUnavailable for a refusal (queue full on TrySubmit, quarantined
// tenant with a full parked buffer, reopening tenant, stopping server) —
// a quarantined tenant answers with a typed error instead of blocking its
// caller.
//
// The tenant registry is a vector under the scheduler mutex: every
// Submit takes that mutex anyway, so a lookup costs no extra lock.
//
// Ordering caveat: the determinism input is each tenant's stream order.
// Submissions for the SAME tenant from multiple ingress threads are
// FIFO in arrival order, which is then a race the caller chose to run.
#ifndef AUTOSTATS_SERVER_AUTOSTATS_SERVER_H_
#define AUTOSTATS_SERVER_AUTOSTATS_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/auto_manager.h"
#include "core/policy.h"
#include "core/report.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "server/health.h"
#include "optimizer/optimizer.h"
#include "query/workload.h"
#include "server/fsync_coordinator.h"
#include "stats/durability.h"
#include "stats/stats_catalog.h"

namespace autostats {

struct ServerOptions {
  // Worker threads draining tenant queues. 0 uses
  // std::thread::hardware_concurrency().
  int num_workers = 0;
  // Per-tenant admission bound: Submit() blocks (TrySubmit() rejects)
  // while a tenant has this many statements queued.
  size_t max_queue_depth = 256;
  // Statements a worker drains from one tenant per scheduling turn
  // before requeueing it behind its siblings (bounds head-of-line
  // latency for other ready tenants).
  int max_batch = 8;
  // Cross-tenant async group commit: flush passes per second the
  // server's FsyncCoordinator may spend on its durable tenants. 0 means
  // no coordinator — every tenant pays its own fsync inline on the
  // worker thread (the deterministic per-tenant cadence).
  double fsync_budget_per_sec = 256.0;
  // Upper bound on how long a committed-but-unsynced WAL record may wait
  // for cross-tenant coalescing (the durability-lag bound).
  int fsync_max_coalesce_us = 10000;
  // Circuit breaker: consecutive failed statements (a durability commit
  // failure, a build that exhausted retries, or a coordinator fsync-pass
  // failure) before a tenant trips Healthy -> Degraded. A sealed WAL
  // (simulated kill) trips immediately. 0 disables the breakers
  // (pre-breaker behavior: durability failures retry forever).
  int breaker_trip_threshold = 3;
  // Half-open probe backoff, measured in statements the tenant serves
  // degraded (logical time): the first probe runs after ~base parked
  // statements, doubling per failed probe up to the max, plus a seeded
  // jitter in [0, base). Counted by the owning worker in the tenant's
  // serial statement order, so probe schedules are deterministic.
  int64_t breaker_probe_backoff_statements = 8;
  int64_t breaker_probe_backoff_max_statements = 64;
  // Seed for the per-tenant probe-jitter stream (tenant index is mixed
  // in); fixed seed + fixed streams = deterministic probe schedule.
  uint64_t breaker_seed = 0x5EEDul;
  // Quarantine bound: statements a Degraded tenant may hold (queued +
  // parked awaiting recovery) before admission sheds with kUnavailable.
  size_t max_parked_statements = 1024;
  // When non-empty, a breaker trip dumps the victim's flight ring to
  // "<dir>/<tenant>.trip<N>.flight.jsonl" (atomic tmp+rename; the dir is
  // created on first use). Empty = dumps only via DumpTenant().
  std::string flight_dump_dir;
  // Test-only observation point: invoked on the worker thread after each
  // processed statement with the tenant's index. With one worker the
  // invocation order is exactly the schedule, which is what the
  // round-robin test pins. Must be thread-safe; must not call
  // back into the server.
  std::function<void(size_t tenant)> post_statement_hook;
};

struct TenantConfig {
  // Metric prefix, trace identity, and fault-scope tag ("tenant=<name>").
  // Must be unique within the server and non-empty.
  std::string name;
  // The tenant's data plane; mutated by its DML statements. Not owned —
  // must outlive the server.
  Database* db = nullptr;
  // Statistics-management policy for this tenant's AutoStatsManager.
  ManagerPolicy policy;
  // When non-empty, the tenant's catalog is crash-safe: a private
  // CatalogDurability opens (and recovers) this directory, and the
  // manager commits one journal record per statement with checkpoints on
  // the policy cadence. Empty = in-memory only.
  std::string durability_dir = {};
};

// Lifecycle state of a tenant slot (indices are never reused).
enum class TenantState { kActive, kDraining, kRemoved, kReopening };
// Circuit-breaker health of an Active tenant. Probing is the transient
// half-open state while a recovery probe runs on the owning worker.
enum class TenantHealth { kHealthy, kDegraded, kProbing };

class AutoStatsServer {
 public:
  explicit AutoStatsServer(ServerOptions options = {});
  // Stops and joins the workers. Queued-but-unprocessed statements are
  // dropped; call Drain() first for a clean shutdown.
  ~AutoStatsServer();

  AutoStatsServer(const AutoStatsServer&) = delete;
  AutoStatsServer& operator=(const AutoStatsServer&) = delete;

  // Registers a tenant and returns its index (the handle Submit takes).
  // Opens durability (running crash recovery under the tenant's trace /
  // metric / fault scopes) when configured; a failed durability open
  // leaves the tenant in-memory only and is reported in the tenant's
  // RunReport as a durability failure. Callable before Start() or LIVE
  // while workers drain other tenants; lifecycle calls (AddTenant /
  // RemoveTenant / ReopenTenant) serialize against each other and must
  // not race Start(), Drain(), or Stop().
  size_t AddTenant(const TenantConfig& config);

  // Quiesces and removes one tenant without pausing siblings: admission
  // flips to kNotFound, the queue drains (the owning worker finishes its
  // batch), the tenant leaves the FsyncCoordinator, its owed fsync is
  // paid on the calling thread, and the catalog/optimizer/manager are
  // released.
  // The index, name, trace, and report survive for ReopenTenant and the
  // accessors below. A Degraded tenant may be removed; its parked
  // statements are dropped. kNotFound for an unknown index,
  // kFailedPrecondition unless the tenant is Active.
  Status RemoveTenant(size_t tenant);

  // Rebuilds a Removed tenant from its TenantConfig: fresh catalog /
  // optimizer / manager, durability recovered bit-identical from
  // snapshot + replay (with the usual exactness fences) under the
  // tenant's scopes, coordinator flush re-armed. The tenant resumes
  // Active and Healthy; its statement numbering continues from the
  // recovered LSN. kFailedPrecondition unless Removed.
  Status ReopenTenant(size_t tenant);

  // Forces a half-open recovery probe on a Degraded tenant NOW (tests,
  // operators, and the chaos harness use this instead of waiting out the
  // logical backoff). OK if the tenant recovered (or was already
  // Healthy); kUnavailable if the probe failed or a worker owns the
  // tenant (the backoff is re-armed / fast-forwarded so the next turn
  // probes); kFailedPrecondition unless Active.
  Status ProbeTenant(size_t tenant);

  // Spawns the worker pool and starts the fsync coordinator. Call once;
  // tenants may be added before or after.
  void Start();

  // Enqueues one statement for `tenant`, blocking while its queue is
  // full (each block counts one backpressure wait). Thread-safe; callable
  // from any number of ingress threads. kNotFound for an unknown or
  // removed tenant; kUnavailable for a reopening tenant, a quarantined
  // tenant whose parked buffer is full (counted as shed), or after
  // Stop().
  Status Submit(size_t tenant, const Statement& statement);
  // Non-blocking admission: kUnavailable when the tenant's queue is full
  // (counted per tenant and on server.rejected_total) or any Submit
  // refusal applies; kNotFound exactly as for Submit.
  Status TrySubmit(size_t tenant, const Statement& statement);

  // Blocks until every submitted statement has been processed or parked,
  // then forces the fsync coordinator through a final pass and retries
  // any fsync a durable tenant still owes through the tenant flush
  // routine. A Degraded tenant's parked statements stay parked —
  // they replay on recovery. Ingress and lifecycle ops must be QUIESCENT
  // (no concurrent Submit / TrySubmit / Add / Remove / Reopen) from
  // before the call until it returns. Debug builds check the ingress
  // precondition and abort on a violation.
  void Drain();

  // Stops and joins the workers and the coordinator (idempotent). Implies
  // no further Submit/Drain; queued statements are not processed.
  void Stop();

  size_t num_tenants() const;
  const std::string& tenant_name(size_t tenant) const;
  // The fsync coordinator; nullptr exactly when fsync_budget_per_sec is 0.
  const FsyncCoordinator* coordinator() const { return coordinator_.get(); }

  // --- Per-tenant state. Only meaningful while quiescent (after Drain
  // or Stop): the catalog and trace are actively mutated by workers. ---

  // CHECKs that the tenant is not Removed (a removed tenant has no
  // catalog until ReopenTenant).
  const StatsCatalog& catalog(size_t tenant) const;
  const obs::TraceSink& trace(size_t tenant) const;
  // Aggregate accounting over every statement processed so far, reduced
  // exactly as AutoStatsManager::Run would (Accumulate per statement).
  // Parked (degraded-served) statements count as degraded queries/DML
  // when parked; their statistics work lands when they replay.
  RunReport Report(size_t tenant) const;
  // Backpressure waits ingress threads have suffered for this tenant.
  int64_t backpressure_waits(size_t tenant) const;
  // TrySubmit rejections this tenant has bounced.
  int64_t rejected_total(size_t tenant) const;
  // Statements shed by quarantine admission (kUnavailable).
  int64_t shed_total(size_t tenant) const;
  // The tenant's durability layer (nullptr when in-memory only, removed,
  // or quarantined awaiting recovery).
  const CatalogDurability* durability(size_t tenant) const;

  // --- Lifecycle / breaker introspection (thread-safe) ---

  TenantState tenant_state(size_t tenant) const;
  TenantHealth tenant_health(size_t tenant) const;
  int64_t breaker_trips(size_t tenant) const;
  int64_t breaker_probes(size_t tenant) const;
  int64_t breaker_recoveries(size_t tenant) const;
  // Statements parked by a Degraded tenant, awaiting recovery replay.
  size_t parked_statements(size_t tenant) const;

  // --- Health plane / flight recorder (thread-safe) ---

  // One name-ordered snapshot of every tenant's SLO surface
  // (server/health.h). Rate fields cover the window since the previous
  // Health() call on this server (zero on the first). Safe under live
  // traffic: reads only mutex-guarded state and the span rings.
  HealthSnapshot Health();

  // Dumps the tenant's flight recorder (recent trace events + metric
  // deltas) to `path` via tmp file + atomic rename. kNotFound for an
  // unknown index; kInternal on I/O failure. Thread-safe.
  Status DumpTenant(size_t tenant, const std::string& path);

  // The tenant's span ring (read-only; its own mutex arbitrates readers
  // against the owning worker).
  const obs::SpanSink& spans(size_t tenant) const;

 private:
  // One admitted statement in a tenant's queue (or parked buffer), with
  // its span identity: ingress_seq is the dense per-tenant submit
  // sequence, ingress/enqueue are the mode-dependent span stamps
  // recorded at admission (obs/span.h; 0 when spans were off).
  struct QueuedStatement {
    Statement stmt;
    std::chrono::steady_clock::time_point enqueued;
    uint64_t ingress_seq = 0;
    double ingress = 0;
    double enqueue = 0;
  };

  struct Tenant {
    size_t index = 0;
    std::string name;
    Database* db = nullptr;
    TenantConfig config;  // retained for ReopenTenant
    std::unique_ptr<StatsCatalog> catalog;
    std::unique_ptr<Optimizer> optimizer;
    std::unique_ptr<AutoStatsManager> manager;
    std::unique_ptr<CatalogDurability> durability;
    obs::TraceSink trace;
    obs::SpanSink spans;        // per-statement causal timelines
    obs::FlightRecorder flight;  // recent trace events for post-mortems
    obs::Counter* rejected_counter = nullptr;  // "<name>/server.rejected_total"
    obs::Gauge* state_gauge = nullptr;         // "<name>/server.tenant_state"

    // Owner-thread state: written only by the thread holding the tenant
    // (the scheduled flag — a worker's batch, or a lifecycle op's claim).
    uint64_t processed = 0;    // statements through the manager == WAL LSN
    int probe_attempts = 0;    // failed half-open probes since the trip
    int64_t degraded_seen = 0;  // statements parked since the last trip/probe
    int64_t probe_backoff = 0;  // degraded_seen budget unlocking a probe
    Rng rng;                   // probe-backoff jitter (seeded, per tenant)

    // Cross-thread breaker feed: the owning worker counts synchronous
    // failures; a failed coordinator pass counts itself and requests a
    // trip the owner performs at its next turn; ProbeTenant requests an
    // out-of-band probe the same way.
    std::atomic<int> failure_streak{0};
    std::atomic<bool> trip_requested{false};
    std::atomic<bool> probe_requested{false};

    // Guarded by the server's mu_:
    std::deque<QueuedStatement> queue;
    bool scheduled = false;  // a worker currently owns this tenant
    TenantState state = TenantState::kActive;
    TenantHealth health = TenantHealth::kHealthy;
    std::deque<QueuedStatement> parked;  // degraded-served, awaiting recovery
    int64_t trips = 0;
    int64_t probes = 0;
    int64_t recoveries = 0;
    RunReport report;
    int64_t backpressure_waits = 0;
    int64_t rejected = 0;
    int64_t shed = 0;
    uint64_t submitted_seq = 0;  // dense span ingress sequence
    // Owner-thread facts mirrored under mu_ so Health() can read
    // them from any thread without racing the owner: published at every
    // batch epilogue and lifecycle/breaker transition.
    struct HealthMirror {
      uint64_t processed = 0;
      bool durable = false;
      bool wal_sealed = false;
      uint64_t wal_last_lsn = 0;
      int64_t wal_unsynced = 0;
    } mirror;
  };

  void WorkerLoop();
  // Drains one batch from `t` (which the caller owns via `scheduled`).
  void RunTenantBatch(Tenant* t);
  Status SubmitInternal(size_t tenant, const Statement& statement,
                        bool block);
  // nullptr when the index is out of range (never-registered tenant).
  // The Locked form requires mu_.
  Tenant* FindTenantLocked(size_t tenant) const;
  Tenant* FindTenant(size_t tenant) const;
  Tenant* FindTenantOrDie(size_t tenant) const;
  // Builds t's catalog, optimizer and manager from its config and opens
  // (recovering) its durability directory, if any, under its scopes.
  // Resets `processed` to the recovered LSN and the breaker state. Shared
  // by AddTenant and ReopenTenant; the caller owns the tenant.
  void OpenTenant(Tenant* t);
  // Makes `durability` t's live writer: the manager commits through it
  // and, with a coordinator, its fsyncs defer to coordinator id t->index.
  void AttachDurability(Tenant* t,
                        std::unique_ptr<CatalogDurability> durability);
  // The one tenant flush, shared by coordinator passes, RemoveTenant and
  // Drain: pays the fsync t's journal owes on the calling thread, under
  // t's scopes, and counts a failure as a durability failure. A pass
  // (`pass`, the coordinator thread) also records a wall-mode
  // FsyncPassSpan and feeds the breaker, and leaves a kill to the
  // tenant's next commit to account.
  void FlushTenant(Tenant* t, bool pass);
  // Applies one admitted statement through t's manager on its owning
  // thread and records its span; shared by batches and recovery replay.
  AutoStatsManager::Outcome ApplyStatement(Tenant* t,
                                           const QueuedStatement& qs,
                                           double pickup_us, bool replay);
  // Zeroes the owner-thread breaker fields (streak, trip and probe
  // requests, probe attempts, backoff clock).
  static void ResetBreaker(Tenant* t);
  // Breaker transitions; the caller owns the tenant and holds its scopes.
  void TripBreaker(Tenant* t, const char* cause);
  bool TryRecoverTenant(Tenant* t);
  int64_t ProbeBackoff(Tenant* t);
  // Refreshes t->mirror from owner-thread state. The caller must own
  // the tenant AND hold mu_ (the mirror's guard).
  void PublishHealthMirrorLocked(Tenant* t);
  // The tenant's "<name>/..." registry series, for flight-recorder
  // metric deltas.
  std::vector<std::pair<std::string, int64_t>> TenantMetricValues(
      const Tenant* t) const;
  // Dumps t->flight to options_.flight_dump_dir (breaker-trip path).
  void DumpFlightOnTrip(Tenant* t, int64_t trip_number);

  const ServerOptions options_;
  int resolved_workers_ = 1;
  std::mutex lifecycle_mu_;  // serializes AddTenant/RemoveTenant/Reopen

  // The scheduler. mu_ guards the tenant registry, every tenant's queue
  // state (the fields marked above), the ready queue, the pending count,
  // and the lifecycle flags below.
  mutable std::mutex mu_;
  // Indexed by tenant index; entries are never removed, so a Tenant*
  // stays valid for the server's lifetime.
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::condition_variable work_cv_;   // workers: ready_ nonempty or stop
  std::condition_variable space_cv_;  // ingress: queue space freed;
                                      // lifecycle: tenant unscheduled;
                                      // Drain: pending_ reached zero
  std::deque<Tenant*> ready_;         // FIFO of schedulable tenants
  size_t pending_ = 0;                // submitted, not yet processed
  bool started_ = false;
  bool stopping_ = false;
  // Set at construction when fsync_budget_per_sec > 0, never changed.
  const std::unique_ptr<FsyncCoordinator> coordinator_;
  std::atomic<int> drains_active_{0};  // Drain-quiescence debug check

  // Health() rolling-window state: the previous call's cumulative
  // counters per tenant index, and when it ran.
  struct HealthWindow {
    uint64_t processed = 0;
    int64_t shed = 0;
    int64_t rejected = 0;
    int64_t parked_seen = 0;  // degraded statements (report accounting)
  };
  std::mutex health_mu_;
  std::map<size_t, HealthWindow> health_prev_;
  std::chrono::steady_clock::time_point health_prev_time_{};
  bool health_called_ = false;

  // Aggregate (unlabeled) instruments, resolved once at construction.
  obs::Histogram* ingress_latency_us_;
  obs::Counter* statements_total_;
  obs::Counter* backpressure_total_;
  obs::Counter* rejected_total_;
  obs::Counter* shed_total_;
  obs::Counter* breaker_trips_;
  obs::Counter* breaker_probes_;
  obs::Counter* breaker_recoveries_;

  // Last: declared after everything the workers use. Stop() joins them.
  std::vector<std::thread> workers_;
};

}  // namespace autostats

#endif  // AUTOSTATS_SERVER_AUTOSTATS_SERVER_H_
