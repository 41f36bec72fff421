#include "server/autostats_server.h"

#include <algorithm>
#include <filesystem>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/fault.h"

namespace autostats {

namespace {

// All three thread scopes a worker (or a lifecycle op, or a flush) holds
// while touching one tenant's state, as a single stack object.
struct TenantScopes {
  explicit TenantScopes(const std::string& name, obs::TraceSink* sink)
      : metrics_label(name),
        trace_sink(sink),
        fault_scope("tenant=" + name) {}

  obs::ScopedMetricsLabel metrics_label;
  obs::ScopedTraceSink trace_sink;
  ScopedFaultScope fault_scope;
};

// server.tenant_state gauge values (docs/ARCHITECTURE.md §16).
constexpr double kGaugeHealthy = 0.0;
constexpr double kGaugeDegraded = 1.0;
constexpr double kGaugeProbing = 2.0;
constexpr double kGaugeRemoved = 3.0;

bool WallSpans() {
  return obs::SpansEnabled() &&
         obs::CurrentSpanMode() == obs::SpanMode::kWall;
}

}  // namespace

AutoStatsServer::AutoStatsServer(ServerOptions options)
    : options_(options),
      coordinator_(options_.fsync_budget_per_sec > 0.0
                       ? std::make_unique<FsyncCoordinator>(
                             FsyncCoordinator::Options{
                                 options_.fsync_budget_per_sec,
                                 options_.fsync_max_coalesce_us})
                       : nullptr) {
  resolved_workers_ =
      options_.num_workers > 0
          ? options_.num_workers
          : static_cast<int>(std::thread::hardware_concurrency());
  if (resolved_workers_ < 1) resolved_workers_ = 1;

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  ingress_latency_us_ =
      reg.GetHistogram("server.ingress_to_applied_us", obs::LatencyBoundsUs());
  statements_total_ = reg.GetCounter("server.statements");
  backpressure_total_ = reg.GetCounter("server.backpressure_waits");
  rejected_total_ = reg.GetCounter("server.rejected_total");
  shed_total_ = reg.GetCounter("server.shed_total");
  breaker_trips_ = reg.GetCounter("server.breaker_trips");
  breaker_probes_ = reg.GetCounter("server.breaker_probes");
  breaker_recoveries_ = reg.GetCounter("server.breaker_recoveries");
}

AutoStatsServer::~AutoStatsServer() { Stop(); }

AutoStatsServer::Tenant* AutoStatsServer::FindTenantLocked(
    size_t tenant) const {
  return tenant < tenants_.size() ? tenants_[tenant].get() : nullptr;
}

AutoStatsServer::Tenant* AutoStatsServer::FindTenant(size_t tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  return FindTenantLocked(tenant);
}

AutoStatsServer::Tenant* AutoStatsServer::FindTenantOrDie(
    size_t tenant) const {
  Tenant* t = FindTenant(tenant);
  AUTOSTATS_CHECK(t != nullptr);
  return t;
}

size_t AutoStatsServer::AddTenant(const TenantConfig& config) {
  AUTOSTATS_CHECK(config.db != nullptr && !config.name.empty());
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  auto t = std::make_unique<Tenant>();
  {
    // Only AddTenant grows the registry, and lifecycle_mu_ serializes it:
    // the index read here is still the next one when the tenant is
    // published below.
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<Tenant>& other : tenants_) {
      AUTOSTATS_CHECK(other->name != config.name);
    }
    t->index = tenants_.size();
  }
  t->name = config.name;
  t->db = config.db;
  t->config = config;
  // Per-tenant jitter stream: fixed server seed + fixed index = a fixed
  // probe schedule, independent of sibling traffic.
  t->rng = Rng(options_.breaker_seed ^
               (0x9E3779B97F4A7C15ull * static_cast<uint64_t>(t->index + 1)));
  t->report.label = t->name + "/" + CreationModeName(config.policy.mode);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  t->rejected_counter = reg.GetCounter(t->name + "/server.rejected_total");
  t->state_gauge = reg.GetGauge(t->name + "/server.tenant_state");
  // Attach before any traffic: the recorder shadows every trace event
  // (enabled or not) without changing the trace bytes themselves.
  t->trace.set_flight_recorder(&t->flight);
  OpenTenant(t.get());
  if (obs::MetricsEnabled()) t->state_gauge->Set(kGaugeHealthy);

  std::lock_guard<std::mutex> lock(mu_);
  PublishHealthMirrorLocked(t.get());
  tenants_.push_back(std::move(t));
  return tenants_.size() - 1;
}

void AutoStatsServer::OpenTenant(Tenant* t) {
  t->catalog = std::make_unique<StatsCatalog>(t->db);
  t->optimizer = std::make_unique<Optimizer>(t->db);
  t->manager = std::make_unique<AutoStatsManager>(
      t->db, t->catalog.get(), t->optimizer.get(), t->config.policy);
  t->processed = 0;
  ResetBreaker(t);
  if (t->config.durability_dir.empty()) return;

  // Recovery replays the tenant's journal into its catalog: run it under
  // the tenant's scopes so recovery trace events land in the tenant's
  // sink and injected faults can target it.
  TenantScopes scopes(t->name, &t->trace);
  RecoveryInfo info;
  Result<std::unique_ptr<CatalogDurability>> opened = CatalogDurability::Open(
      t->catalog.get(), {.dir = t->config.durability_dir}, &info);
  if (!opened.ok()) {
    // Fail open: the tenant serves in-memory; the failure is visible in
    // its report.
    std::lock_guard<std::mutex> lock(mu_);
    ++t->report.durability_failures;
    return;
  }
  AttachDurability(t, std::move(*opened));
  // Statement numbering (and so a future Resume LSN) continues from what
  // the journal already holds.
  t->processed = info.last_lsn;
}

void AutoStatsServer::AttachDurability(
    Tenant* t, std::unique_ptr<CatalogDurability> durability) {
  t->durability = std::move(durability);
  t->manager->AttachDurability(t->durability.get());
  if (coordinator_ == nullptr) return;
  FsyncCoordinator* coordinator = coordinator_.get();
  const size_t id = t->index;
  coordinator->Activate(id, [this, t] { FlushTenant(t, /*pass=*/true); });
  t->durability->set_fsync_deferral(
      [coordinator, id] { coordinator->RequestFsync(id); });
}

void AutoStatsServer::FlushTenant(Tenant* t, bool pass) {
  // The callback of a pass reads t->durability without a server lock:
  // its owner replaces or destroys the writer only after
  // FsyncCoordinator::Deactivate has waited out every pass (TripBreaker,
  // RemoveTenant), and arms the callback only after installing it.
  CatalogDurability* durability = t->durability.get();
  // Without a live writer nothing is owed: in-memory, removed, or sealed
  // (only Resume or Open write again).
  if (durability == nullptr || durability->crashed()) return;
  TenantScopes scopes(t->name, &t->trace);
  // Passes are asynchronous, so they have no logical clock: pass spans
  // are wall-clock only and never appear in deterministic recordings.
  const bool span = pass && WallSpans();
  const double begin_us = span ? obs::SpanNowUs() : 0;
  // The covered LSN comes back from under the writer's lock: during a
  // pass the owning worker may be committing the next statement.
  uint64_t synced_lsn = 0;
  const Status s = durability->Flush(&synced_lsn);
  if (s.ok()) {
    if (span) {
      t->spans.AppendFsyncPass({.begin = begin_us,
                                .end = obs::SpanNowUs(),
                                .synced_lsn = synced_lsn});
    }
    return;
  }
  // A pass whose flush sealed the writer (simulated kill) is not double
  // counted: the tenant's next commit fails and its manager accounts it.
  if (pass && durability->crashed()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++t->report.durability_failures;
  }
  // A failed pass feeds the breaker and requests a trip the owning worker
  // performs at its next batch boundary (the trip detaches durability —
  // a serial-point action).
  const int threshold = options_.breaker_trip_threshold;
  if (pass && threshold > 0 &&
      t->failure_streak.fetch_add(1, std::memory_order_relaxed) + 1 >=
          threshold) {
    t->trip_requested.store(true, std::memory_order_relaxed);
  }
}

void AutoStatsServer::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    AUTOSTATS_CHECK(!started_);
    started_ = true;
  }
  if (coordinator_ != nullptr) coordinator_->Start();
  workers_.reserve(static_cast<size_t>(resolved_workers_));
  for (int i = 0; i < resolved_workers_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Status AutoStatsServer::SubmitInternal(size_t tenant,
                                       const Statement& statement,
                                       bool block) {
  // Wall-mode span ingress stamp: taken at entry so a backpressure block
  // shows up as ingress -> enqueue, not as queue wait.
  const double ingress_now_us = WallSpans() ? obs::SpanNowUs() : 0;
  // Drain()'s wait is on the pending count: concurrent ingress would
  // re-raise it after the wait and race the per-tenant flushes.
  AUTOSTATS_DCHECK(drains_active_.load(std::memory_order_relaxed) == 0);
  std::unique_lock<std::mutex> lock(mu_);
  Tenant* t = FindTenantLocked(tenant);
  if (t == nullptr) {
    return Status::NotFound("unknown tenant index " + std::to_string(tenant));
  }
  for (;;) {
    if (stopping_) {
      return Status::Unavailable("server stopped");
    }
    switch (t->state) {
      case TenantState::kActive:
        break;
      case TenantState::kDraining:
      case TenantState::kRemoved:
        return Status::NotFound("tenant " + t->name + " removed");
      case TenantState::kReopening:
        return Status::Unavailable("tenant " + t->name + " reopening");
    }
    if (t->health != TenantHealth::kHealthy &&
        t->parked.size() + t->queue.size() >= options_.max_parked_statements) {
      // Quarantine bound: a Degraded tenant holds work instead of doing
      // it; past the bound it sheds instead of parking without limit.
      ++t->shed;
      if (obs::MetricsEnabled()) shed_total_->Add();
      return Status::Unavailable("tenant " + t->name +
                                 " quarantined: parked buffer full");
    }
    if (t->queue.size() < options_.max_queue_depth) break;
    if (!block) {
      ++t->rejected;
      if (obs::MetricsEnabled()) {
        rejected_total_->Add();
        t->rejected_counter->Add();
      }
      return Status::Unavailable("tenant " + t->name + " queue full");
    }
    ++t->backpressure_waits;
    if (obs::MetricsEnabled()) backpressure_total_->Add();
    space_cv_.wait(lock, [&] {
      return t->queue.size() < options_.max_queue_depth ||
             t->state != TenantState::kActive || stopping_;
    });
    // Re-validate everything: the tenant may have been removed, tripped,
    // or the server stopped while we slept.
  }
  QueuedStatement qs;
  qs.stmt = statement;
  qs.enqueued = std::chrono::steady_clock::now();
  // The dense ingress sequence always advances (guarded by mu_), so
  // spans flipped on mid-stream still see stream-position stamps.
  qs.ingress_seq = ++t->submitted_seq;
  if (obs::SpansEnabled()) {
    if (obs::CurrentSpanMode() == obs::SpanMode::kWall) {
      qs.ingress = ingress_now_us;
      qs.enqueue = obs::SpanNowUs();
    } else {
      // Logical mode: ingress == enqueue == stream position. Admission
      // order under mu_ IS the tenant's stream order, so the stamp
      // is a pure function of the stream.
      qs.ingress = static_cast<double>(qs.ingress_seq);
      qs.enqueue = qs.ingress;
    }
  }
  t->queue.push_back(std::move(qs));
  ++pending_;
  if (!t->scheduled) {
    t->scheduled = true;
    ready_.push_back(t);
    work_cv_.notify_one();
  }
  return Status::OK();
}

Status AutoStatsServer::Submit(size_t tenant, const Statement& statement) {
  return SubmitInternal(tenant, statement, /*block=*/true);
}

Status AutoStatsServer::TrySubmit(size_t tenant, const Statement& statement) {
  return SubmitInternal(tenant, statement, /*block=*/false);
}

void AutoStatsServer::WorkerLoop() {
  for (;;) {
    Tenant* t = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || !ready_.empty(); });
      if (stopping_) return;
      t = ready_.front();
      ready_.pop_front();
      // t->scheduled stays true: this worker owns the tenant until it
      // requeues or parks it in RunTenantBatch's epilogue.
    }
    RunTenantBatch(t);
  }
}

AutoStatsManager::Outcome AutoStatsServer::ApplyStatement(
    Tenant* t, const QueuedStatement& qs, double pickup_us, bool replay) {
  const bool spans_on = obs::SpansEnabled();
  const bool spans_wall =
      spans_on && obs::CurrentSpanMode() == obs::SpanMode::kWall;
  obs::SpanScratch scratch;
  const double apply_begin_us = spans_wall ? obs::SpanNowUs() : 0;
  AutoStatsManager::Outcome outcome;
  {
    // The WAL layer reports its append/fsync sub-segments through the
    // thread-local scratch (obs/span.h) while Process runs.
    obs::ScopedSpanScratch span_scope(spans_on ? &scratch : nullptr);
    outcome = t->manager->Process(qs.stmt);
  }
  ++t->processed;
  if (spans_on) {
    obs::StatementSpan span;
    span.stmt = t->processed;
    span.ingress_seq = qs.ingress_seq;
    span.query = qs.stmt.kind == Statement::Kind::kQuery;
    span.replay = replay;
    span.ingress = qs.ingress;
    span.enqueue = qs.enqueue;
    if (spans_wall) {
      span.pickup = pickup_us;
      span.apply_begin = apply_begin_us;
      span.apply_end = obs::SpanNowUs();
    } else {
      // Logical: pickup/apply carry the processed count (== catalog
      // tick == WAL LSN) — a pure function of the tenant's stream.
      span.pickup = static_cast<double>(t->processed);
      span.apply_begin = span.pickup;
      span.apply_end = span.pickup;
    }
    span.wal_append_us = scratch.wal_append_us;
    span.fsync_us = scratch.fsync_us;
    span.fsync_deferred = scratch.fsync_deferred;
    t->spans.Append(span);
  }
  if (options_.post_statement_hook) options_.post_statement_hook(t->index);
  return outcome;
}

void AutoStatsServer::RunTenantBatch(Tenant* t) {
  std::vector<QueuedStatement> batch;
  bool tripped_pending = false;
  bool probe_due_now = false;
  const bool spans_on = obs::SpansEnabled();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Breaker housekeeping happens at the batch boundary — the tenant's
    // serial point — so async fsync-pass failures and out-of-band probe
    // requests act on the owning worker, never on a foreign thread.
    tripped_pending = t->health == TenantHealth::kHealthy &&
                      t->trip_requested.load(std::memory_order_relaxed);
    probe_due_now = t->health == TenantHealth::kDegraded &&
                    t->probe_requested.load(std::memory_order_relaxed);
    const size_t n = std::min(t->queue.size(),
                              static_cast<size_t>(options_.max_batch));
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(t->queue.front()));
      t->queue.pop_front();
    }
  }
  space_cv_.notify_all();
  // Wall-mode pickup stamp: the whole batch left the queue together.
  // (Logical mode stamps pickup per statement with the processed count.)
  const double batch_pickup_us = WallSpans() ? obs::SpanNowUs() : 0;

  if (tripped_pending) {
    TenantScopes scopes(t->name, &t->trace);
    TripBreaker(t, "fsync_pass");
  } else if (probe_due_now) {
    TenantScopes scopes(t->name, &t->trace);
    TryRecoverTenant(t);
  }
  // Owner-thread read: only this worker transitions the tenant's health
  // while it holds the scheduling turn.
  bool degraded = t->health == TenantHealth::kDegraded;

  RunReport local;
  std::vector<QueuedStatement> parked_local;
  // Hands the statements parked so far in THIS batch over to t->parked
  // (with their degraded accounting) — recovery replay swaps t->parked,
  // so anything still in the local buffer when a probe runs would replay
  // never instead of now.
  auto flush_parked = [&] {
    if (parked_local.empty()) return;
    if (spans_on) {
      // Park spans: acknowledged degraded, never applied — stmt 0 and no
      // pickup/apply stamps. Emitted at flush time, which is always
      // before any later statement applies, so the span stream stays in
      // stream order at every batch shape.
      for (const QueuedStatement& qs : parked_local) {
        obs::StatementSpan span;
        span.ingress_seq = qs.ingress_seq;
        span.query = qs.stmt.kind == Statement::Kind::kQuery;
        span.degraded = true;
        span.ingress = qs.ingress;
        span.enqueue = qs.enqueue;
        t->spans.Append(span);
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (QueuedStatement& qs : parked_local) {
      // A parked statement was answered (degraded) at park time; its
      // statistics work lands when it replays, where the num_* counters
      // are compensated so it is never double counted.
      if (qs.stmt.kind == Statement::Kind::kQuery) {
        ++t->report.num_queries;
        ++t->report.degraded_queries;
      } else {
        ++t->report.num_dml;
        ++t->report.degraded_dml;
      }
      t->parked.push_back(std::move(qs));
    }
    parked_local.clear();
  };
  const int threshold = options_.breaker_trip_threshold;
  {
    TenantScopes scopes(t->name, &t->trace);
    for (QueuedStatement& qs : batch) {
      if (degraded) {
        // Logical probe clock: once enough statements were served
        // degraded, run a half-open probe right here in the tenant's
        // serial statement order — probe timing is a bit-exact function
        // of the stream, independent of workers and batching.
        bool recovered = false;
        if (t->degraded_seen >= t->probe_backoff) {
          flush_parked();
          recovered = TryRecoverTenant(t);
        }
        if (recovered) {
          degraded = false;  // recovered: this statement runs durably
        } else {
          // Degraded serving: acknowledge with magic numbers, park the
          // statement for recovery replay, touch neither manager nor WAL.
          ++t->degraded_seen;
          parked_local.push_back(std::move(qs));
          if (obs::MetricsEnabled()) statements_total_->Add();
          continue;
        }
      }
      const AutoStatsManager::Outcome outcome =
          ApplyStatement(t, qs, batch_pickup_us, /*replay=*/false);
      AutoStatsManager::Accumulate(outcome, &local);
      if (obs::MetricsEnabled()) {
        const auto elapsed = std::chrono::steady_clock::now() - qs.enqueued;
        ingress_latency_us_->Observe(
            std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
                elapsed)
                .count());
        statements_total_->Add();
      }
      if (threshold > 0) {
        // Feed the breaker: a sealed WAL (simulated kill) trips at once;
        // durability-commit and build failures trip on a streak.
        const bool sealed =
            t->durability != nullptr && t->durability->crashed();
        const bool failed = sealed || outcome.durability_failures > 0 ||
                            outcome.builds_failed > 0;
        if (failed) {
          const int streak =
              t->failure_streak.fetch_add(1, std::memory_order_relaxed) + 1;
          if (sealed || streak >= threshold) {
            TripBreaker(t, sealed ? "wal_sealed" : "failure_streak");
            degraded = true;  // park the rest of this batch
          }
        } else {
          t->failure_streak.store(0, std::memory_order_relaxed);
        }
      }
    }
  }

  flush_parked();
  {
    std::lock_guard<std::mutex> lock(mu_);
    PublishHealthMirrorLocked(t);
    t->report += local;
    pending_ -= batch.size();
    if (!t->queue.empty()) {
      // Round-robin: more arrived, so requeue behind every ready sibling.
      ready_.push_back(t);
      work_cv_.notify_one();
    } else {
      t->scheduled = false;
    }
  }
  // Space freed above, possibly unscheduled here, possibly nothing left
  // pending: ingress, RemoveTenant, and Drain all wait on space_cv_.
  space_cv_.notify_all();
}

int64_t AutoStatsServer::ProbeBackoff(Tenant* t) {
  const int64_t base =
      std::max<int64_t>(1, options_.breaker_probe_backoff_statements);
  const int64_t cap =
      std::max(base, options_.breaker_probe_backoff_max_statements);
  const int shift = std::min(t->probe_attempts, 16);
  int64_t delay = base << shift;
  if (delay <= 0 || delay > cap) delay = cap;
  // Seeded jitter in [0, base): per-tenant deterministic, but distinct
  // tenants probe at distinct offsets instead of stampeding together.
  delay += static_cast<int64_t>(
      t->rng.NextU64(static_cast<uint64_t>(base)));
  return delay;
}

void AutoStatsServer::ResetBreaker(Tenant* t) {
  t->failure_streak.store(0, std::memory_order_relaxed);
  t->trip_requested.store(false, std::memory_order_relaxed);
  t->probe_requested.store(false, std::memory_order_relaxed);
  t->probe_attempts = 0;
  t->degraded_seen = 0;
  t->probe_backoff = 0;
}

void AutoStatsServer::TripBreaker(Tenant* t, const char* cause) {
  if (t->durability != nullptr) {
    // Quarantine the WAL exactly where it is: no further appends, no
    // retries on a path that keeps failing. Resume() supersedes it on
    // recovery with a full snapshot of the live catalog.
    t->durability->Seal();
    t->manager->AttachDurability(nullptr);
    // Blocks out any in-flight pass; must not hold mu_ here (a failed
    // pass's flush takes it).
    if (coordinator_ != nullptr) coordinator_->Deactivate(t->index);
  }
  // After the deactivation: a pass that failed meanwhile may have fed
  // the streak and requested this very trip.
  ResetBreaker(t);
  t->probe_backoff = ProbeBackoff(t);
  int64_t trips = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    t->health = TenantHealth::kDegraded;
    trips = ++t->trips;
    PublishHealthMirrorLocked(t);
  }
  if (obs::MetricsEnabled()) {
    breaker_trips_->Add();
    t->state_gauge->Set(kGaugeDegraded);
  }
  obs::TraceEvent("tenant.lifecycle")
      .Str("event", "breaker_trip")
      .Str("cause", cause)
      .Int("processed", static_cast<int64_t>(t->processed))
      .Int("trips", trips);
  // Post-mortem: the flight ring now ends at the trip event above. The
  // dump is I/O outside every lock and emits no trace events of its own
  // (the recorded bytes must match the PR 7 trace contract exactly).
  if (!options_.flight_dump_dir.empty()) DumpFlightOnTrip(t, trips);
}

bool AutoStatsServer::TryRecoverTenant(Tenant* t) {
  t->probe_requested.store(false, std::memory_order_relaxed);
  int64_t probes = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    t->health = TenantHealth::kProbing;
    probes = ++t->probes;
  }
  if (obs::MetricsEnabled()) {
    breaker_probes_->Add();
    t->state_gauge->Set(kGaugeProbing);
  }
  obs::TraceEvent("tenant.lifecycle")
      .Str("event", "breaker_probe")
      .Int("attempt", t->probe_attempts + 1)
      .Int("probes", probes);

  // Fence BEFORE Resume so the published snapshot carries the fences:
  // every statistic is pending_full_rebuild until the policy rebuilds it
  // — degraded-mode staleness can never masquerade as exact. The sealed
  // writer (deactivated at the trip) is released first; Resume opens a
  // fresh one on the same directory. An in-memory tenant (build-failure
  // trip) has nothing to resume, but the fences still mark everything
  // for rebuild.
  t->durability.reset();
  t->catalog->FlagAllPendingFullRebuild();
  bool resumed_ok = true;
  if (!t->config.durability_dir.empty()) {
    // The half-open probe: Resume publishes a full snapshot of the live
    // catalog and a fresh journal, superseding the sealed one, through
    // the same fault-gated path as any checkpoint. A still-failing disk
    // fails here, and the tenant stays quarantined.
    Result<std::unique_ptr<CatalogDurability>> resumed =
        CatalogDurability::Resume(t->catalog.get(),
                                  {.dir = t->config.durability_dir},
                                  t->processed);
    resumed_ok = resumed.ok();
    if (resumed_ok) AttachDurability(t, std::move(*resumed));
  }

  if (!resumed_ok) {
    ++t->probe_attempts;
    t->degraded_seen = 0;
    t->probe_backoff = ProbeBackoff(t);
    {
      std::lock_guard<std::mutex> lock(mu_);
      t->health = TenantHealth::kDegraded;
      PublishHealthMirrorLocked(t);
    }
    if (obs::MetricsEnabled()) t->state_gauge->Set(kGaugeDegraded);
    obs::TraceEvent("tenant.lifecycle")
        .Str("event", "breaker_probe_failed")
        .Int("attempt", t->probe_attempts);
    return false;
  }

  // Re-admission: replay everything served degraded through the manager,
  // oldest first. New arrivals land in the queue behind us (this thread
  // owns the tenant), so stream order is preserved end to end.
  std::deque<QueuedStatement> parked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    parked.swap(t->parked);
  }
  // Wall-mode pickup stamp: the parked statements left their buffer
  // together, like a batch leaving the queue.
  const double pickup_us = WallSpans() ? obs::SpanNowUs() : 0;
  RunReport replay;
  int64_t replayed_queries = 0;
  int64_t replayed_dml = 0;
  for (const QueuedStatement& qs : parked) {
    // Replay span: the park record (degraded=true) already told the
    // admission story, so this one carries the apply/WAL segments under
    // the original ingress identity.
    const AutoStatsManager::Outcome outcome =
        ApplyStatement(t, qs, pickup_us, /*replay=*/true);
    if (outcome.was_query) {
      ++replayed_queries;
    } else {
      ++replayed_dml;
    }
    AutoStatsManager::Accumulate(outcome, &replay);
  }
  // The parked statements were already counted (as degraded) when they
  // were parked; keep the replayed work but compensate the stream counts.
  replay.num_queries -= replayed_queries;
  replay.num_dml -= replayed_dml;

  ResetBreaker(t);
  int64_t recoveries = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    t->report += replay;
    t->health = TenantHealth::kHealthy;
    recoveries = ++t->recoveries;
    PublishHealthMirrorLocked(t);
  }
  if (obs::MetricsEnabled()) {
    breaker_recoveries_->Add();
    t->state_gauge->Set(kGaugeHealthy);
  }
  obs::TraceEvent("tenant.lifecycle")
      .Str("event", "breaker_recovered")
      .Int("replayed", static_cast<int64_t>(parked.size()))
      .Int("recoveries", recoveries);
  return true;
}

Status AutoStatsServer::RemoveTenant(size_t tenant) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  Tenant* t = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    t = FindTenantLocked(tenant);
    if (t == nullptr) {
      return Status::NotFound("unknown tenant index " +
                              std::to_string(tenant));
    }
    if (t->state != TenantState::kActive) {
      return Status::FailedPrecondition("tenant " + t->name +
                                        " is not active");
    }
    // Admission flips to kNotFound here; siblings are untouched.
    t->state = TenantState::kDraining;
    space_cv_.wait(lock, [&] {
      return (t->queue.empty() && !t->scheduled) || !started_ || stopping_;
    });
    if (!started_ || stopping_) {
      // No workers will drain the queue; removal drops it.
      pending_ -= t->queue.size();
      t->queue.clear();
    }
  }

  // Leave the coordinator first, so no later pass touches the writer that
  // dies below; then pay any fsync still owed here, on this thread.
  if (coordinator_ != nullptr) coordinator_->Deactivate(t->index);
  FlushTenant(t, /*pass=*/false);
  {
    TenantScopes scopes(t->name, &t->trace);
    obs::TraceEvent("tenant.lifecycle")
        .Str("event", "remove")
        .Int("processed", static_cast<int64_t>(t->processed))
        .Int("parked_dropped", static_cast<int64_t>(t->parked.size()));
    // Destruction order matters: durability is the catalog's mutation
    // listener (its destructor closes the journal under these scopes).
    t->durability.reset();
  }
  t->manager.reset();
  t->optimizer.reset();
  t->catalog.reset();
  {
    std::lock_guard<std::mutex> lock(mu_);
    t->parked.clear();
    t->state = TenantState::kRemoved;
    t->health = TenantHealth::kHealthy;
    PublishHealthMirrorLocked(t);
  }
  if (obs::MetricsEnabled()) t->state_gauge->Set(kGaugeRemoved);
  return Status::OK();
}

Status AutoStatsServer::ReopenTenant(size_t tenant) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  Tenant* t = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    t = FindTenantLocked(tenant);
    if (t == nullptr) {
      return Status::NotFound("unknown tenant index " +
                              std::to_string(tenant));
    }
    if (t->state != TenantState::kRemoved) {
      return Status::FailedPrecondition("tenant " + t->name +
                                        " is not removed");
    }
    t->state = TenantState::kReopening;
  }

  OpenTenant(t);
  {
    TenantScopes scopes(t->name, &t->trace);
    obs::TraceEvent("tenant.lifecycle")
        .Str("event", "reopen")
        .Int("recovered_lsn", static_cast<int64_t>(t->processed));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    t->state = TenantState::kActive;
    t->health = TenantHealth::kHealthy;
    PublishHealthMirrorLocked(t);
  }
  if (obs::MetricsEnabled()) t->state_gauge->Set(kGaugeHealthy);
  return Status::OK();
}

Status AutoStatsServer::ProbeTenant(size_t tenant) {
  Tenant* t = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    t = FindTenantLocked(tenant);
    if (t == nullptr) {
      return Status::NotFound("unknown tenant index " +
                              std::to_string(tenant));
    }
    if (t->state != TenantState::kActive) {
      return Status::FailedPrecondition("tenant " + t->name +
                                        " is not active");
    }
    if (t->health == TenantHealth::kHealthy) return Status::OK();
    if (t->scheduled) {
      // A worker owns the tenant; request an out-of-band probe it runs
      // at its next batch boundary instead of waiting out the backoff.
      t->probe_requested.store(true, std::memory_order_relaxed);
      return Status::Unavailable("tenant " + t->name +
                                 " busy; probe scheduled");
    }
    // Queue empty (an unscheduled tenant has no queued work): claim the
    // scheduling turn exactly like a worker would.
    t->scheduled = true;
  }
  bool recovered = false;
  {
    TenantScopes scopes(t->name, &t->trace);
    recovered = TryRecoverTenant(t);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    t->scheduled = false;
    if (!t->queue.empty()) {
      // Arrivals landed while we held the turn; hand them to a worker.
      t->scheduled = true;
      ready_.push_back(t);
      work_cv_.notify_one();
    }
  }
  space_cv_.notify_all();
  return recovered ? Status::OK()
                   : Status::Unavailable("tenant " + t->name +
                                         " probe failed");
}

void AutoStatsServer::Drain() {
  drains_active_.fetch_add(1, std::memory_order_relaxed);
  std::vector<Tenant*> tenants;
  {
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock, [&] { return pending_ == 0 || stopping_; });
    if (stopping_) {
      drains_active_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    for (const std::unique_ptr<Tenant>& t : tenants_) {
      tenants.push_back(t.get());
    }
  }
  // Quiesce the fsync coordinator first: every deferred fsync the drained
  // statements requested is paid before the per-tenant retry below, so a
  // tenant whose flush fails is accounted exactly once.
  if (coordinator_ != nullptr) coordinator_->FlushNow();
  // Retry any fsync a durable tenant still owes (an inline or coordinator
  // fsync that failed leaves the window open). pending == 0 means no
  // worker holds any tenant (the decrement happens in the batch
  // epilogue), so touching tenant state from here is safe while ingress
  // and lifecycle stay quiescent. A quarantined tenant's WAL is sealed —
  // its parked statements stay parked until a probe recovers it.
  for (Tenant* t : tenants) {
    FlushTenant(t, /*pass=*/false);
    // Drain is quiescent, so this thread owns every tenant: refresh the
    // health mirror so a post-drain Health() shows the settled WAL lag.
    std::lock_guard<std::mutex> lock(mu_);
    PublishHealthMirrorLocked(t);
  }
  drains_active_.fetch_sub(1, std::memory_order_relaxed);
}

void AutoStatsServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  // Stopped without mu_ held — a final pass's flush may take it.
  if (coordinator_ != nullptr) coordinator_->Stop();
}

size_t AutoStatsServer::num_tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

const std::string& AutoStatsServer::tenant_name(size_t tenant) const {
  return FindTenantOrDie(tenant)->name;
}

const StatsCatalog& AutoStatsServer::catalog(size_t tenant) const {
  const Tenant* t = FindTenantOrDie(tenant);
  AUTOSTATS_CHECK(t->catalog != nullptr);  // removed tenants have none
  return *t->catalog;
}

const obs::TraceSink& AutoStatsServer::trace(size_t tenant) const {
  return FindTenantOrDie(tenant)->trace;
}

RunReport AutoStatsServer::Report(size_t tenant) const {
  const Tenant* t = FindTenantOrDie(tenant);
  std::lock_guard<std::mutex> lock(mu_);
  return t->report;
}

int64_t AutoStatsServer::backpressure_waits(size_t tenant) const {
  const Tenant* t = FindTenantOrDie(tenant);
  std::lock_guard<std::mutex> lock(mu_);
  return t->backpressure_waits;
}

int64_t AutoStatsServer::rejected_total(size_t tenant) const {
  const Tenant* t = FindTenantOrDie(tenant);
  std::lock_guard<std::mutex> lock(mu_);
  return t->rejected;
}

int64_t AutoStatsServer::shed_total(size_t tenant) const {
  const Tenant* t = FindTenantOrDie(tenant);
  std::lock_guard<std::mutex> lock(mu_);
  return t->shed;
}

const CatalogDurability* AutoStatsServer::durability(size_t tenant) const {
  return FindTenantOrDie(tenant)->durability.get();
}

TenantState AutoStatsServer::tenant_state(size_t tenant) const {
  const Tenant* t = FindTenantOrDie(tenant);
  std::lock_guard<std::mutex> lock(mu_);
  return t->state;
}

TenantHealth AutoStatsServer::tenant_health(size_t tenant) const {
  const Tenant* t = FindTenantOrDie(tenant);
  std::lock_guard<std::mutex> lock(mu_);
  return t->health;
}

int64_t AutoStatsServer::breaker_trips(size_t tenant) const {
  const Tenant* t = FindTenantOrDie(tenant);
  std::lock_guard<std::mutex> lock(mu_);
  return t->trips;
}

int64_t AutoStatsServer::breaker_probes(size_t tenant) const {
  const Tenant* t = FindTenantOrDie(tenant);
  std::lock_guard<std::mutex> lock(mu_);
  return t->probes;
}

int64_t AutoStatsServer::breaker_recoveries(size_t tenant) const {
  const Tenant* t = FindTenantOrDie(tenant);
  std::lock_guard<std::mutex> lock(mu_);
  return t->recoveries;
}

size_t AutoStatsServer::parked_statements(size_t tenant) const {
  const Tenant* t = FindTenantOrDie(tenant);
  std::lock_guard<std::mutex> lock(mu_);
  return t->parked.size();
}

const obs::SpanSink& AutoStatsServer::spans(size_t tenant) const {
  return FindTenantOrDie(tenant)->spans;
}

void AutoStatsServer::PublishHealthMirrorLocked(Tenant* t) {
  t->mirror.processed = t->processed;
  if (t->durability != nullptr) {
    t->mirror.durable = true;
    t->mirror.wal_sealed = t->durability->crashed();
    t->mirror.wal_last_lsn = t->durability->last_committed_lsn();
    t->mirror.wal_unsynced = t->durability->unsynced_appends();
  } else {
    // No live writer. A quarantined tenant's directory holds a sealed
    // WAL (the trip sealed it before detaching), so keep that fact on
    // display; the last-known LSN stays, the live-lag field clears.
    t->mirror.durable = false;
    t->mirror.wal_unsynced = 0;
    if (t->health != TenantHealth::kHealthy) t->mirror.wal_sealed = true;
  }
}

std::vector<std::pair<std::string, int64_t>>
AutoStatsServer::TenantMetricValues(const Tenant* t) const {
  std::vector<std::pair<std::string, int64_t>> out;
  const std::string prefix = t->name + "/";
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  for (const auto& [name, value] : reg.CounterValues()) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      out.emplace_back(name, value);
    }
  }
  for (const auto& [name, value] : reg.GaugeValues()) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      out.emplace_back(name, value);
    }
  }
  return out;
}

void AutoStatsServer::DumpFlightOnTrip(Tenant* t, int64_t trip_number) {
  std::error_code ec;
  std::filesystem::create_directories(options_.flight_dump_dir, ec);
  const std::string path = options_.flight_dump_dir + "/" + t->name +
                           ".trip" + std::to_string(trip_number) +
                           ".flight.jsonl";
  // Best effort: a post-mortem dump must never take the tenant down
  // with it. Failure is visible as the file's absence.
  t->flight.DumpToFile(path, t->name, "breaker_trip", TenantMetricValues(t));
}

namespace {

const char* TenantStateName(TenantState s) {
  switch (s) {
    case TenantState::kActive: return "active";
    case TenantState::kDraining: return "draining";
    case TenantState::kRemoved: return "removed";
    case TenantState::kReopening: return "reopening";
  }
  return "unknown";
}

const char* TenantHealthName(TenantHealth h) {
  switch (h) {
    case TenantHealth::kHealthy: return "healthy";
    case TenantHealth::kDegraded: return "degraded";
    case TenantHealth::kProbing: return "probing";
  }
  return "unknown";
}

}  // namespace

HealthSnapshot AutoStatsServer::Health() {
  const auto now = std::chrono::steady_clock::now();
  const size_t n = num_tenants();
  HealthSnapshot snap;
  snap.tenants.reserve(n);
  std::vector<HealthWindow> cum(n);
  for (size_t i = 0; i < n; ++i) {
    const Tenant* t = nullptr;
    TenantHealthSnapshot ts;
    {
      // Everything here is mu_-guarded shared state or the
      // owner-thread mirror published at the last batch epilogue /
      // lifecycle transition — never the live durability pointer.
      std::lock_guard<std::mutex> lock(mu_);
      t = tenants_[i].get();
      ts.name = t->name;
      ts.state = TenantStateName(t->state);
      ts.health = TenantHealthName(t->health);
      ts.queue_depth = t->queue.size();
      ts.parked = t->parked.size();
      ts.submitted = t->submitted_seq;
      ts.processed = t->mirror.processed;
      ts.rejected = t->rejected;
      ts.shed = t->shed;
      ts.backpressure_waits = t->backpressure_waits;
      ts.trips = t->trips;
      ts.probes = t->probes;
      ts.recoveries = t->recoveries;
      ts.durable = t->mirror.durable;
      ts.wal_sealed = t->mirror.wal_sealed;
      ts.wal_last_lsn = t->mirror.wal_last_lsn;
      ts.wal_unsynced = t->mirror.wal_unsynced;
      cum[i].processed = t->mirror.processed;
      cum[i].shed = t->shed;
      cum[i].rejected = t->rejected;
      cum[i].parked_seen =
          t->report.degraded_queries + t->report.degraded_dml;
    }
    // The span ring has its own mutex; read it off mu_.
    ts.attribution = t->spans.Attribution();
    snap.tenants.push_back(std::move(ts));
  }

  // Rolling window: rates are deltas against the previous Health() call
  // on this server, zero on the first (or across a sub-ns window).
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    double window = 0;
    if (health_called_) {
      window = std::chrono::duration<double>(now - health_prev_time_).count();
    }
    for (size_t i = 0; i < n; ++i) {
      TenantHealthSnapshot& ts = snap.tenants[i];
      ts.window_seconds = window;
      if (window > 0) {
        HealthWindow prev;  // zero for a tenant added since the last call
        auto it = health_prev_.find(i);
        if (it != health_prev_.end()) prev = it->second;
        ts.processed_per_sec =
            static_cast<double>(cum[i].processed - prev.processed) / window;
        ts.shed_per_sec =
            static_cast<double>(cum[i].shed - prev.shed) / window;
        ts.rejected_per_sec =
            static_cast<double>(cum[i].rejected - prev.rejected) / window;
        ts.park_per_sec =
            static_cast<double>(cum[i].parked_seen - prev.parked_seen) /
            window;
      }
      health_prev_[i] = cum[i];
    }
    health_prev_time_ = now;
    health_called_ = true;
  }

  std::sort(snap.tenants.begin(), snap.tenants.end(),
            [](const TenantHealthSnapshot& a, const TenantHealthSnapshot& b) {
              return a.name < b.name;
            });
  for (const TenantHealthSnapshot& ts : snap.tenants) {
    if (ts.state == "active") ++snap.active;
    if (ts.state == "draining") ++snap.draining;
    if (ts.state == "removed") ++snap.removed;
    if (ts.state == "reopening") ++snap.reopening;
    if (ts.health == "degraded") ++snap.degraded;
    if (ts.health == "probing") ++snap.probing;
    snap.queue_depth_total += ts.queue_depth;
  }
  return snap;
}

Status AutoStatsServer::DumpTenant(size_t tenant, const std::string& path) {
  Tenant* t = FindTenant(tenant);
  if (t == nullptr) {
    return Status::NotFound("unknown tenant index " + std::to_string(tenant));
  }
  if (!t->flight.DumpToFile(path, t->name, "manual", TenantMetricValues(t))) {
    return Status::Internal("flight dump failed: " + path);
  }
  return Status::OK();
}

}  // namespace autostats
