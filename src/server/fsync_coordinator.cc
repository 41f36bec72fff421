#include "server/fsync_coordinator.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/fault.h"

namespace autostats {

namespace {

// The scopes a flush pass holds while touching one tenant's journal:
// wal_fsync_us resolves to "<tenant>/wal_fsync_us", and an injected
// persistence.fsync schedule matched on "tenant=<name>" fires only for
// that tenant. No trace events are emitted on the fsync path today; the
// sink scope keeps any future ones in the right stream.
struct FlushScopes {
  FlushScopes(const std::string& name, obs::TraceSink* sink)
      : metrics_label(name),
        trace_sink(sink),
        fault_scope("tenant=" + name) {}

  obs::ScopedMetricsLabel metrics_label;
  obs::ScopedTraceSink trace_sink;
  ScopedFaultScope fault_scope;
};

}  // namespace

FsyncCoordinator::FsyncCoordinator(Options options)
    : options_(options) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  passes_total_ = reg.GetCounter("server.fsync_passes");
  requests_total_ = reg.GetCounter("server.fsync_requests");
  coalesced_total_ = reg.GetCounter("server.fsync_coalesced");
  batch_tenants_ = reg.GetHistogram("server.fsync_batch_tenants",
                                    obs::LinearBounds(1.0, 1.0, 16));
}

FsyncCoordinator::~FsyncCoordinator() { Stop(); }

size_t FsyncCoordinator::AddMember(Member member) {
  AUTOSTATS_CHECK(member.durability != nullptr && !member.name.empty());
  std::lock_guard<std::mutex> lock(mu_);
  auto state = std::make_unique<MemberState>();
  state->member = std::move(member);
  members_.push_back(std::move(state));
  return members_.size() - 1;
}

void FsyncCoordinator::DeactivateMember(size_t member) {
  std::unique_lock<std::mutex> lock(mu_);
  AUTOSTATS_CHECK(member < members_.size());
  members_[member]->active = false;
  dirty_.erase(member);
  // Wait out any in-flight pass: it may have copied this member's state
  // before the flag flipped, and the caller is about to retire the
  // durability object that copy points at.
  idle_cv_.wait(lock, [&] { return stop_ || !in_pass_; });
}

void FsyncCoordinator::ReactivateMember(size_t member,
                                        CatalogDurability* durability) {
  AUTOSTATS_CHECK(durability != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  AUTOSTATS_CHECK(member < members_.size());
  MemberState& state = *members_[member];
  AUTOSTATS_CHECK(!state.active);
  state.member.durability = durability;
  state.active = true;
}

Status FsyncCoordinator::FlushMember(size_t member) {
  std::string name;
  obs::TraceSink* trace = nullptr;
  CatalogDurability* durability = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    AUTOSTATS_CHECK(member < members_.size());
    MemberState& state = *members_[member];
    if (!state.active) return Status::OK();
    dirty_.erase(member);
    name = state.member.name;
    trace = state.member.trace;
    durability = state.member.durability;
  }
  if (durability->crashed()) return Status::OK();
  FlushScopes scopes(name, trace);
  return durability->Flush();
}

void FsyncCoordinator::Start() {
  AUTOSTATS_CHECK(!started_);
  started_ = true;
  last_pass_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] { Loop(); });
}

void FsyncCoordinator::RequestFsync(size_t member) {
  std::lock_guard<std::mutex> lock(mu_);
  AUTOSTATS_CHECK(member < members_.size());
  if (!members_[member]->active) return;
  ++requests_;
  if (obs::MetricsEnabled()) requests_total_->Add();
  if (!dirty_.insert(member).second) {
    // Already owing: this commit rides the pending fsync — the whole
    // point of the coordinator.
    ++coalesced_;
    if (obs::MetricsEnabled()) coalesced_total_->Add();
    return;
  }
  if (dirty_.size() == 1) {
    oldest_request_ = std::chrono::steady_clock::now();
  }
  cv_.notify_one();
}

void FsyncCoordinator::Loop() {
  const auto budget_interval =
      options_.budget_per_sec > 0.0
          ? std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(1.0 / options_.budget_per_sec))
          : std::chrono::steady_clock::duration::zero();
  const auto coalesce =
      std::chrono::microseconds(std::max(0, options_.max_coalesce_us));

  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (dirty_.empty() && !force_) {
      cv_.wait(lock, [&] { return stop_ || force_ || !dirty_.empty(); });
      continue;
    }
    if (!force_ && !dirty_.empty()) {
      // A pass runs when the budget frees a slot or the oldest pending
      // request hits the coalesce deadline, whichever comes first: the
      // budget shapes the fsync rate, the deadline bounds durability lag.
      const auto due =
          std::min(last_pass_ + budget_interval, oldest_request_ + coalesce);
      if (std::chrono::steady_clock::now() < due) {
        cv_.wait_until(lock, due, [&] { return stop_ || force_; });
        if (stop_) break;
        if (!force_ && std::chrono::steady_clock::now() < due) continue;
      }
    }
    std::vector<size_t> batch(dirty_.begin(), dirty_.end());
    dirty_.clear();
    force_ = false;
    if (batch.empty()) {
      idle_cv_.notify_all();
      continue;
    }
    in_pass_ = true;
    lock.unlock();
    FlushBatch(batch);
    lock.lock();
    in_pass_ = false;
    last_pass_ = std::chrono::steady_clock::now();
    ++passes_;
    fsyncs_ += static_cast<int64_t>(batch.size());
    if (obs::MetricsEnabled()) {
      passes_total_->Add();
      batch_tenants_->Observe(static_cast<double>(batch.size()));
    }
    idle_cv_.notify_all();
  }
}

void FsyncCoordinator::FlushBatch(const std::vector<size_t>& batch) {
  for (size_t id : batch) {
    // Snapshot the member under mu_: AddMember may be growing the vector
    // and a lifecycle op may be deactivating this very member. A member
    // deactivated after this copy is still safe to flush — its durability
    // object outlives the pass (DeactivateMember waits it out).
    std::string name;
    obs::TraceSink* trace = nullptr;
    CatalogDurability* durability = nullptr;
    obs::SpanSink* spans = nullptr;
    std::function<void(const Status&)> on_flush_error;
    {
      std::lock_guard<std::mutex> lock(mu_);
      MemberState& state = *members_[id];
      if (!state.active) continue;
      name = state.member.name;
      trace = state.member.trace;
      durability = state.member.durability;
      spans = state.member.spans;
      on_flush_error = state.member.on_flush_error;
    }
    if (durability->crashed()) continue;  // sealed: only Open() resumes
    FlushScopes scopes(name, trace);
    // Wall-clock spans only: passes are asynchronous, so they have no
    // logical clock and never appear in deterministic recordings.
    const bool span_pass =
        spans != nullptr && obs::SpansEnabled() &&
        obs::CurrentSpanMode() == obs::SpanMode::kWall;
    const double begin_us = span_pass ? obs::SpanNowUs() : 0;
    // The covered LSN comes back from under the writer's lock: the owning
    // worker may be committing the tenant's next statement right now.
    uint64_t synced_lsn = 0;
    const Status s = durability->Flush(&synced_lsn);
    if (span_pass && s.ok()) {
      obs::FsyncPassSpan pass;
      pass.begin = begin_us;
      pass.end = obs::SpanNowUs();
      pass.synced_lsn = synced_lsn;
      spans->AppendFsyncPass(pass);
    }
    // A failed flush on a live writer is a tenant durability failure. A
    // flush that *sealed* the writer (simulated kill) is not double
    // counted here: the tenant's next commit fails and its manager
    // accounts it.
    if (!s.ok() && !durability->crashed() && on_flush_error) {
      on_flush_error(s);
    }
  }
}

void FsyncCoordinator::FlushNow() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!thread_.joinable()) return;  // never started or already stopped
  if (dirty_.empty() && !in_pass_) return;
  force_ = true;
  cv_.notify_all();
  idle_cv_.wait(lock,
                [&] { return stop_ || (dirty_.empty() && !in_pass_); });
}

void FsyncCoordinator::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  idle_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

int64_t FsyncCoordinator::passes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return passes_;
}

int64_t FsyncCoordinator::requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return requests_;
}

int64_t FsyncCoordinator::coalesced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coalesced_;
}

int64_t FsyncCoordinator::fsyncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fsyncs_;
}

}  // namespace autostats
