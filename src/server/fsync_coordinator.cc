#include "server/fsync_coordinator.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace autostats {

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

void FsyncCoordinator::Activate(size_t id, std::function<void()> flush) {
  AUTOSTATS_CHECK(flush != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= flush_.size()) flush_.resize(id + 1);
  AUTOSTATS_CHECK(flush_[id] == nullptr);
  flush_[id] = std::move(flush);
}

void FsyncCoordinator::Deactivate(size_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  if (id < flush_.size()) flush_[id] = nullptr;
  dirty_.erase(id);
  // Wait out any in-flight pass: it copied the callback before it was
  // disarmed, and the caller is about to retire what the callback reads.
  idle_cv_.wait(lock, [&] { return !in_pass_; });
}

void FsyncCoordinator::Start() {
  AUTOSTATS_CHECK(!started_);
  started_ = true;
  last_pass_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] { Loop(); });
}

void FsyncCoordinator::RequestFsync(size_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= flush_.size() || flush_[id] == nullptr) return;
  ++requests_;
  if (obs::MetricsEnabled()) requests_total_->Add();
  if (!dirty_.insert(id).second) {
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
    // Every dirty id is armed: Deactivate erases the id it disarms.
    std::vector<std::function<void()>> batch;
    batch.reserve(dirty_.size());
    for (size_t id : dirty_) batch.push_back(flush_[id]);
    dirty_.clear();
    force_ = false;
    if (batch.empty()) {
      idle_cv_.notify_all();
      continue;
    }
    in_pass_ = true;
    lock.unlock();
    for (const std::function<void()>& flush : batch) flush();
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
