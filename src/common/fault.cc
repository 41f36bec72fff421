#include "common/fault.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/trace.h"

namespace autostats {

namespace fault_internal {
std::atomic<bool> g_armed{false};
}  // namespace fault_internal

const std::vector<std::string>& AllFaultPoints() {
  static const std::vector<std::string> kPoints = {
      faults::kStatsCreate,       faults::kStatsRefresh,
      faults::kPersistenceSave,   faults::kPersistenceLoad,
      faults::kOptimizerProbe,    faults::kDmlApply,
      faults::kStatsDelta,        faults::kPersistenceAppend,
      faults::kPersistenceFsync,  faults::kPersistenceRename,
  };
  return kPoints;
}

namespace {
thread_local std::string t_fault_scope;
}  // namespace

ScopedFaultScope::ScopedFaultScope(std::string tag) : prev_(t_fault_scope) {
  t_fault_scope = std::move(tag);
}

ScopedFaultScope::~ScopedFaultScope() { t_fault_scope = prev_; }

const std::string& ScopedFaultScope::Current() { return t_fault_scope; }

FaultInjector& FaultInjector::Instance() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(const std::string& point, FaultSchedule schedule) {
  std::lock_guard<std::mutex> lock(mutex_);
  PointState& state = points_[point];
  state.schedule = std::move(schedule);
  state.armed = true;
  state.rng = Rng(state.schedule.seed);
  state.stats = FaultPointStats{};
  fault_internal::g_armed.store(true, std::memory_order_relaxed);
}

void FaultInjector::Disarm(const std::string& point) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(point);
  if (it != points_.end()) it->second.armed = false;
  bool any = false;
  for (const auto& [name, state] : points_) any |= state.armed;
  fault_internal::g_armed.store(any, std::memory_order_relaxed);
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  points_.clear();
  fault_internal::g_armed.store(false, std::memory_order_relaxed);
}

Status FaultInjector::Poke(const char* point, const char* detail,
                           int64_t* torn_write_bytes) {
  // Compose the thread's fault scope tag (ScopedFaultScope) into the
  // detail the schedule's match filter sees: "<tag>|<detail>". Substring
  // matching keeps both plain detail filters and scope filters working.
  std::string scoped_detail;
  if (!t_fault_scope.empty()) {
    scoped_detail = t_fault_scope;
    scoped_detail += '|';
    if (detail != nullptr) scoped_detail += detail;
    detail = scoped_detail.c_str();
  }
  int latency_micros = 0;
  bool fired = false;
  int64_t fire_index = 0;
  Status injected = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = points_.find(point);
    if (it == points_.end() || !it->second.armed) {
      // Another point is armed; record the hit for observability only.
      if (it != points_.end()) ++it->second.stats.hits;
      return Status::OK();
    }
    PointState& state = it->second;
    const FaultSchedule& s = state.schedule;
    ++state.stats.hits;
    if (!s.match.empty() &&
        (detail == nullptr || std::strstr(detail, s.match.c_str()) ==
                                  nullptr)) {
      return Status::OK();
    }
    const int64_t n = ++state.stats.eligible;  // 1-based eligible hit index
    bool fire = false;
    switch (s.kind) {
      case FaultKind::kFailNth:
      case FaultKind::kLatencySpike:
        fire = n >= s.nth && (s.count == INT64_MAX || n < s.nth + s.count);
        break;
      case FaultKind::kFailProbability:
        fire = state.rng.NextBool(s.probability);
        break;
    }
    if (!fire) return Status::OK();
    ++state.stats.fires;
    fired = true;
    fire_index = n;
    if (s.kind == FaultKind::kLatencySpike) {
      latency_micros = s.latency_micros;
    } else {
      if (torn_write_bytes != nullptr && s.torn_write_bytes >= 0) {
        *torn_write_bytes = s.torn_write_bytes;
      }
      injected = Status(
          s.code, std::string("injected fault at ") + point +
                      (detail != nullptr && detail[0] != '\0'
                           ? std::string(" (") + detail + ")"
                           : std::string()));
    }
  }
  // Emitted outside the injector mutex. Pokes run on the calling thread
  // in program order, so firings are decision points like any other and
  // the event order is fixed by the workload.
  if (fired && obs::TraceActive()) {
    obs::TraceEvent("fault.fire")
        .Str("point", point)
        .Str("detail", detail != nullptr ? detail : "")
        .Int("eligible_hit", fire_index)
        .Bool("latency_spike", latency_micros > 0);
  }
  if (latency_micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(latency_micros));
  }
  return injected;
}

FaultPointStats FaultInjector::PointStats(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(point);
  return it == points_.end() ? FaultPointStats{} : it->second.stats;
}

int64_t FaultInjector::TotalFires() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t total = 0;
  for (const auto& [name, state] : points_) total += state.stats.fires;
  return total;
}

int64_t BackoffDelayMicros(const RetryPolicy& policy, int attempt) {
  if (policy.initial_backoff_micros <= 0 || attempt < 1) return 0;
  double delay = policy.initial_backoff_micros;
  for (int i = 1; i < attempt; ++i) {
    delay *= std::max(policy.backoff_multiplier, 1.0);
  }
  return static_cast<int64_t>(delay);
}

void BackoffSleep(const RetryPolicy& policy, int attempt) {
  const int64_t micros = BackoffDelayMicros(policy, attempt);
  if (micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

Status RetryWithBackoff(const RetryPolicy& policy,
                        const std::function<Status()>& attempt,
                        int64_t* retries) {
  const int attempts = std::max(policy.max_attempts, 1);
  Status last;
  for (int i = 0; i < attempts; ++i) {
    if (i > 0) {
      BackoffSleep(policy, i);
      if (retries != nullptr) ++(*retries);
    }
    last = attempt();
    if (last.ok()) return last;
  }
  return last;
}

}  // namespace autostats
