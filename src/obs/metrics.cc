#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/str_util.h"

namespace autostats {
namespace obs {

namespace internal {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace internal

void EnableMetrics(bool on) {
  internal::g_metrics_enabled.store(on, std::memory_order_release);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<int64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double v) {
  const size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // CAS-loop double add; std::atomic<double>::fetch_add is C++20 but
  // spotty across libstdc++ versions, and this is not the hot part of
  // Observe anyway.
  uint64_t old_bits = sum_bits_.load(std::memory_order_relaxed);
  double old_sum, new_sum;
  uint64_t new_bits;
  do {
    std::memcpy(&old_sum, &old_bits, sizeof(double));
    new_sum = old_sum + v;
    std::memcpy(&new_bits, &new_sum, sizeof(double));
  } while (!sum_bits_.compare_exchange_weak(old_bits, new_bits,
                                            std::memory_order_relaxed));
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot s;
  s.bounds = bounds_;
  s.buckets.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  s.overflow = s.buckets[bounds_.size()];
  s.count = count_.load(std::memory_order_relaxed);
  const uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  std::memcpy(&s.sum, &bits, sizeof(double));
  return s;
}

int64_t Histogram::Overflow() const {
  return buckets_[bounds_.size()].load(std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

double Histogram::Snapshot::Percentile(double q) const {
  if (count <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count);
  int64_t cum = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const int64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= target) {
      // Interpolate inside bucket i: [lo, hi] where lo is the previous
      // edge (or 0 for the first bucket) and hi its own upper edge. The
      // overflow bucket has no upper edge; report its lower one.
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      if (i >= bounds.size()) return lo;
      const double hi = bounds[i];
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
    cum += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::vector<double> ExponentialBounds(double start, double factor, int count) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(count));
  double v = start;
  for (int i = 0; i < count; ++i) {
    out.push_back(v);
    v *= factor;
  }
  return out;
}

std::vector<double> LinearBounds(double start, double step, int count) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(count));
  double v = start;
  for (int i = 0; i < count; ++i) {
    out.push_back(v);
    v += step;
  }
  return out;
}

const std::vector<double>& LatencyBoundsUs() {
  static const std::vector<double> kBounds = ExponentialBounds(1.0, 2.0, 27);
  return kBounds;
}

const std::vector<double>& CostBounds() {
  static const std::vector<double> kBounds = ExponentialBounds(1.0, 4.0, 11);
  return kBounds;
}

namespace {
thread_local std::string t_metrics_label;
// Starts at 1 so a zero-initialized LabeledSlot resolves on first use.
thread_local uint64_t t_metrics_label_epoch = 1;

std::string LabeledName(const char* name) {
  if (t_metrics_label.empty()) return name;
  std::string out = t_metrics_label;
  out += '/';
  out += name;
  return out;
}
}  // namespace

ScopedMetricsLabel::ScopedMetricsLabel(const std::string& label)
    : prev_(t_metrics_label) {
  t_metrics_label = label;
  ++t_metrics_label_epoch;
}

ScopedMetricsLabel::~ScopedMetricsLabel() {
  t_metrics_label = prev_;
  ++t_metrics_label_epoch;
}

const std::string& ScopedMetricsLabel::Current() { return t_metrics_label; }

uint64_t ScopedMetricsLabel::Epoch() { return t_metrics_label_epoch; }

Counter* ResolveLabeledCounter(const char* name) {
  return MetricsRegistry::Instance().GetCounter(LabeledName(name));
}

Gauge* ResolveLabeledGauge(const char* name) {
  return MetricsRegistry::Instance().GetGauge(LabeledName(name));
}

Histogram* ResolveLabeledHistogram(const char* name,
                                   const std::vector<double>& bounds) {
  return MetricsRegistry::Instance().GetHistogram(LabeledName(name), bounds);
}

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(bounds);
  return slot.get();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->Value());
  return out;
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::GaugeValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->Value());
  return out;
}

std::vector<std::pair<std::string, Histogram::Snapshot>>
MetricsRegistry::HistogramValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Histogram::Snapshot>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h->Snap());
  return out;
}

std::string PromSanitizeName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string PromEscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

namespace {

// Splits a registry name into (sanitized exposition name, tenant label
// value): "t03/wal_fsync.us" -> ("wal_fsync_us", "t03"); names without
// the ScopedMetricsLabel '/' keep their flat sanitized form and no
// label, byte-identical to the pre-label exposition.
std::pair<std::string, std::string> PromSplit(const std::string& name) {
  const size_t slash = name.find('/');
  if (slash == std::string::npos || slash == 0) {
    return {PromSanitizeName(name), std::string()};
  }
  return {PromSanitizeName(name.substr(slash + 1)), name.substr(0, slash)};
}

// "{tenant=\"t03\"}" (or "" unlabeled); `extra` appends inside the
// braces, for histogram `le=` rows.
std::string PromLabels(const std::string& tenant, const std::string& extra) {
  if (tenant.empty() && extra.empty()) return "";
  std::string out = "{";
  if (!tenant.empty()) {
    out += "tenant=\"" + PromEscapeLabelValue(tenant) + "\"";
    if (!extra.empty()) out += ',';
  }
  out += extra;
  out += '}';
  return out;
}

}  // namespace

std::string MetricsRegistry::PrometheusText() const {
  std::string out;
  // All samples of one metric must form a single group under its TYPE
  // line, so rows are re-grouped by exposition name: a tenant-labeled
  // series joins its base metric's group instead of minting an invalid
  // name containing '/'. Within a group the unlabeled row (if any)
  // sorts first because "x" < "t03/x" in the registry's name order.
  const auto scalar = [&out](
      const std::vector<std::pair<std::string, int64_t>>& values,
      const char* type) {
    std::map<std::string, std::vector<std::pair<std::string, int64_t>>>
        grouped;
    for (const auto& [name, value] : values) {
      auto [base, tenant] = PromSplit(name);
      grouped[base].emplace_back(tenant, value);
    }
    for (const auto& [base, rows] : grouped) {
      out += StrFormat("# TYPE %s %s\n", base.c_str(), type);
      for (const auto& [tenant, value] : rows) {
        out += StrFormat("%s%s %lld\n", base.c_str(),
                         PromLabels(tenant, "").c_str(),
                         static_cast<long long>(value));
      }
    }
  };
  scalar(CounterValues(), "counter");
  scalar(GaugeValues(), "gauge");
  std::map<std::string,
           std::vector<std::pair<std::string, Histogram::Snapshot>>>
      grouped;
  for (const auto& [name, snap] : HistogramValues()) {
    auto [base, tenant] = PromSplit(name);
    grouped[base].emplace_back(tenant, snap);
  }
  for (const auto& [base, rows] : grouped) {
    out += StrFormat("# TYPE %s histogram\n", base.c_str());
    for (const auto& [tenant, snap] : rows) {
      int64_t cum = 0;
      for (size_t i = 0; i < snap.bounds.size(); ++i) {
        cum += snap.buckets[i];
        out += StrFormat(
            "%s_bucket%s %lld\n", base.c_str(),
            PromLabels(tenant, StrFormat("le=\"%s\"",
                                         FormatDouble(snap.bounds[i], 6)
                                             .c_str()))
                .c_str(),
            static_cast<long long>(cum));
      }
      out += StrFormat("%s_bucket%s %lld\n", base.c_str(),
                       PromLabels(tenant, "le=\"+Inf\"").c_str(),
                       static_cast<long long>(snap.count));
      const std::string plain = PromLabels(tenant, "");
      out += StrFormat("%s_sum%s %s\n", base.c_str(), plain.c_str(),
                       FormatDouble(snap.sum, 6).c_str());
      out += StrFormat("%s_count%s %lld\n", base.c_str(), plain.c_str(),
                       static_cast<long long>(snap.count));
      out += StrFormat("%s_overflow%s %lld\n", base.c_str(), plain.c_str(),
                       static_cast<long long>(snap.overflow));
    }
  }
  return out;
}

ScopedLatency::ScopedLatency(Histogram* h)
    : h_(h),
      start_ns_(MetricsEnabled()
                    ? std::chrono::steady_clock::now().time_since_epoch()
                          .count()
                    : 0) {}

ScopedLatency::~ScopedLatency() {
  if (start_ns_ == 0 || h_ == nullptr) return;
  const int64_t now_ns =
      std::chrono::steady_clock::now().time_since_epoch().count();
  h_->Observe(static_cast<double>(now_ns - start_ns_) / 1000.0);
}

}  // namespace obs
}  // namespace autostats
