#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace perfbench {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::string QuantileLabel(double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", q * 100.0);
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

HostSpeed::HostSpeed(double window_us)
    : window_us_(window_us), table_(kTableSize), keys_(kKeys) {}

void HostSpeed::Kernel() {
  uint64_t x = 0x1234567;
  for (size_t i = 0; i < kTableTouches; ++i) {
    x = MixSeed(x, i);
    table_[x & (kTableSize - 1)] += x;
  }
  for (size_t i = 0; i < keys_.size(); ++i) {
    keys_[i] = static_cast<double>(MixSeed(x, i) >> 11);
  }
  std::sort(keys_.begin(), keys_.end());
  sink_ += table_[x & (kTableSize - 1)] +
           static_cast<uint64_t>(keys_[keys_.size() / 2]);
}

void HostSpeed::Burst() {
  for (int i = 0; i < kBurst; ++i) {
    // The untimed pass refills the caches the program evicted, so the
    // timed pass depends on the host alone.
    Kernel();
    const double begin = NowUs();
    Kernel();
    const double end = NowUs();
    samples_.push_back({end, end - begin});
  }
}

void HostSpeed::MaybeBurst() {
  if (samples_.empty() || NowUs() - samples_.back().at_us >= kPeriodUs) {
    Burst();
  }
}

double HostSpeed::Scale(double begin_us, double end_us) const {
  if (samples_.empty()) return 1.0;
  auto lo = std::lower_bound(
      samples_.begin(), samples_.end(), begin_us - window_us_,
      [](const Point& p, double t) { return p.at_us < t; });
  auto hi = std::upper_bound(
      samples_.begin(), samples_.end(), end_us + window_us_,
      [](double t, const Point& p) { return t < p.at_us; });
  // Too few samples inside the window: widen it evenly around it.
  while (hi - lo < static_cast<std::ptrdiff_t>(kMinSamples) &&
         (lo != samples_.begin() || hi != samples_.end())) {
    if (lo != samples_.begin()) --lo;
    if (hi != samples_.end()) ++hi;
  }
  std::vector<double> durations;
  for (auto it = lo; it != hi; ++it) durations.push_back(it->us);
  return kNominalUs / Percentile(std::move(durations), 0.5);
}

double HostSpeed::MedianUs() const {
  std::vector<double> durations;
  for (const Point& p : samples_) durations.push_back(p.us);
  return Percentile(std::move(durations), 0.5);
}

void RunResult::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void RunResult::Fail(const std::string& why) { problems_.push_back(why); }

void RunResult::Print() const {
  for (const std::string& p : problems_) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void Line(const std::string& name, double value, const std::string& unit,
          const std::string& note) {
  std::printf("  %-32s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kServer:
      return "server";
    case Layer::kCore:
      return "core";
    case Layer::kOptimizer:
      return "optimizer";
    case Layer::kStats:
      return "stats";
    case Layer::kExecutor:
      return "executor";
  }
  return "?";
}

bool SpanLog::WriteChromeJson(const std::string& path,
                              const std::string& process_name) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
               "\"args\":{\"name\":\"%s\"}}",
               process_name.c_str());
  // A statement's span is logged after the calls nested in it, so the
  // earliest begin is not necessarily the first span's.
  double origin = spans_.empty() ? 0.0 : spans_.front().begin_us;
  for (const Span& s : spans_) origin = std::min(origin, s.begin_us);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\","
                 "\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"stmt\":%llu}}",
                 s.track, s.name, s.category, s.begin_us - origin,
                 s.end_us - s.begin_us, static_cast<unsigned long long>(s.stmt));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
