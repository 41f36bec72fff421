// End-to-end benchmark of the statistics-management engine and server.
//
// Three workloads, each run in one process (see README.md for why each
// exists and what it predicts):
//   adhoc_cold    closed loop, one session, read-only complex queries on an
//                 empty in-memory catalog (MNSA and the optimizer dominate);
//   update_churn  closed loop, one session, half DML, durable catalog with
//                 an fsync per statement (executor, refresh and WAL);
//   tenant_fleet  open loop against AutoStatsServer with 64 durable
//                 tenants (queueing, worker handoff, fsync coordination).
//
// Timed runs (--trace 0) measure with every instrument of the program
// off. Traced runs (--trace 1) replay the same streams on one thread
// through the public calls AutoStatsManager::Process makes, with a span
// around each call recorded here, never inside the library.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // WAL directories (removed at exit) and trace artifacts (kept).
  std::string work_dir = ".bench_work";
};

// Monotonic microseconds.
double NowUs();

// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 if empty.
double Percentile(std::vector<double> samples, double q);
// Every workload reports p99 as its tail. At the benchmark's --seconds 15
// each has 1,000..9,999 query samples, so p99 is the highest percentile
// with at least ten samples beyond it.
inline constexpr double kTailQuantile = 0.99;
inline constexpr size_t kMinTailSamples = 1000;
std::string QuantileLabel(double q);

double PeakRssMb();

// Host-speed reference for every reported end-to-end timing.
//
// On the shared 4-vCPU VM the benchmark was tuned on, the speed of the
// same single-threaded code drifts by 5-30% between runs a minute apart
// (the guest shows no steal time), so raw wall-clock medians of identical
// runs disagree by more than a useful regression bound. A fixed kernel
// (random updates over a 4 MiB table and a sort) that touches only its
// own data is timed in short bursts between statements, every kPeriodUs,
// never inside one; each timed pass follows an untimed one, so its time
// follows the host and not the cache state the program left. A timing is
// reported as raw * kNominalUs / (median kernel time around it): wall
// time at the nominal host speed. Measured on that VM over five runs of
// one seed, this cut the spread of a run's summed statement time from
// +-5% to +-3% (update_churn from +-6% to +-3%). Raw figures are printed
// beside the scaled ones. A HostSpeed without samples scales by 1. The
// multi-threaded tenant_fleet samples only between phases and scales by
// the whole run's median (see fleet.cc).
class HostSpeed {
 public:
  // A timing is scaled by the kernel samples within window_us of it;
  // kWholeRun uses every sample of the run.
  explicit HostSpeed(double window_us = 1000000.0);
  static constexpr double kWholeRun = 1e300;

  // Times the kernel kBurst times.
  void Burst();
  // Bursts when kPeriodUs have passed since the last one.
  void MaybeBurst();
  // kNominalUs / median of the samples within the window of
  // [begin_us, end_us], widened to at least kMinSamples samples; 1 with no
  // samples. Multiply a duration by it; divide a rate by it.
  double Scale(double begin_us, double end_us) const;
  size_t samples() const { return samples_.size(); }
  double MedianUs() const;

  static constexpr double kNominalUs = 300.0;

 private:
  static constexpr int kBurst = 9;
  static constexpr double kPeriodUs = 500000.0;
  static constexpr size_t kMinSamples = 3 * kBurst;
  static constexpr size_t kTableSize = size_t{1} << 19;  // 4 MiB of uint64
  static constexpr size_t kTableTouches = size_t{1} << 13;
  static constexpr size_t kKeys = size_t{1} << 12;

  void Kernel();

  struct Point {
    double at_us;
    double us;
  };
  double window_us_;
  std::vector<Point> samples_;  // in time order
  std::vector<uint64_t> table_;
  std::vector<double> keys_;
  uint64_t sink_ = 0;
};

// Stable 64-bit mix for deriving per-pass / per-tenant seeds.
uint64_t MixSeed(uint64_t a, uint64_t b);

// The single JSON line every run ends with, plus the correctness verdict.
class RunResult {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Fail(const std::string& why);
  bool correct() const { return problems_.empty(); }

  int64_t attempted = 0;
  int64_t failed = 0;

  // Prints the problems (stderr) and the result line (stdout, last).
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
};

// Human-readable report line: "  name  value unit  (note)".
void Line(const std::string& name, double value, const std::string& unit,
          const std::string& note = "");

// ---- Benchmark-side spans ---------------------------------------------------

enum class Layer { kServer, kCore, kOptimizer, kStats, kExecutor };
inline constexpr int kNumLayers = 5;
const char* LayerName(Layer layer);

struct Span {
  const char* name;
  const char* category;  // a LayerName(), or "statement"
  int track;      // Chrome tid: one per replayed stream (pass or tenant)
  uint64_t stmt;  // statement id within the track (1-based)
  double begin_us;
  double end_us;
};

// In-memory span store, written once at exit as Chrome trace_event JSON.
class SpanLog {
 public:
  void Add(const Span& span) { spans_.push_back(span); }
  size_t size() const { return spans_.size(); }
  // Returns false when the file cannot be written.
  bool WriteChromeJson(const std::string& path,
                       const std::string& process_name) const;

 private:
  std::vector<Span> spans_;
};

// ---- Workloads --------------------------------------------------------------

RunResult RunAdhocCold(const Options& options);
RunResult RunUpdateChurn(const Options& options);
RunResult RunTenantFleet(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
