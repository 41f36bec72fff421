// Statistics builder: constructs a Statistic (leading-column histogram +
// prefix densities) by scanning live table data.
#ifndef AUTOSTATS_STATS_BUILDER_H_
#define AUTOSTATS_STATS_BUILDER_H_

#include <vector>

#include "catalog/database.h"
#include "common/fault.h"
#include "common/status.h"
#include "stats/statistic.h"

namespace autostats {

enum class HistogramKind { kMaxDiff, kEquiDepth, kEndBiased };

struct StatsBuildConfig {
  HistogramKind histogram_kind = HistogramKind::kMaxDiff;
  int num_buckets = 64;
  // Fraction of rows sampled when building (1.0 = full scan). Sampling is
  // deterministic (stride-based) so builds are reproducible.
  double sample_fraction = 1.0;
  // Build an MHIST-2 joint grid for two-column statistics (in addition to
  // the leading histogram and prefix densities).
  bool build_2d_grids = false;
};

// Deterministic sampling stride for `sample_fraction` (1 = every row).
// It picks the rows the leading-column distribution and the MHIST-2 grid
// read; the prefix distinct counts read every row. The creation-cost
// formula charges the sampled row count alone (SampledRowCount).
size_t SampleStride(double sample_fraction);

// Rows a strided scan over `rows` rows visits.
size_t SampledRowCount(size_t rows, size_t stride);

// Builds a statistic over `columns` (all in one table of `db`).
Statistic BuildStatistic(const Database& db,
                         const std::vector<ColumnRef>& columns,
                         const StatsBuildConfig& config);

// Build result carrying, besides the statistic, the compressed leading-
// column distribution the histogram was bucketed from — the base an
// incremental refresh merges delta sketches into (stats/delta_sketch.h).
struct BuiltStatistic {
  Statistic stat;
  std::vector<ValueFreq> leading_dist;
};

BuiltStatistic BuildStatisticWithDist(const Database& db,
                                      const std::vector<ColumnRef>& columns,
                                      const StatsBuildConfig& config);

// Fallible build: gates the scan on the `fault_point` injection point (the
// stand-in for the I/O, memory, and lock failures a real server's scans
// hit), then builds. This is the entry the online loop uses; a non-OK
// result leaves no partial state anywhere.
Result<BuiltStatistic> TryBuildStatisticWithDist(
    const Database& db, const std::vector<ColumnRef>& columns,
    const StatsBuildConfig& config,
    const char* fault_point = faults::kStatsCreate);

// Compresses one column into its sorted (value, frequency) distribution
// over numeric keys; exposed for tests and for histogram experiments. The
// sampled keys are radix-sorted as order-preserving 64-bit images; a
// sample holding both -0.0 and +0.0 is std::sorted instead, because those
// compare equal and std::sort's tie order picks the value their run keeps.
std::vector<ValueFreq> ColumnDistribution(const Table& table, ColumnId col,
                                          double sample_fraction);

// Buckets a sorted (value, frequency) distribution with the configured
// histogram kind — the one re-bucketing step full builds and incremental
// refreshes share, so both produce bit-identical histograms from equal
// distributions.
Histogram BucketizeDistribution(const std::vector<ValueFreq>& dist,
                                const StatsBuildConfig& config);

}  // namespace autostats

#endif  // AUTOSTATS_STATS_BUILDER_H_
