#include "stats/builder.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "stats/distinct.h"
#include "stats/endbiased.h"
#include "stats/equidepth.h"
#include "stats/maxdiff.h"

namespace autostats {

namespace {

// Sorts the sampled keys and run-length encodes them into exact
// (value, count) runs.
std::vector<ValueFreq> SortAndEncode(std::vector<double> keys) {
  std::sort(keys.begin(), keys.end());
  std::vector<ValueFreq> runs;
  for (double key : keys) {
    if (!runs.empty() && runs.back().value == key) {
      runs.back().freq += 1.0;
    } else {
      runs.push_back(ValueFreq{key, 1.0});
    }
  }
  return runs;
}

}  // namespace

size_t SampleStride(double sample_fraction) {
  AUTOSTATS_CHECK(sample_fraction > 0.0 && sample_fraction <= 1.0);
  return sample_fraction >= 1.0
             ? 1
             : std::max<size_t>(1,
                                static_cast<size_t>(1.0 / sample_fraction));
}

size_t SampledRowCount(size_t rows, size_t stride) {
  AUTOSTATS_CHECK(stride >= 1);
  return rows == 0 ? 0 : (rows + stride - 1) / stride;
}

std::vector<ValueFreq> ColumnDistribution(const Table& table, ColumnId col,
                                          double sample_fraction) {
  const Column& c = table.column(col);
  const size_t n = table.num_rows();
  const size_t stride = SampleStride(sample_fraction);
  const size_t sampled = SampledRowCount(n, stride);

  std::vector<double> keys;
  keys.reserve(sampled);
  for (size_t r = 0; r < n; r += stride) keys.push_back(c.NumericKey(r));
  std::vector<ValueFreq> runs = SortAndEncode(std::move(keys));

  // Scale sampled frequencies back to table size (scale 1 leaves the exact
  // integer counts untouched).
  const double scale =
      sampled > 0 ? static_cast<double>(n) / static_cast<double>(sampled)
                  : 1.0;
  if (scale != 1.0) {
    for (ValueFreq& vf : runs) vf.freq *= scale;
  }
  return runs;
}

Histogram BucketizeDistribution(const std::vector<ValueFreq>& dist,
                                const StatsBuildConfig& config) {
  switch (config.histogram_kind) {
    case HistogramKind::kMaxDiff:
      return BuildMaxDiff(dist, config.num_buckets);
    case HistogramKind::kEquiDepth:
      return BuildEquiDepth(dist, config.num_buckets);
    case HistogramKind::kEndBiased:
      return BuildEndBiased(dist, config.num_buckets);
  }
  return Histogram();
}

BuiltStatistic BuildStatisticWithDist(const Database& db,
                                      const std::vector<ColumnRef>& columns,
                                      const StatsBuildConfig& config) {
  AUTOSTATS_CHECK(!columns.empty());
  const Table& table = db.table(columns.front().table);

  std::vector<ValueFreq> dist = ColumnDistribution(
      table, columns.front().column, config.sample_fraction);
  Histogram hist = BucketizeDistribution(dist, config);
  std::vector<ColumnId> cols;
  cols.reserve(columns.size());
  for (const ColumnRef& c : columns) cols.push_back(c.column);
  const std::vector<uint64_t> prefix_counts =
      CountDistinctPrefixes(table, cols);
  std::vector<double> prefix_distinct(prefix_counts.begin(),
                                      prefix_counts.end());

  Statistic stat(columns, std::move(hist), std::move(prefix_distinct),
                 static_cast<double>(table.num_rows()));

  if (config.build_2d_grids && columns.size() == 2) {
    const size_t stride = SampleStride(config.sample_fraction);
    const size_t sampled = SampledRowCount(table.num_rows(), stride);
    std::vector<std::array<double, 2>> points;
    points.reserve(sampled);
    const Column& c1 = table.column(columns[0].column);
    const Column& c2 = table.column(columns[1].column);
    for (size_t r = 0; r < table.num_rows(); r += stride) {
      points.push_back({c1.NumericKey(r), c2.NumericKey(r)});
    }
    stat.set_grid2d(BuildMhist2D(std::move(points), config.num_buckets));
  }
  return BuiltStatistic{std::move(stat), std::move(dist)};
}

Statistic BuildStatistic(const Database& db,
                         const std::vector<ColumnRef>& columns,
                         const StatsBuildConfig& config) {
  return BuildStatisticWithDist(db, columns, config).stat;
}

Result<BuiltStatistic> TryBuildStatisticWithDist(
    const Database& db, const std::vector<ColumnRef>& columns,
    const StatsBuildConfig& config, const char* fault_point) {
  AUTOSTATS_CHECK(!columns.empty());
  const Status gate = PokeFault(fault_point, MakeStatKey(columns).c_str());
  if (!gate.ok()) return gate;
  return BuildStatisticWithDist(db, columns, config);
}

Result<Statistic> TryBuildStatistic(const Database& db,
                                    const std::vector<ColumnRef>& columns,
                                    const StatsBuildConfig& config,
                                    const char* fault_point) {
  Result<BuiltStatistic> built =
      TryBuildStatisticWithDist(db, columns, config, fault_point);
  if (!built.ok()) return built.status();
  return std::move(built->stat);
}

}  // namespace autostats
