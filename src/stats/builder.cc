#include "stats/builder.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "stats/distinct.h"
#include "stats/endbiased.h"
#include "stats/equidepth.h"
#include "stats/maxdiff.h"

namespace autostats {

namespace {

// Sorts the sampled keys and run-length encodes them into exact
// (value, count) runs. Only samples holding both -0.0 and +0.0 take this
// path: the two compare equal, so std::sort's tie order decides which one
// the merged run stores, and only std::sort reproduces that order.
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

constexpr uint64_t kSignBit = uint64_t{1} << 63;

// An unsigned image of `v` that sorts in the doubles' order (no NaN
// reaches a build): a positive value gets its sign bit set, a negative one
// every bit inverted. Equal images are bit-equal doubles.
uint64_t OrderedImage(double v) {
  const uint64_t u = std::bit_cast<uint64_t>(v);
  return (u & kSignBit) != 0 ? ~u : u | kSignBit;
}

double FromOrderedImage(uint64_t u) {
  return std::bit_cast<double>((u & kSignBit) != 0 ? u ^ kSignBit : ~u);
}

// Up to kInsertionSortMax images an insertion sort costs less than the
// radix passes' fixed work (zeroing and summing bucket offsets); below
// kFourLaneMin, four lanes' offsets cost more than they save.
constexpr size_t kInsertionSortMax = 64;
constexpr size_t kFourLaneMin = 512;

// LSD radix sort of the `n` images in `keys` over 8-bit digits, starting
// at the lowest bit that differs between keys; a digit every key shares
// moves nothing and is skipped. `scratch` is the other buffer of each
// pass; returns the buffer holding the sorted images. Images order
// totally and equal images are equal bits, so every correct sort returns
// the same sequence.
//
// From kFourLaneMin images on, each pass splits the input into four
// contiguous lanes with their own bucket offsets and scatters them
// interleaved, so the counter updates of the four lanes do not wait on
// each other when most keys share a bucket. Lane k's slots in a bucket
// follow lanes 0..k-1's, so a pass stays stable.
uint64_t* RadixSort(uint64_t* keys, uint64_t* scratch, size_t n) {
  AUTOSTATS_CHECK(n <= UINT32_MAX);
  if (n <= kInsertionSortMax) {
    for (size_t i = 1; i < n; ++i) {
      const uint64_t key = keys[i];
      size_t j = i;
      for (; j > 0 && keys[j - 1] > key; --j) keys[j] = keys[j - 1];
      keys[j] = key;
    }
    return keys;
  }
  uint64_t varying = 0;
  for (size_t i = 1; i < n; ++i) varying |= keys[i] ^ keys[0];
  const size_t lanes = n >= kFourLaneMin ? 4 : 1;
  // Lanes 0-2 hold `lane` images each, interleaved with lane 3's first
  // `lane`; the last lane's images from `tail` on follow alone.
  const size_t lane = lanes == 4 ? n / 4 : 0;
  const size_t tail = 4 * lane;
  std::array<std::array<uint32_t, 256>, 4> offsets;
  std::array<uint32_t, 256>& last = offsets[lanes - 1];
  uint64_t* src = keys;
  uint64_t* dst = scratch;
  for (int shift = std::countr_zero(varying);
       shift < 64 && (varying >> shift) != 0; shift += 8) {
    if (((varying >> shift) & 0xFF) == 0) continue;
    const auto digit = [shift](uint64_t key) { return (key >> shift) & 0xFF; };
    const uint64_t* l0 = src;
    const uint64_t* l1 = src + lane;
    const uint64_t* l2 = src + 2 * lane;
    const uint64_t* l3 = src + 3 * lane;
    for (size_t k = 0; k < lanes; ++k) offsets[k].fill(0);
    for (size_t i = 0; i < lane; ++i) {
      ++offsets[0][digit(l0[i])];
      ++offsets[1][digit(l1[i])];
      ++offsets[2][digit(l2[i])];
      ++offsets[3][digit(l3[i])];
    }
    for (size_t i = tail; i < n; ++i) ++last[digit(src[i])];
    uint32_t sum = 0;
    for (size_t b = 0; b < 256; ++b) {
      for (size_t k = 0; k < lanes; ++k) {
        const uint32_t count = offsets[k][b];
        offsets[k][b] = sum;
        sum += count;
      }
    }
    for (size_t i = 0; i < lane; ++i) {
      const uint64_t k0 = l0[i], k1 = l1[i], k2 = l2[i], k3 = l3[i];
      dst[offsets[0][digit(k0)]++] = k0;
      dst[offsets[1][digit(k1)]++] = k1;
      dst[offsets[2][digit(k2)]++] = k2;
      dst[offsets[3][digit(k3)]++] = k3;
    }
    for (size_t i = tail; i < n; ++i) dst[last[digit(src[i])]++] = src[i];
    std::swap(src, dst);
  }
  return src;
}

// Run-length encodes `n` sorted images into (value, count) runs, as
// SortAndEncode does for sorted doubles.
std::vector<ValueFreq> EncodeSortedImages(const uint64_t* keys, size_t n) {
  std::vector<ValueFreq> runs;
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && keys[j] == keys[i]) ++j;
    runs.push_back(
        ValueFreq{FromOrderedImage(keys[i]), static_cast<double>(j - i)});
    i = j;
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

  // The sampled keys as images. Strings keep their prefix key and INT64
  // its double value, so keys that are equal as doubles share one run.
  const std::unique_ptr<uint64_t[]> images =
      std::make_unique_for_overwrite<uint64_t[]>(sampled);
  bool negative_zero = false;
  bool positive_zero = false;
  switch (c.type()) {
    case ValueType::kInt64: {
      const std::vector<int64_t>& data = c.int64_data();
      for (size_t r = 0, i = 0; r < n; r += stride, ++i) {
        images[i] = OrderedImage(static_cast<double>(data[r]));
      }
      break;
    }
    case ValueType::kDouble: {
      const std::vector<double>& data = c.double_data();
      for (size_t r = 0, i = 0; r < n; r += stride, ++i) {
        const double v = data[r];
        if (v == 0.0) (std::signbit(v) ? negative_zero : positive_zero) = true;
        images[i] = OrderedImage(v);
      }
      break;
    }
    case ValueType::kString: {
      const std::vector<std::string>& data = c.string_data();
      for (size_t r = 0, i = 0; r < n; r += stride, ++i) {
        images[i] = OrderedImage(StringPrefixKey(data[r]));
      }
      break;
    }
  }

  std::vector<ValueFreq> runs;
  if (negative_zero && positive_zero) {
    std::vector<double> keys;
    keys.reserve(sampled);
    for (size_t r = 0; r < n; r += stride) keys.push_back(c.NumericKey(r));
    runs = SortAndEncode(std::move(keys));
  } else {
    const std::unique_ptr<uint64_t[]> scratch =
        std::make_unique_for_overwrite<uint64_t[]>(sampled);
    runs = EncodeSortedImages(
        RadixSort(images.get(), scratch.get(), sampled), sampled);
  }

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

}  // namespace autostats
