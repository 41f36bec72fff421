// Reference statistic-build kernels: the comparison-sort ColumnDistribution
// and CountDistinctPrefixes that stats/builder.cc and stats/distinct.cc
// replaced, kept verbatim as a test oracle. The distribution std::sorts
// the sampled keys as doubles and run-length encodes them; the prefix
// counts hash every row from the first column for each prefix, then sort
// and dedupe the hashes. The shipped kernels radix-sort order-preserving
// key images and count one running hash per row in a flat hash set;
// stats_test checks the two agree bit for bit (every ValueFreq's value and
// freq bits, every prefix count), and bench_hotpath times them against
// each other.
#ifndef AUTOSTATS_TESTS_REFERENCE_BUILDER_H_
#define AUTOSTATS_TESTS_REFERENCE_BUILDER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/table.h"
#include "stats/builder.h"
#include "stats/histogram.h"

namespace autostats::testing {

namespace reference_internal {

// FNV-1a style combination of per-cell hashes; adequate for distinct
// counting over in-memory tables.
inline uint64_t HashCell(const Column& col, size_t row) {
  switch (col.type()) {
    case ValueType::kInt64:
      return std::hash<int64_t>()(col.int64_data()[row]);
    case ValueType::kDouble:
      return std::hash<double>()(col.double_data()[row]);
    case ValueType::kString:
      return std::hash<std::string>()(col.string_data()[row]);
  }
  return 0;
}

inline uint64_t HashRow(const Table& table,
                        const std::vector<ColumnId>& columns, size_t row,
                        size_t prefix_len) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t k = 0; k < prefix_len; ++k) {
    h ^= HashCell(table.column(columns[k]), row);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Sorted, deduplicated row hashes of the leading `prefix_len` columns:
// one flat sort + dedupe, no hash set on the hot path.
inline std::vector<uint64_t> SortedUniqueHashes(
    const Table& table, const std::vector<ColumnId>& columns,
    size_t prefix_len) {
  const size_t n = table.num_rows();
  std::vector<uint64_t> hashes;
  hashes.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    hashes.push_back(HashRow(table, columns, r, prefix_len));
  }
  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  return hashes;
}

}  // namespace reference_internal

// Sorts the sampled keys and run-length encodes them into exact
// (value, count) runs.
inline std::vector<ValueFreq> ReferenceSortAndEncode(
    std::vector<double> keys) {
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

inline std::vector<ValueFreq> ReferenceColumnDistribution(
    const Table& table, ColumnId col, double sample_fraction) {
  const Column& c = table.column(col);
  const size_t n = table.num_rows();
  const size_t stride = SampleStride(sample_fraction);
  const size_t sampled = SampledRowCount(n, stride);

  std::vector<double> keys;
  keys.reserve(sampled);
  for (size_t r = 0; r < n; r += stride) keys.push_back(c.NumericKey(r));
  std::vector<ValueFreq> runs = ReferenceSortAndEncode(std::move(keys));

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

inline std::vector<uint64_t> ReferenceCountDistinctPrefixes(
    const Table& table, const std::vector<ColumnId>& columns) {
  std::vector<uint64_t> out;
  out.reserve(columns.size());
  for (size_t k = 1; k <= columns.size(); ++k) {
    out.push_back(
        reference_internal::SortedUniqueHashes(table, columns, k).size());
  }
  return out;
}

}  // namespace autostats::testing

#endif  // AUTOSTATS_TESTS_REFERENCE_BUILDER_H_
