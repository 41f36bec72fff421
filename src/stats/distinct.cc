#include "stats/distinct.h"

#include <algorithm>
#include <functional>
#include <string>

#include "common/check.h"

namespace autostats {

namespace {

// FNV-1a style combination of per-cell hashes; adequate for distinct
// counting over in-memory tables.
uint64_t HashCell(const Column& col, size_t row) {
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

uint64_t HashRow(const Table& table, const std::vector<ColumnId>& columns,
                 size_t row, size_t prefix_len) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t k = 0; k < prefix_len; ++k) {
    h ^= HashCell(table.column(columns[k]), row);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Sorted, deduplicated row hashes of the leading `prefix_len` columns:
// one flat sort + dedupe, no hash set on the hot path.
std::vector<uint64_t> SortedUniqueHashes(const Table& table,
                                         const std::vector<ColumnId>& columns,
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

}  // namespace

uint64_t CountDistinct(const Table& table,
                       const std::vector<ColumnId>& columns) {
  AUTOSTATS_CHECK(!columns.empty());
  return SortedUniqueHashes(table, columns, columns.size()).size();
}

std::vector<uint64_t> CountDistinctPrefixes(
    const Table& table, const std::vector<ColumnId>& columns) {
  std::vector<uint64_t> out;
  out.reserve(columns.size());
  for (size_t k = 1; k <= columns.size(); ++k) {
    out.push_back(SortedUniqueHashes(table, columns, k).size());
  }
  return out;
}

}  // namespace autostats
