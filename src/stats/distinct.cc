#include "stats/distinct.h"

#include <functional>
#include <string>

#include "common/check.h"

namespace autostats {

namespace {

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// Folds column `col` into each row's running hash: one FNV-1a style step
// over the cell's std::hash, adequate for distinct counting over in-memory
// tables. After k folds from the basis, hashes[r] is row r's hash over the
// first k columns.
void FoldColumn(const Column& col, std::vector<uint64_t>* hashes) {
  uint64_t* h = hashes->data();
  const size_t n = hashes->size();
  switch (col.type()) {
    case ValueType::kInt64: {
      const std::vector<int64_t>& data = col.int64_data();
      for (size_t r = 0; r < n; ++r) {
        h[r] = (h[r] ^ std::hash<int64_t>()(data[r])) * kFnvPrime;
      }
      break;
    }
    case ValueType::kDouble: {
      const std::vector<double>& data = col.double_data();
      for (size_t r = 0; r < n; ++r) {
        h[r] = (h[r] ^ std::hash<double>()(data[r])) * kFnvPrime;
      }
      break;
    }
    case ValueType::kString: {
      const std::vector<std::string>& data = col.string_data();
      for (size_t r = 0; r < n; ++r) {
        h[r] = (h[r] ^ std::hash<std::string>()(data[r])) * kFnvPrime;
      }
      break;
    }
  }
}

// Number of distinct values in `hashes`, counted in a flat open-addressing
// set of at least twice as many slots (`slots`, reused between calls).
// Slot 0 marks an empty slot, so the value 0 is counted apart.
uint64_t CountDistinctHashes(const std::vector<uint64_t>& hashes,
                             std::vector<uint64_t>* slots) {
  int bits = 4;
  while ((size_t{1} << bits) < 2 * hashes.size()) ++bits;
  const size_t mask = (size_t{1} << bits) - 1;
  slots->assign(mask + 1, 0);
  uint64_t* table = slots->data();
  uint64_t distinct = 0;
  bool zero = false;
  for (const uint64_t h : hashes) {
    if (h == 0) {
      zero = true;
      continue;
    }
    // Multiplicative hashing: the top bits depend on every bit of h.
    size_t i = static_cast<size_t>((h * 0x9E3779B97F4A7C15ull) >> (64 - bits));
    while (table[i] != h) {
      if (table[i] == 0) {
        table[i] = h;
        ++distinct;
        break;
      }
      i = (i + 1) & mask;
    }
  }
  return distinct + (zero ? 1 : 0);
}

}  // namespace

uint64_t CountDistinct(const Table& table,
                       const std::vector<ColumnId>& columns) {
  AUTOSTATS_CHECK(!columns.empty());
  return CountDistinctPrefixes(table, columns).back();
}

std::vector<uint64_t> CountDistinctPrefixes(
    const Table& table, const std::vector<ColumnId>& columns) {
  std::vector<uint64_t> out;
  out.reserve(columns.size());
  std::vector<uint64_t> hashes(table.num_rows(), kFnvBasis);
  std::vector<uint64_t> slots;
  for (const ColumnId c : columns) {
    FoldColumn(table.column(c), &hashes);
    out.push_back(CountDistinctHashes(hashes, &slots));
  }
  return out;
}

}  // namespace autostats
