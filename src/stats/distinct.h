// Exact distinct-count computation over one or more columns of a table
// (used when building statistics; the engine is in-memory so exact counts
// are affordable and keep benchmarks deterministic).
#ifndef AUTOSTATS_STATS_DISTINCT_H_
#define AUTOSTATS_STATS_DISTINCT_H_

#include <cstdint>
#include <vector>

#include "catalog/table.h"

namespace autostats {

// Number of distinct tuples over `columns` (all from `table`).
uint64_t CountDistinct(const Table& table,
                       const std::vector<ColumnId>& columns);

// Distinct counts for every prefix of `columns`: result[k] is the distinct
// count over columns[0..k]. Each row keeps one running hash; prefix k folds
// in column k and counts the distinct hashes in a flat hash set, so the
// work is O(rows x width). Every row is read, also for sampled builds.
std::vector<uint64_t> CountDistinctPrefixes(
    const Table& table, const std::vector<ColumnId>& columns);

}  // namespace autostats

#endif  // AUTOSTATS_STATS_DISTINCT_H_
