// Reference statistic lookups: the StatsView::HistogramFor / DensityFor
// that stats/stats_catalog.cc replaced, kept as a test oracle through the
// public calls only (ActiveKeys, Find, IsVisible). Each call copies and
// sorts every active key and takes the first match in key order. The
// shipped lookups make one pass over the catalog's entries and break ties
// by key string; stats_test checks the two return the same statistic and
// prefix length, and bench_hotpath times them against each other.
#ifndef AUTOSTATS_TESTS_REFERENCE_VIEW_H_
#define AUTOSTATS_TESTS_REFERENCE_VIEW_H_

#include <algorithm>
#include <vector>

#include "stats/stats_catalog.h"

namespace autostats::testing {

inline const Statistic* ReferenceHistogramFor(const StatsView& view,
                                              ColumnRef column) {
  const StatsCatalog& catalog = view.catalog();
  const Statistic* best = nullptr;
  for (const StatKey& key : catalog.ActiveKeys()) {
    if (!view.IsVisible(key)) continue;
    const Statistic* s = catalog.Find(key);
    if (s == nullptr || !(s->leading_column() == column)) continue;
    if (best == nullptr || s->width() < best->width()) best = s;
  }
  return best;
}

inline const Statistic* ReferenceDensityFor(
    const StatsView& view, TableId table, const std::vector<ColumnId>& columns,
    int* prefix_len) {
  const StatsCatalog& catalog = view.catalog();
  // Look for a visible statistic on `table` whose leading prefix of length
  // |columns| equals `columns` as a set.
  std::vector<ColumnId> want = columns;
  std::sort(want.begin(), want.end());
  for (const StatKey& key : catalog.ActiveKeys()) {
    if (!view.IsVisible(key)) continue;
    const Statistic* s = catalog.Find(key);
    if (s == nullptr || s->table() != table) continue;
    if (s->width() < static_cast<int>(columns.size())) continue;
    std::vector<ColumnId> prefix;
    prefix.reserve(columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
      prefix.push_back(s->columns()[i].column);
    }
    std::sort(prefix.begin(), prefix.end());
    if (prefix == want) {
      if (prefix_len != nullptr) {
        *prefix_len = static_cast<int>(columns.size());
      }
      return s;
    }
  }
  return nullptr;
}

}  // namespace autostats::testing

#endif  // AUTOSTATS_TESTS_REFERENCE_VIEW_H_
