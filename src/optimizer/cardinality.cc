#include "optimizer/cardinality.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace autostats {

CardinalityModel::CardinalityModel(const Database* db, const Query* query,
                                   const SelectivityAnalysis* sel)
    : db_(db), query_(query), sel_(sel) {
  const int n = query_->num_tables();
  filtered_rows_.reserve(static_cast<size_t>(n));
  for (int pos = 0; pos < n; ++pos) {
    filtered_rows_.push_back(
        std::max(1.0, BaseRows(pos) * sel_->table_sel(pos)));
  }
  // Pairs with >= 2 predicates use the combined pair selectivity (which
  // may come from a multi-column statistic).
  for (int pa = 0; pa < n; ++pa) {
    for (int pb = pa + 1; pb < n; ++pb) {
      const uint32_t pair = (1u << pa) | (1u << pb);
      const int pair_idx = sel_->PairIndexFor(pa, pb);
      if (pair_idx >= 0) {
        join_factors_.push_back({pair, sel_->pair_sel(pair_idx)});
        continue;
      }
      for (int j : query_->JoinIndicesBetween(
               query_->tables()[static_cast<size_t>(pa)],
               query_->tables()[static_cast<size_t>(pb)])) {
        join_factors_.push_back({pair, sel_->join_sel(j)});
      }
    }
  }
}

double CardinalityModel::BaseRows(int pos) const {
  const TableId t = query_->tables()[static_cast<size_t>(pos)];
  return std::max(1.0, static_cast<double>(db_->table(t).num_rows()));
}

double CardinalityModel::FilteredRows(int pos) const {
  return filtered_rows_[static_cast<size_t>(pos)];
}

double CardinalityModel::JoinRows(uint32_t mask) const {
  double rows = 1.0;
  for (size_t pos = 0; pos < filtered_rows_.size(); ++pos) {
    if (mask & (1u << pos)) rows *= filtered_rows_[pos];
  }
  // Every join predicate whose two tables are both in the mask.
  for (const JoinFactor& f : join_factors_) {
    if ((mask & f.pair) == f.pair) rows *= f.sel;
  }
  return std::max(1.0, rows);
}

double CardinalityModel::GroupRows(double input_rows) const {
  return sel_->EstimateGroups(input_rows);
}

}  // namespace autostats
