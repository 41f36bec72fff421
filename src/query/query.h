// Query: a normalized Select-Project-Join query with optional GROUP BY
// (SELECT DISTINCT is modeled as grouping on the selected columns), the
// query class for which MNSA's guarantees hold (§4.1).
#ifndef AUTOSTATS_QUERY_QUERY_H_
#define AUTOSTATS_QUERY_QUERY_H_

#include <string>
#include <vector>

#include "query/predicate.h"

namespace autostats {

class Query {
 public:
  Query() = default;
  explicit Query(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- construction ---
  void AddTable(TableId table);
  void AddFilter(FilterPredicate predicate);
  void AddJoin(JoinPredicate predicate);
  void AddGroupBy(ColumnRef column);

  // --- accessors ---
  const std::vector<TableId>& tables() const { return tables_; }
  const std::vector<FilterPredicate>& filters() const { return filters_; }
  const std::vector<JoinPredicate>& joins() const { return joins_; }
  const std::vector<ColumnRef>& group_by() const { return group_by_; }
  bool has_grouping() const { return !group_by_.empty(); }

  int num_tables() const { return static_cast<int>(tables_.size()); }

  // Position of `table` in tables(), or -1.
  int TablePosition(TableId table) const;

  // Relevant columns (§3.1): columns in WHERE or GROUP BY whose statistics
  // can impact optimization. Deduplicated, deterministic order.
  std::vector<ColumnRef> RelevantColumns() const;

  // Selection-predicate columns of one table (deduplicated, query order).
  std::vector<ColumnRef> SelectionColumnsOf(TableId table) const;
  // Join columns of one table across all join predicates.
  std::vector<ColumnRef> JoinColumnsOf(TableId table) const;
  // GROUP BY columns restricted to one table.
  std::vector<ColumnRef> GroupByColumnsOf(TableId table) const;

  // Indices into filters() for predicates on `table`.
  std::vector<int> FilterIndicesOf(TableId table) const;
  // Indices into joins() connecting tables at positions a and b.
  std::vector<int> JoinIndicesBetween(TableId ta, TableId tb) const;

 private:
  std::string name_;
  std::vector<TableId> tables_;
  std::vector<FilterPredicate> filters_;
  std::vector<JoinPredicate> joins_;
  std::vector<ColumnRef> group_by_;
};

}  // namespace autostats

#endif  // AUTOSTATS_QUERY_QUERY_H_
