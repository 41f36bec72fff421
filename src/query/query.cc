#include "query/query.h"

#include <algorithm>

#include "common/check.h"
#include "common/str_util.h"

namespace autostats {

void Query::AddTable(TableId table) {
  AUTOSTATS_CHECK_MSG(TablePosition(table) < 0, "table added twice");
  tables_.push_back(table);
}

void Query::AddFilter(FilterPredicate predicate) {
  AUTOSTATS_CHECK_MSG(TablePosition(predicate.column.table) >= 0,
                      "filter on a table not in the query");
  filters_.push_back(std::move(predicate));
}

void Query::AddJoin(JoinPredicate predicate) {
  AUTOSTATS_CHECK(TablePosition(predicate.left.table) >= 0);
  AUTOSTATS_CHECK(TablePosition(predicate.right.table) >= 0);
  AUTOSTATS_CHECK_MSG(predicate.left.table != predicate.right.table,
                      "self-joins are not modeled");
  joins_.push_back(predicate);
}

void Query::AddGroupBy(ColumnRef column) {
  AUTOSTATS_CHECK(TablePosition(column.table) >= 0);
  group_by_.push_back(column);
}

int Query::TablePosition(TableId table) const {
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i] == table) return static_cast<int>(i);
  }
  return -1;
}

namespace {

void PushUnique(std::vector<ColumnRef>& out, ColumnRef c) {
  if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
}

}  // namespace

std::vector<ColumnRef> Query::RelevantColumns() const {
  std::vector<ColumnRef> out;
  for (const FilterPredicate& f : filters_) PushUnique(out, f.column);
  for (const JoinPredicate& j : joins_) {
    PushUnique(out, j.left);
    PushUnique(out, j.right);
  }
  for (const ColumnRef& c : group_by_) PushUnique(out, c);
  return out;
}

std::vector<ColumnRef> Query::SelectionColumnsOf(TableId table) const {
  std::vector<ColumnRef> out;
  for (const FilterPredicate& f : filters_) {
    if (f.column.table == table) PushUnique(out, f.column);
  }
  return out;
}

std::vector<ColumnRef> Query::JoinColumnsOf(TableId table) const {
  std::vector<ColumnRef> out;
  for (const JoinPredicate& j : joins_) {
    if (j.left.table == table) PushUnique(out, j.left);
    if (j.right.table == table) PushUnique(out, j.right);
  }
  return out;
}

std::vector<ColumnRef> Query::GroupByColumnsOf(TableId table) const {
  std::vector<ColumnRef> out;
  for (const ColumnRef& c : group_by_) {
    if (c.table == table) PushUnique(out, c);
  }
  return out;
}

std::vector<int> Query::FilterIndicesOf(TableId table) const {
  std::vector<int> out;
  for (size_t i = 0; i < filters_.size(); ++i) {
    if (filters_[i].column.table == table) out.push_back(static_cast<int>(i));
  }
  return out;
}

namespace {

// Exact, type-tagged rendering (Datum::ToString rounds doubles).
std::string DatumToken(const Datum& d) {
  switch (d.type()) {
    case ValueType::kInt64:
      return StrFormat("i%lld", static_cast<long long>(d.AsInt64()));
    case ValueType::kDouble:
      return StrFormat("d%.17g", d.AsDouble());
    case ValueType::kString:
      return "s" + d.AsString();
  }
  return "?";
}

}  // namespace

std::string Query::Fingerprint() const {
  std::string fp = "T:";
  for (TableId t : tables_) fp += StrFormat("%d,", t);
  fp += "|F:";
  for (const FilterPredicate& f : filters_) {
    fp += StrFormat("%d.%d %s ", f.column.table, f.column.column,
                    CompareOpSymbol(f.op));
    fp += DatumToken(f.value);
    if (f.op == CompareOp::kBetween) {
      fp += ' ';
      fp += DatumToken(f.value2);
    }
    fp += ";";
  }
  fp += "|J:";
  for (const JoinPredicate& j : joins_) {
    fp += StrFormat("%d.%d=%d.%d;", j.left.table, j.left.column,
                    j.right.table, j.right.column);
  }
  fp += "|G:";
  for (const ColumnRef& c : group_by_) {
    fp += StrFormat("%d.%d,", c.table, c.column);
  }
  return fp;
}

std::vector<int> Query::JoinIndicesBetween(TableId ta, TableId tb) const {
  std::vector<int> out;
  for (size_t i = 0; i < joins_.size(); ++i) {
    const JoinPredicate& j = joins_[i];
    const bool forward = j.left.table == ta && j.right.table == tb;
    const bool backward = j.left.table == tb && j.right.table == ta;
    if (forward || backward) out.push_back(static_cast<int>(i));
  }
  return out;
}

}  // namespace autostats
