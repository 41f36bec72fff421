#include "stats/statistic.h"

#include <algorithm>

#include "common/check.h"
#include "common/str_util.h"

namespace autostats {

StatKey MakeStatKey(const std::vector<ColumnRef>& columns) {
  AUTOSTATS_CHECK(!columns.empty());
  std::string key = StrFormat("%d:", columns.front().table);
  for (size_t i = 0; i < columns.size(); ++i) {
    AUTOSTATS_CHECK_MSG(columns[i].table == columns.front().table,
                        "statistic columns must share a table");
    if (i > 0) key += ",";
    key += StrFormat("%d", columns[i].column);
  }
  return key;
}

Statistic::Statistic(std::vector<ColumnRef> columns, Histogram histogram,
                     std::vector<double> prefix_distinct,
                     double rows_at_build)
    : columns_(std::move(columns)),
      histogram_(std::move(histogram)),
      prefix_distinct_(std::move(prefix_distinct)),
      rows_at_build_(rows_at_build) {
  AUTOSTATS_CHECK(!columns_.empty());
  AUTOSTATS_CHECK(prefix_distinct_.size() == columns_.size());
}

double Statistic::PrefixDistinct(int k) const {
  AUTOSTATS_CHECK(k >= 1 && k <= width());
  return std::max(prefix_distinct_[static_cast<size_t>(k - 1)], 1.0);
}

std::string Statistic::Name(const Database& db) const {
  const Table& t = db.table(table());
  std::vector<std::string> names;
  names.reserve(columns_.size());
  for (const ColumnRef& c : columns_) {
    names.push_back(t.schema().column(c.column).name);
  }
  return t.schema().table_name() + "(" + Join(names, ", ") + ")";
}

}  // namespace autostats
