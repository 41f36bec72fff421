// Statistic: the unit managed by this library. Mirrors the structure the
// paper assumes from Microsoft SQL Server 7.0 (§7.1): a statistic over
// columns (c1, ..., cn) of one table is *asymmetric* — it carries a
// histogram on the leading column c1 plus density information (distinct
// counts) on every leading prefix (c1), (c1,c2), ..., (c1,...,cn).
#ifndef AUTOSTATS_STATS_STATISTIC_H_
#define AUTOSTATS_STATS_STATISTIC_H_

#include <string>
#include <vector>

#include "catalog/database.h"
#include "catalog/schema.h"
#include "stats/histogram.h"
#include "stats/mhist.h"

namespace autostats {

// Canonical identity of a statistic: its ordered column list. Keys are
// strings ("3:1,5,2") so they index hash maps directly.
using StatKey = std::string;

StatKey MakeStatKey(const std::vector<ColumnRef>& columns);

class Statistic {
 public:
  Statistic() = default;
  Statistic(std::vector<ColumnRef> columns, Histogram histogram,
            std::vector<double> prefix_distinct, double rows_at_build);

  const std::vector<ColumnRef>& columns() const { return columns_; }
  ColumnRef leading_column() const { return columns_.front(); }
  TableId table() const { return columns_.front().table; }
  int width() const { return static_cast<int>(columns_.size()); }

  const Histogram& histogram() const { return histogram_; }
  double rows_at_build() const { return rows_at_build_; }

  // Distinct tuples over the first k columns (1 <= k <= width()).
  double PrefixDistinct(int k) const;
  // SQL Server density: average fraction of rows per distinct prefix.
  double PrefixDensity(int k) const { return 1.0 / PrefixDistinct(k); }

  // Optional MHIST-2 joint grid (two-column statistics built with
  // StatsBuildConfig::build_2d_grids): estimates range-predicate
  // conjunctions over correlated pairs, which prefix densities cannot.
  bool has_grid2d() const { return !grid2d_.empty(); }
  const Histogram2D& grid2d() const { return grid2d_; }
  void set_grid2d(Histogram2D grid) { grid2d_ = std::move(grid); }

  StatKey key() const { return MakeStatKey(columns_); }

  // "lineitem(l_shipdate, l_quantity)" for reports.
  std::string Name(const Database& db) const;

 private:
  std::vector<ColumnRef> columns_;
  Histogram histogram_;
  Histogram2D grid2d_;  // empty unless built with 2-D grids enabled
  std::vector<double> prefix_distinct_;
  double rows_at_build_ = 0.0;
};

}  // namespace autostats

#endif  // AUTOSTATS_STATS_STATISTIC_H_
