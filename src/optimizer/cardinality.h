// Cardinality model: row-count estimates derived from a selectivity
// analysis. Join cardinalities are per table-subset (bitmask over the
// query's table positions), which is what the DP enumerator consumes.
// The per-table filtered rows and each table pair's join factors are
// computed once, at construction; JoinRows multiplies the ones inside a
// subset in a fixed order, so every subset's estimate is bit-identical
// to deriving them per subset.
#ifndef AUTOSTATS_OPTIMIZER_CARDINALITY_H_
#define AUTOSTATS_OPTIMIZER_CARDINALITY_H_

#include <cstdint>
#include <vector>

#include "catalog/database.h"
#include "optimizer/selectivity.h"
#include "query/query.h"

namespace autostats {

class CardinalityModel {
 public:
  CardinalityModel(const Database* db, const Query* query,
                   const SelectivityAnalysis* sel);

  // |T| of the table at position `pos`.
  double BaseRows(int pos) const;
  // Rows of table `pos` surviving its selection predicates.
  double FilteredRows(int pos) const;
  // Rows of the join of the tables in `mask` (after all selections and all
  // join predicates internal to the mask; missing join edges mean a cross
  // product).
  double JoinRows(uint32_t mask) const;
  // Result groups of the aggregation over `input_rows` join rows.
  double GroupRows(double input_rows) const;

  const SelectivityAnalysis& sel() const { return *sel_; }

 private:
  // One selectivity JoinRows multiplies in when both tables of `pair`
  // (a two-bit position mask) are in the subset.
  struct JoinFactor {
    uint32_t pair;
    double sel;
  };

  const Database* db_;
  const Query* query_;
  const SelectivityAnalysis* sel_;
  std::vector<double> filtered_rows_;  // per table position
  // Per table pair (pa < pb, in (pa, pb) order): the combined pair
  // selectivity when two or more predicates join them, else each join
  // predicate's selectivity in index order.
  std::vector<JoinFactor> join_factors_;
};

}  // namespace autostats

#endif  // AUTOSTATS_OPTIMIZER_CARDINALITY_H_
