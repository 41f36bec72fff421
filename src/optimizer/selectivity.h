// Selectivity analysis: the optimizer's dependence on statistics, made
// explicit as the paper requires (§4.1). Every predicate (and predicate
// combination) of a query is characterized by a *selectivity variable*;
// each variable is bound either from a statistic, from an independence
// combination of statistics, or from a default magic number. Each binding
// carries its residual-uncertainty interval [low, high]:
//
//   * magic-bound variables:            [epsilon, 1 - epsilon]
//   * one-sided join statistics:        [epsilon, 1/V(known side)]
//   * independence-combined conjunction: Frechet-style bounds
//       filters: [max(0, sum - (k-1)), min_i s_i]
//       joins:   [epsilon, min_i s_i]
//       group-by sets: [max_i V_i, min(prod_i V_i, |T|)] / |T|
//   * statistic-bound variables:        [value, value]  (pinned)
//
// MNSA constructs P_low / P_high by overriding every uncertain variable to
// its low / high end — the generalization of "set magic-bound variables to
// epsilon / 1-epsilon" that also lets MNSA decide when *multi-column*
// statistics are worth building (the paper's note that step (a) "needs to
// be extended" when several statistics of different accuracy apply).
//
// SelectivityOverrides implements the server extension of §7.2: the
// selectivity estimation module accepts per-variable selectivities as
// parameters instead of its compile-time magic constants.
#ifndef AUTOSTATS_OPTIMIZER_SELECTIVITY_H_
#define AUTOSTATS_OPTIMIZER_SELECTIVITY_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/database.h"
#include "optimizer/magic.h"
#include "query/query.h"
#include "stats/stats_catalog.h"

namespace autostats {

// The epsilon of §4.1 (the paper uses 0.0005 in its implementation).
inline constexpr double kDefaultEpsilon = 0.0005;

struct SelVar {
  enum class Kind {
    kFilter,           // index = filter predicate index
    kJoin,             // index = join predicate index
    kTableConjunction, // index = table position; combination of its filters
    kJoinConjunction,  // index = pair index (see SelectivityAnalysis::pairs)
    kGroupBy,          // index = table position; distinct fraction
  };

  Kind kind = Kind::kFilter;
  int index = 0;

  bool operator==(const SelVar&) const = default;
};

struct SelVarHash {
  size_t operator()(const SelVar& v) const {
    return static_cast<size_t>(v.kind) * 1000003u +
           static_cast<size_t>(v.index);
  }
};

using SelectivityOverrides = std::unordered_map<SelVar, double, SelVarHash>;

struct SelVarBinding {
  SelVar var;
  double value = 0.0;  // the selectivity the optimizer will use
  double low = 0.0;    // residual uncertainty interval
  double high = 0.0;
  bool from_magic = false;  // value is a default constant

  bool pinned() const { return high - low <= 1e-12; }
};

// A table pair (by positions in Query::tables()) connected by two or more
// join predicates; carries a kJoinConjunction variable.
struct TablePairJoins {
  int pos_a = 0;
  int pos_b = 0;
  std::vector<int> join_indices;
};

// The result of analyzing one query against one statistics view with one
// set of overrides. Snapshot semantics: valid as long as the inputs live.
class SelectivityAnalysis {
 public:
  // Effective selectivity of filter predicate i.
  double filter_sel(int i) const { return filter_sel_[static_cast<size_t>(i)]; }
  // Combined selection selectivity of the table at position `pos`.
  double table_sel(int pos) const { return table_sel_[static_cast<size_t>(pos)]; }
  // Effective selectivity of join predicate j.
  double join_sel(int j) const { return join_sel_[static_cast<size_t>(j)]; }

  // Multi-predicate table pairs and their combined selectivities.
  const std::vector<TablePairJoins>& pairs() const { return pairs_; }
  double pair_sel(int pair_idx) const {
    return pair_sel_[static_cast<size_t>(pair_idx)];
  }
  // Pair index for positions (a, b), or -1 when fewer than 2 predicates
  // connect them.
  int PairIndexFor(int pos_a, int pos_b) const;

  // Estimated number of result groups given the aggregate's input rows.
  double EstimateGroups(double input_rows) const;

  // All selectivity variables of the query.
  const std::vector<SelVarBinding>& bindings() const { return bindings_; }
  // The variables MNSA must sweep: those with low < high.
  std::vector<SelVarBinding> UncertainBindings() const;

  // Frequency-skew multiplier of a join column (>= 1): the ratio of the
  // frequency-weighted mean frequency (sum f^2 / N) to the uniform mean
  // (N / V), from the column's histogram; 1 without statistics. Join
  // methods whose cost depends on per-value match counts (index nested
  // loops) use it to avoid catastrophic underestimates on skewed columns.
  double SkewFactor(ColumnRef column) const;

 private:
  friend SelectivityAnalysis AnalyzeSelectivities(
      const Database&, const Query&, const StatsView&, const MagicNumbers&,
      const SelectivityOverrides&, double);

  std::vector<double> filter_sel_;
  std::vector<double> table_sel_;
  std::vector<double> join_sel_;
  std::vector<TablePairJoins> pairs_;
  std::vector<double> pair_sel_;
  // Per table position: estimated distinct count of its GROUP BY columns
  // (1.0 when the table has none).
  std::vector<double> group_distinct_;
  std::vector<SelVarBinding> bindings_;
  std::unordered_map<ColumnRef, double, ColumnRefHash> skew_factor_;
};

SelectivityAnalysis AnalyzeSelectivities(
    const Database& db, const Query& query, const StatsView& stats,
    const MagicNumbers& magic, const SelectivityOverrides& overrides = {},
    double epsilon = kDefaultEpsilon);

// Human-readable text of one selectivity variable of `query`
// ("lineitem.l_quantity < 24", "orders conjunction", ...). Built on
// demand for reports; the analysis itself formats nothing.
std::string DescribeSelVar(const Database& db, const Query& query,
                           const SelVar& var);

}  // namespace autostats

#endif  // AUTOSTATS_OPTIMIZER_SELECTIVITY_H_
