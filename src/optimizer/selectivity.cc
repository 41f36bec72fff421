#include "optimizer/selectivity.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/check.h"

namespace autostats {

namespace {

constexpr double kMinSel = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

double Clamp01(double v) { return std::clamp(v, kMinSel, 1.0); }

// Selectivity of one filter predicate from a histogram.
double HistogramFilterSel(const Histogram& h, const FilterPredicate& f) {
  const double key = f.value.NumericKey();
  switch (f.op) {
    case CompareOp::kEq:
      return Clamp01(h.SelectivityEq(key));
    case CompareOp::kLt:
      return Clamp01(h.SelectivityRange(-kInf, false, key, false));
    case CompareOp::kLe:
      return Clamp01(h.SelectivityRange(-kInf, false, key, true));
    case CompareOp::kGt:
      return Clamp01(h.SelectivityRange(key, false, kInf, true));
    case CompareOp::kGe:
      return Clamp01(h.SelectivityRange(key, true, kInf, true));
    case CompareOp::kBetween:
      return Clamp01(
          h.SelectivityRange(key, true, f.value2.NumericKey(), true));
  }
  return 1.0;
}

double MagicFor(const MagicNumbers& magic, CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return magic.equality;
    case CompareOp::kBetween:
      return magic.closed_range;
    default:
      return magic.open_range;
  }
}

// Distinct count of `column` from the narrowest visible statistic leading
// with it; returns false when no statistic applies.
bool DistinctOf(const StatsView& stats, ColumnRef column, double* distinct) {
  const Statistic* s = stats.HistogramFor(column);
  if (s == nullptr) return false;
  *distinct = s->PrefixDistinct(1);
  return true;
}

struct ColumnGroup {
  ColumnRef column;
  std::vector<int> filter_indices;
};

// Groups a table's filters by column, preserving first-seen order.
std::vector<ColumnGroup> GroupFiltersByColumn(const Query& q, TableId table) {
  std::vector<ColumnGroup> groups;
  for (int i : q.FilterIndicesOf(table)) {
    const ColumnRef col = q.filters()[static_cast<size_t>(i)].column;
    auto it = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
      return g.column == col;
    });
    if (it == groups.end()) {
      groups.push_back(ColumnGroup{col, {i}});
    } else {
      it->filter_indices.push_back(i);
    }
  }
  return groups;
}

// The intersected key interval of all predicates on one column.
struct KeyInterval {
  double lo = -kInf, hi = kInf;
  bool lo_incl = false, hi_incl = true;
  bool have_eq = false;
  double eq_key = 0.0;

  // Closed [lo, hi] endpoints for box estimation (equality collapses the
  // interval to a point; contradictions yield an empty interval).
  double box_lo() const { return have_eq ? eq_key : lo; }
  double box_hi() const { return have_eq ? eq_key : hi; }
};

KeyInterval IntersectFilters(const Query& q,
                             const std::vector<int>& filter_indices) {
  KeyInterval iv;
  for (int i : filter_indices) {
    const FilterPredicate& f = q.filters()[static_cast<size_t>(i)];
    const double key = f.value.NumericKey();
    switch (f.op) {
      case CompareOp::kEq:
        iv.have_eq = true;
        iv.eq_key = key;
        break;
      case CompareOp::kLt:
        if (key < iv.hi || (key == iv.hi && iv.hi_incl)) {
          iv.hi = key;
          iv.hi_incl = false;
        }
        break;
      case CompareOp::kLe:
        if (key < iv.hi) { iv.hi = key; iv.hi_incl = true; }
        break;
      case CompareOp::kGt:
        if (key > iv.lo || (key == iv.lo && iv.lo_incl)) {
          iv.lo = key;
          iv.lo_incl = false;
        }
        break;
      case CompareOp::kGe:
        if (key > iv.lo) { iv.lo = key; iv.lo_incl = true; }
        break;
      case CompareOp::kBetween: {
        if (key > iv.lo) { iv.lo = key; iv.lo_incl = true; }
        const double key2 = f.value2.NumericKey();
        if (key2 < iv.hi) { iv.hi = key2; iv.hi_incl = true; }
        break;
      }
    }
  }
  return iv;
}

// Combined selectivity of all predicates on one column when a histogram is
// available: intersect the ranges instead of assuming independence.
double IntersectedColumnSel(const Histogram& h, const Query& q,
                            const std::vector<int>& filter_indices) {
  const KeyInterval iv = IntersectFilters(q, filter_indices);
  if (iv.have_eq) {
    const bool in_range =
        iv.eq_key > iv.lo &&
        (iv.eq_key < iv.hi || (iv.eq_key == iv.hi && iv.hi_incl));
    const bool at_lo = iv.lo_incl && iv.eq_key == iv.lo;
    if (!in_range && !at_lo) return kMinSel;
    return Clamp01(h.SelectivityEq(iv.eq_key));
  }
  return Clamp01(h.SelectivityRange(iv.lo, iv.lo_incl, iv.hi, iv.hi_incl));
}

// Table pairs (pa < pb, in (pa, pb) order) joined by two or more
// predicates: the kJoinConjunction variables, numbered in this order.
std::vector<TablePairJoins> MultiPredicatePairs(const Query& query) {
  std::vector<TablePairJoins> pairs;
  for (int pa = 0; pa < query.num_tables(); ++pa) {
    for (int pb = pa + 1; pb < query.num_tables(); ++pb) {
      std::vector<int> idx = query.JoinIndicesBetween(
          query.tables()[static_cast<size_t>(pa)],
          query.tables()[static_cast<size_t>(pb)]);
      if (idx.size() < 2) continue;
      pairs.push_back(TablePairJoins{pa, pb, std::move(idx)});
    }
  }
  return pairs;
}

}  // namespace

int SelectivityAnalysis::PairIndexFor(int pos_a, int pos_b) const {
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const TablePairJoins& p = pairs_[i];
    if ((p.pos_a == pos_a && p.pos_b == pos_b) ||
        (p.pos_a == pos_b && p.pos_b == pos_a)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

double SelectivityAnalysis::EstimateGroups(double input_rows) const {
  double groups = 1.0;
  for (double d : group_distinct_) groups *= d;
  return std::max(1.0, std::min(groups, std::max(input_rows, 1.0)));
}

double SelectivityAnalysis::SkewFactor(ColumnRef column) const {
  auto it = skew_factor_.find(column);
  return it == skew_factor_.end() ? 1.0 : it->second;
}

std::vector<SelVarBinding> SelectivityAnalysis::UncertainBindings() const {
  std::vector<SelVarBinding> out;
  for (const SelVarBinding& b : bindings_) {
    if (!b.pinned()) out.push_back(b);
  }
  return out;
}

SelectivityAnalysis AnalyzeSelectivities(const Database& db,
                                         const Query& query,
                                         const StatsView& stats,
                                         const MagicNumbers& magic,
                                         const SelectivityOverrides& overrides,
                                         double epsilon) {
  SelectivityAnalysis a;
  const size_t nf = query.filters().size();
  const size_t nj = query.joins().size();
  const size_t nt = static_cast<size_t>(query.num_tables());
  a.filter_sel_.assign(nf, 1.0);
  a.join_sel_.assign(nj, 1.0);
  a.table_sel_.assign(nt, 1.0);
  a.group_distinct_.assign(nt, 1.0);

  auto override_of = [&](SelVar v, double* out) {
    auto it = overrides.find(v);
    if (it == overrides.end()) return false;
    *out = Clamp01(it->second);
    return true;
  };
  auto add_binding = [&](SelVar var, double value, double low, double high,
                         bool from_magic) {
    SelVarBinding b;
    b.var = var;
    b.value = Clamp01(value);
    b.low = Clamp01(low);
    b.high = Clamp01(std::max(low, high));
    b.from_magic = from_magic;
    a.bindings_.push_back(b);
  };

  // Track which filters were overridden (they bypass intersection logic).
  std::vector<bool> filter_overridden(nf, false);
  std::vector<bool> filter_pinned(nf, false);

  // --- 1. Individual filter predicates ---
  for (size_t i = 0; i < nf; ++i) {
    const FilterPredicate& f = query.filters()[i];
    const SelVar var{SelVar::Kind::kFilter, static_cast<int>(i)};
    double v = 0.0;
    if (override_of(var, &v)) {
      a.filter_sel_[i] = v;
      filter_overridden[i] = true;
      filter_pinned[i] = true;
      add_binding(var, v, v, v, false);
      continue;
    }
    const Statistic* s = stats.HistogramFor(f.column);
    if (s != nullptr && !s->histogram().empty()) {
      const double sel = HistogramFilterSel(s->histogram(), f);
      a.filter_sel_[i] = sel;
      filter_pinned[i] = true;
      add_binding(var, sel, sel, sel, false);
    } else {
      const double sel = MagicFor(magic, f.op);
      a.filter_sel_[i] = sel;
      add_binding(var, sel, epsilon, 1.0 - epsilon, true);
    }
  }

  // --- 2. Per-table combined selection selectivity ---
  for (size_t pos = 0; pos < nt; ++pos) {
    const TableId table = query.tables()[pos];
    const std::vector<int> filter_idx = query.FilterIndicesOf(table);
    if (filter_idx.empty()) {
      a.table_sel_[pos] = 1.0;
      continue;
    }
    const SelVar var{SelVar::Kind::kTableConjunction, static_cast<int>(pos)};
    double v = 0.0;
    if (override_of(var, &v)) {
      a.table_sel_[pos] = v;
      add_binding(var, v, v, v, false);
      continue;
    }

    // Per-column combination first (intersection within a column when a
    // histogram is available; independence product otherwise).
    const std::vector<ColumnGroup> groups = GroupFiltersByColumn(query, table);
    std::vector<double> col_sel;
    std::vector<ColumnRef> col_refs;
    bool all_pinned = true;
    for (const ColumnGroup& g : groups) {
      bool any_override = false;
      for (int i : g.filter_indices) {
        if (filter_overridden[static_cast<size_t>(i)]) any_override = true;
        if (!filter_pinned[static_cast<size_t>(i)]) all_pinned = false;
      }
      const Statistic* s = stats.HistogramFor(g.column);
      double sel;
      if (s != nullptr && !s->histogram().empty() &&
          g.filter_indices.size() > 1 && !any_override) {
        sel = IntersectedColumnSel(s->histogram(), query, g.filter_indices);
      } else {
        sel = 1.0;
        for (int i : g.filter_indices) {
          sel *= a.filter_sel_[static_cast<size_t>(i)];
        }
      }
      col_sel.push_back(Clamp01(sel));
      col_refs.push_back(g.column);
    }

    if (col_sel.size() == 1) {
      a.table_sel_[pos] = col_sel[0];
      continue;
    }

    double product = 1.0, sum = 0.0, min_sel = 1.0;
    for (double s : col_sel) {
      product *= s;
      sum += s;
      min_sel = std::min(min_sel, s);
    }

    // Multi-column statistic covering the full selection column set?
    std::vector<ColumnId> col_ids;
    for (const ColumnRef& c : col_refs) col_ids.push_back(c.column);
    int prefix_len = 0;
    const Statistic* multi = stats.DensityFor(table, col_ids, &prefix_len);
    if (multi != nullptr && multi->has_grid2d() && col_refs.size() == 2 &&
        multi->width() == 2) {
      // MHIST-2 joint grid: estimate the conjunction of the two columns'
      // intervals directly over the joint distribution.
      KeyInterval iv[2];
      for (int dim = 0; dim < 2; ++dim) {
        const ColumnRef dim_col = multi->columns()[static_cast<size_t>(dim)];
        for (const ColumnGroup& g : groups) {
          if (g.column == dim_col) {
            iv[dim] = IntersectFilters(query, g.filter_indices);
          }
        }
      }
      const double sel = Clamp01(multi->grid2d().SelectivityBox(
          iv[0].box_lo(), iv[0].box_hi(), iv[1].box_lo(), iv[1].box_hi()));
      a.table_sel_[pos] = sel;
      add_binding(var, sel, sel, sel, false);
      continue;
    }
    // Prefix densities describe joint *distinct* counts, which is sound
    // for equality conjunctions only; range conjunctions keep the
    // independence estimate unless a joint grid exists.
    bool all_equality = true;
    for (int i : filter_idx) {
      if (query.filters()[static_cast<size_t>(i)].op != CompareOp::kEq) {
        all_equality = false;
      }
    }
    if (multi != nullptr && all_equality) {
      // Correlation factor: how far the joint distinct count falls short
      // of the independence product of per-column distinct counts.
      double v_product = 1.0;
      double prev = 1.0;
      for (int k = 1; k <= prefix_len; ++k) {
        const ColumnRef ck = multi->columns()[static_cast<size_t>(k - 1)];
        double vk = 0.0;
        if (!DistinctOf(stats, ck, &vk)) {
          vk = multi->PrefixDistinct(k) / prev;  // prefix-ratio proxy
        }
        v_product *= std::max(vk, 1.0);
        prev = multi->PrefixDistinct(k);
      }
      const double corr =
          std::max(1.0, v_product / multi->PrefixDistinct(prefix_len));
      const double sel = Clamp01(std::min(product * corr, min_sel));
      a.table_sel_[pos] = sel;
      add_binding(var, sel, sel, sel, false);
      continue;
    }

    a.table_sel_[pos] = Clamp01(product);
    if (all_pinned) {
      // Residual correlation uncertainty (Frechet bounds): MNSA sweeps this
      // to decide whether the multi-column statistic is worth building.
      const double frechet_low =
          std::max(kMinSel, sum - (static_cast<double>(col_sel.size()) - 1.0));
      add_binding(var, product, frechet_low, min_sel, false);
    }
  }

  // Frequency-skew multiplier from a histogram: (sum f^2 / N) / (N / V).
  auto record_skew = [&](ColumnRef column) {
    if (a.skew_factor_.count(column)) return;
    const Statistic* s = stats.HistogramFor(column);
    if (s == nullptr || s->histogram().empty()) return;
    const Histogram& h = s->histogram();
    double sum_f2 = 0.0;
    for (const HistogramBucket& b : h.buckets()) {
      const double d = std::max(b.distinct, 1.0);
      sum_f2 += b.rows * b.rows / d;  // d values of frequency rows/d each
    }
    const double n = std::max(h.total_rows(), 1.0);
    const double uniform_mean = n / std::max(h.total_distinct(), 1.0);
    a.skew_factor_[column] =
        std::max(1.0, (sum_f2 / n) / std::max(uniform_mean, 1e-9));
  };

  // --- 3. Individual join predicates ---
  std::vector<bool> join_pinned(nj, false);
  for (size_t j = 0; j < nj; ++j) {
    const JoinPredicate& jp = query.joins()[j];
    const SelVar var{SelVar::Kind::kJoin, static_cast<int>(j)};
    double v = 0.0;
    if (override_of(var, &v)) {
      a.join_sel_[j] = v;
      join_pinned[j] = true;
      add_binding(var, v, v, v, false);
      continue;
    }
    record_skew(jp.left);
    record_skew(jp.right);
    double vl = 0.0, vr = 0.0;
    const bool has_l = DistinctOf(stats, jp.left, &vl);
    const bool has_r = DistinctOf(stats, jp.right, &vr);
    if (has_l && has_r) {
      const double sel = Clamp01(1.0 / std::max({vl, vr, 1.0}));
      a.join_sel_[j] = sel;
      join_pinned[j] = true;
      add_binding(var, sel, sel, sel, false);
    } else if (has_l || has_r) {
      // One-sided: 1/V(known) is an upper bound on 1/max(Vl, Vr).
      const double known = std::max(has_l ? vl : vr, 1.0);
      const double sel = Clamp01(1.0 / known);
      a.join_sel_[j] = sel;
      add_binding(var, sel, kMinSel, sel, false);
    } else {
      a.join_sel_[j] = Clamp01(magic.join);
      add_binding(var, magic.join, epsilon, 1.0 - epsilon, true);
    }
  }

  // --- 4. Multi-predicate table pairs ---
  a.pairs_ = MultiPredicatePairs(query);
  a.pair_sel_.assign(a.pairs_.size(), 1.0);
  for (size_t p = 0; p < a.pairs_.size(); ++p) {
    const TablePairJoins& pr = a.pairs_[p];
    const SelVar var{SelVar::Kind::kJoinConjunction, static_cast<int>(p)};
    const TableId ta = query.tables()[static_cast<size_t>(pr.pos_a)];
    const TableId tb = query.tables()[static_cast<size_t>(pr.pos_b)];
    double v = 0.0;
    if (override_of(var, &v)) {
      a.pair_sel_[p] = v;
      add_binding(var, v, v, v, false);
      continue;
    }
    double product = 1.0, min_sel = 1.0;
    bool all_pinned = true;
    for (int j : pr.join_indices) {
      const double s = a.join_sel_[static_cast<size_t>(j)];
      product *= s;
      min_sel = std::min(min_sel, s);
      if (!join_pinned[static_cast<size_t>(j)]) all_pinned = false;
    }
    // Multi-column join statistics on both sides?
    std::vector<ColumnId> cols_a, cols_b;
    for (int j : pr.join_indices) {
      const JoinPredicate& jp = query.joins()[static_cast<size_t>(j)];
      const ColumnRef ca = jp.left.table == ta ? jp.left : jp.right;
      const ColumnRef cb = jp.left.table == tb ? jp.left : jp.right;
      cols_a.push_back(ca.column);
      cols_b.push_back(cb.column);
    }
    int len_a = 0, len_b = 0;
    const Statistic* sa = stats.DensityFor(ta, cols_a, &len_a);
    const Statistic* sb = stats.DensityFor(tb, cols_b, &len_b);
    if (sa != nullptr && sb != nullptr) {
      const double sel = Clamp01(
          1.0 / std::max({sa->PrefixDistinct(len_a),
                          sb->PrefixDistinct(len_b), 1.0}));
      a.pair_sel_[p] = sel;
      add_binding(var, sel, sel, sel, false);
      continue;
    }
    a.pair_sel_[p] = Clamp01(product);
    if (all_pinned) {
      add_binding(var, product, kMinSel, min_sel, false);
    }
  }

  // --- 5. GROUP BY distinct fractions, per table ---
  for (size_t pos = 0; pos < nt; ++pos) {
    const TableId table = query.tables()[pos];
    const std::vector<ColumnRef> gcols = query.GroupByColumnsOf(table);
    if (gcols.empty()) continue;
    const double rows =
        std::max(1.0, static_cast<double>(db.table(table).num_rows()));
    const SelVar var{SelVar::Kind::kGroupBy, static_cast<int>(pos)};
    double v = 0.0;
    if (override_of(var, &v)) {
      a.group_distinct_[pos] = std::max(1.0, v * rows);
      add_binding(var, v, v, v, false);
      continue;
    }
    std::vector<ColumnId> col_ids;
    for (const ColumnRef& c : gcols) col_ids.push_back(c.column);
    if (gcols.size() >= 2) {
      int prefix_len = 0;
      const Statistic* multi = stats.DensityFor(table, col_ids, &prefix_len);
      if (multi != nullptr) {
        const double d = multi->PrefixDistinct(prefix_len);
        a.group_distinct_[pos] = std::max(1.0, d);
        const double f = Clamp01(d / rows);
        add_binding(var, f, f, f, false);
        continue;
      }
    }
    double v_product = 1.0, v_max = 1.0;
    bool all_present = true;
    for (const ColumnRef& c : gcols) {
      double vc = 0.0;
      if (!DistinctOf(stats, c, &vc)) {
        all_present = false;
        break;
      }
      v_product *= std::max(vc, 1.0);
      v_max = std::max(v_max, vc);
    }
    if (!all_present) {
      const double f = magic.group_by_fraction;
      a.group_distinct_[pos] = std::max(1.0, f * rows);
      add_binding(var, f, epsilon, 1.0 - epsilon, true);
      continue;
    }
    const double d = std::min(v_product, rows);
    a.group_distinct_[pos] = std::max(1.0, d);
    const double f = Clamp01(d / rows);
    if (gcols.size() == 1) {
      add_binding(var, f, f, f, false);
    } else {
      // Correlation uncertainty between independence product and the
      // largest single-column distinct count.
      add_binding(var, f, Clamp01(v_max / rows), f, false);
    }
  }

  return a;
}

std::string DescribeSelVar(const Database& db, const Query& query,
                           const SelVar& var) {
  const size_t i = static_cast<size_t>(var.index);
  auto table_name = [&](int pos) -> const std::string& {
    return db.table(query.tables()[static_cast<size_t>(pos)])
        .schema()
        .table_name();
  };
  switch (var.kind) {
    case SelVar::Kind::kFilter:
      return query.filters()[i].ToString(db);
    case SelVar::Kind::kJoin:
      return query.joins()[i].ToString(db);
    case SelVar::Kind::kTableConjunction:
      return table_name(var.index) + " conjunction";
    case SelVar::Kind::kJoinConjunction: {
      const std::vector<TablePairJoins> pairs = MultiPredicatePairs(query);
      return table_name(pairs[i].pos_a) + "-" + table_name(pairs[i].pos_b) +
             " join conjunction";
    }
    case SelVar::Kind::kGroupBy:
      return "GROUP BY fraction of " + table_name(var.index);
  }
  return "";
}

}  // namespace autostats
