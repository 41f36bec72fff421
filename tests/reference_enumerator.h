// Reference join enumerator: the tree-building Selinger DP that
// optimizer/enumerator.cc replaced, kept verbatim as a test oracle. It
// materializes a PlanNode tree for every alternative it tries (deep-copying
// the outer subtree each time) and keeps the cheapest. The shipped
// enumerator keeps only numbers per table subset and builds one tree at
// the end; enumerator_test checks the two agree on every node field, bit
// for bit (PlanDiff), and bench_hotpath times them against each other.
//
// ReferenceJoinRows is the per-subset CardinalityModel::JoinRows that
// optimizer/cardinality.cc replaced: it re-derives every table pair's join
// predicates for each subset. Both enumerators above share one
// CardinalityModel, so only enumerator_test's JoinRows comparison can see
// a change to it.
#ifndef AUTOSTATS_TESTS_REFERENCE_ENUMERATOR_H_
#define AUTOSTATS_TESTS_REFERENCE_ENUMERATOR_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "optimizer/enumerator.h"
#include "optimizer/join_graph.h"

namespace autostats::testing {

namespace reference_internal {

constexpr double kInfCost = std::numeric_limits<double>::infinity();

inline std::unique_ptr<PlanNode> DeepCopy(const PlanNode& node) {
  auto copy = std::make_unique<PlanNode>();
  copy->op = node.op;
  copy->table = node.table;
  copy->index_name = node.index_name;
  copy->filter_indices = node.filter_indices;
  copy->join_indices = node.join_indices;
  copy->group_by = node.group_by;
  copy->est_rows = node.est_rows;
  copy->cost_local = node.cost_local;
  copy->cost_subtree = node.cost_subtree;
  for (const auto& child : node.children) {
    copy->children.push_back(DeepCopy(*child));
  }
  return copy;
}

// Best single-table access path for the table at position `pos`.
inline std::unique_ptr<PlanNode> BestAccessPath(const Database& db,
                                                const Query& query,
                                                const CardinalityModel& card,
                                                const CostModel& cost,
                                                const EnumeratorConfig& config,
                                                int pos) {
  const TableId table = query.tables()[static_cast<size_t>(pos)];
  const std::vector<int> filters = query.FilterIndicesOf(table);
  const double base_rows = card.BaseRows(pos);
  const double out_rows = card.FilteredRows(pos);

  auto scan = std::make_unique<PlanNode>();
  scan->op = PlanOp::kTableScan;
  scan->table = table;
  scan->filter_indices = filters;
  scan->est_rows = out_rows;
  scan->cost_local = cost.ScanCost(base_rows, static_cast<int>(filters.size()));
  scan->cost_subtree = scan->cost_local;

  std::unique_ptr<PlanNode> best = std::move(scan);
  if (!config.enable_index_seek) return best;

  for (const IndexDef* index : db.IndexesOn(table)) {
    const ColumnRef leading = index->LeadingColumn();
    // Sargable: at least one selection predicate on the leading column.
    double seek_sel = 1.0;
    std::vector<int> residual;
    bool sargable = false;
    for (int i : filters) {
      const FilterPredicate& f = query.filters()[static_cast<size_t>(i)];
      if (f.column == leading) {
        sargable = true;
        seek_sel *= card.sel().filter_sel(i);
      } else {
        residual.push_back(i);
      }
    }
    if (!sargable) continue;
    const double matched = std::max(1.0, base_rows * seek_sel);
    auto seek = std::make_unique<PlanNode>();
    seek->op = PlanOp::kIndexSeek;
    seek->table = table;
    seek->index_name = index->name;
    seek->filter_indices = filters;
    seek->est_rows = out_rows;
    seek->cost_local = cost.IndexSeekCost(base_rows, matched,
                                          static_cast<int>(residual.size()));
    seek->cost_subtree = seek->cost_local;
    if (seek->cost_subtree < best->cost_subtree) best = std::move(seek);
  }
  return best;
}

struct JoinAlternative {
  std::unique_ptr<PlanNode> node;
  double cost = kInfCost;
};

inline void Consider(JoinAlternative* best, std::unique_ptr<PlanNode> node) {
  if (node->cost_subtree < best->cost) {
    best->cost = node->cost_subtree;
    best->node = std::move(node);
  }
}

}  // namespace reference_internal

// Rows of the join of the tables in `mask`, as CardinalityModel::JoinRows
// computed them per subset.
inline double ReferenceJoinRows(const Query& query,
                                const CardinalityModel& card,
                                uint32_t mask) {
  const SelectivityAnalysis& sel = card.sel();
  double rows = 1.0;
  for (int pos = 0; pos < query.num_tables(); ++pos) {
    if (mask & (1u << pos)) {
      rows *= std::max(1.0, card.BaseRows(pos) * sel.table_sel(pos));
    }
  }
  // Apply join selectivities for every predicate whose two tables are both
  // in the mask; pairs with >= 2 predicates use the combined pair
  // selectivity (which may come from a multi-column statistic).
  for (int pa = 0; pa < query.num_tables(); ++pa) {
    if (!(mask & (1u << pa))) continue;
    for (int pb = pa + 1; pb < query.num_tables(); ++pb) {
      if (!(mask & (1u << pb))) continue;
      const int pair = sel.PairIndexFor(pa, pb);
      if (pair >= 0) {
        rows *= sel.pair_sel(pair);
        continue;
      }
      const std::vector<int> idx = query.JoinIndicesBetween(
          query.tables()[static_cast<size_t>(pa)],
          query.tables()[static_cast<size_t>(pb)]);
      for (int j : idx) rows *= sel.join_sel(j);
    }
  }
  return std::max(1.0, rows);
}

inline Plan ReferenceEnumerateJoins(const Database& db, const Query& query,
                                    const CardinalityModel& card,
                                    const CostModel& cost,
                                    const EnumeratorConfig& config) {
  using reference_internal::BestAccessPath;
  using reference_internal::Consider;
  using reference_internal::DeepCopy;
  using reference_internal::JoinAlternative;

  const int n = query.num_tables();
  AUTOSTATS_CHECK_MSG(n >= 1 && n <= 20, "unsupported table count");
  const uint32_t full = (n == 32) ? ~0u : ((1u << n) - 1u);
  JoinGraph graph(query);

  // Per-position base access paths.
  std::vector<std::unique_ptr<PlanNode>> base(static_cast<size_t>(n));
  for (int pos = 0; pos < n; ++pos) {
    base[static_cast<size_t>(pos)] =
        BestAccessPath(db, query, card, cost, config, pos);
  }

  std::vector<std::unique_ptr<PlanNode>> dp(full + 1);
  for (int pos = 0; pos < n; ++pos) {
    dp[1u << pos] = DeepCopy(*base[static_cast<size_t>(pos)]);
  }

  // Iterate masks in increasing popcount order (numeric order suffices for
  // left-deep DP since rest = mask ^ bit < mask).
  for (uint32_t mask = 1; mask <= full; ++mask) {
    const int popcount = __builtin_popcount(mask);
    if (popcount < 2) continue;
    JoinAlternative best;
    const double out_rows = card.JoinRows(mask);
    for (int t = 0; t < n; ++t) {
      const uint32_t bit = 1u << t;
      if (!(mask & bit)) continue;
      const uint32_t rest = mask ^ bit;
      if (!dp[rest]) continue;
      const bool connected = graph.ConnectedTo(t, rest);
      // Prefer connected extensions; allow cross products only when this
      // mask has no connected way to grow (disconnected query graphs).
      if (!connected && graph.IsConnected(mask)) continue;

      std::vector<int> join_idx;
      for (int other = 0; other < n; ++other) {
        if (!(rest & (1u << other))) continue;
        const std::vector<int> between = query.JoinIndicesBetween(
            query.tables()[static_cast<size_t>(t)],
            query.tables()[static_cast<size_t>(other)]);
        join_idx.insert(join_idx.end(), between.begin(), between.end());
      }

      const PlanNode& outer = *dp[rest];
      const PlanNode& inner = *base[static_cast<size_t>(t)];
      const TableId inner_table = query.tables()[static_cast<size_t>(t)];

      auto make_join = [&](PlanOp op, double local,
                           std::unique_ptr<PlanNode> left,
                           std::unique_ptr<PlanNode> right) {
        auto node = std::make_unique<PlanNode>();
        node->op = op;
        node->join_indices = join_idx;
        node->est_rows = out_rows;
        node->cost_local = local;
        node->cost_subtree = local + left->cost_subtree +
                             (right ? right->cost_subtree : 0.0);
        node->children.push_back(std::move(left));
        if (right) node->children.push_back(std::move(right));
        return node;
      };

      if (config.enable_hash_join && !join_idx.empty()) {
        // Build on the new table (typical), and build on the outer side.
        Consider(&best,
                 make_join(PlanOp::kHashJoin,
                           cost.HashJoinCost(inner.est_rows, outer.est_rows,
                                             out_rows),
                           DeepCopy(outer), DeepCopy(inner)));
        Consider(&best,
                 make_join(PlanOp::kHashJoin,
                           cost.HashJoinCost(outer.est_rows, inner.est_rows,
                                             out_rows),
                           DeepCopy(inner), DeepCopy(outer)));
      }
      if (config.enable_merge_join && !join_idx.empty()) {
        Consider(&best,
                 make_join(PlanOp::kMergeJoin,
                           cost.MergeJoinCost(outer.est_rows, inner.est_rows,
                                              out_rows),
                           DeepCopy(outer), DeepCopy(inner)));
      }
      if (config.enable_nested_loop) {
        Consider(&best,
                 make_join(PlanOp::kNestedLoopJoin,
                           cost.NestedLoopCost(outer.est_rows, inner.est_rows,
                                               out_rows),
                           DeepCopy(outer), DeepCopy(inner)));
      }
      if (config.enable_index_nested_loop) {
        // Drive an index on the inner table's join column per outer row.
        for (int j : join_idx) {
          const JoinPredicate& jp = query.joins()[static_cast<size_t>(j)];
          const ColumnRef inner_col =
              jp.left.table == inner_table ? jp.left : jp.right;
          const IndexDef* index = db.FindIndexWithLeadingColumn(inner_col);
          if (index == nullptr) continue;
          const double matched_raw =
              std::max(1.0, card.BaseRows(t) * card.sel().join_sel(j) *
                                card.sel().SkewFactor(inner_col));
          auto node = std::make_unique<PlanNode>();
          node->op = PlanOp::kIndexNestedLoopJoin;
          node->table = inner_table;
          node->index_name = index->name;
          node->join_indices = join_idx;
          node->filter_indices = query.FilterIndicesOf(inner_table);
          node->est_rows = out_rows;
          node->cost_local = cost.IndexNestedLoopCost(
              outer.est_rows, card.BaseRows(t), matched_raw, out_rows);
          node->cost_subtree = node->cost_local + outer.cost_subtree;
          node->children.push_back(DeepCopy(outer));
          Consider(&best, std::move(node));
        }
      }
    }
    if (best.node) dp[mask] = std::move(best.node);
  }

  Plan plan;
  plan.root = std::move(dp[full]);
  AUTOSTATS_CHECK_MSG(plan.root != nullptr, "no plan found");
  return plan;
}

// First difference between two plan trees over every node field, doubles
// compared by bit pattern; empty when the trees are identical.
inline std::string PlanDiff(const PlanNode& a, const PlanNode& b,
                            const std::string& path = "root") {
  const auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };
  if (a.op != b.op) return path + ".op";
  if (a.table != b.table) return path + ".table";
  if (a.index_name != b.index_name) return path + ".index_name";
  if (a.filter_indices != b.filter_indices) return path + ".filter_indices";
  if (a.join_indices != b.join_indices) return path + ".join_indices";
  if (a.group_by.size() != b.group_by.size()) return path + ".group_by";
  for (size_t i = 0; i < a.group_by.size(); ++i) {
    if (!(a.group_by[i] == b.group_by[i])) return path + ".group_by";
  }
  if (bits(a.est_rows) != bits(b.est_rows)) return path + ".est_rows";
  if (bits(a.cost_local) != bits(b.cost_local)) return path + ".cost_local";
  if (bits(a.cost_subtree) != bits(b.cost_subtree)) {
    return path + ".cost_subtree";
  }
  if (a.children.size() != b.children.size()) return path + ".children";
  for (size_t i = 0; i < a.children.size(); ++i) {
    const std::string diff = PlanDiff(*a.children[i], *b.children[i],
                                      path + "/" + std::to_string(i));
    if (!diff.empty()) return diff;
  }
  return "";
}

}  // namespace autostats::testing

#endif  // AUTOSTATS_TESTS_REFERENCE_ENUMERATOR_H_
