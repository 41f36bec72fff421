#include "optimizer/enumerator.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "optimizer/join_graph.h"

namespace autostats {

namespace {

constexpr double kInfCost = std::numeric_limits<double>::infinity();

// Best single-table access path for the table at position `pos`.
std::unique_ptr<PlanNode> BestAccessPath(const Database& db,
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

// An index nested-loop option for joining an inner table over one join
// predicate: the index on the inner join column and the inner rows each
// outer row matches.
struct InljOption {
  const IndexDef* index;
  double matched;
};

// What joins an inner table to one other table, computed once per call.
struct PairInfo {
  std::vector<int> join_idx;  // JoinIndicesBetween(inner, other)
  std::vector<InljOption> inlj;
};

// The cheapest left-deep plan over one table subset, as numbers: its root
// joins table `inner` to the plan of the subset without it, or is the
// access path of table `inner` for a single-table subset (`inner` < 0: no
// plan found).
struct SubsetPlan {
  double cost = kInfCost;  // cost_subtree
  double rows = 0.0;       // est_rows
  double local = 0.0;      // cost_local
  int inner = -1;
  PlanOp op = PlanOp::kTableScan;
  bool build_outer = false;          // hash join built on the outer side
  const InljOption* inlj = nullptr;  // index nested loop: the option used
};

class JoinDp {
 public:
  JoinDp(const Database& db, const Query& query, const CardinalityModel& card,
         const CostModel& cost, const EnumeratorConfig& config)
      : query_(query),
        n_(query.num_tables()),
        pairs_(static_cast<size_t>(n_ * n_)),
        base_(static_cast<size_t>(n_)),
        dp_(size_t{1} << n_) {
    for (int t = 0; t < n_; ++t) {
      base_[static_cast<size_t>(t)] =
          BestAccessPath(db, query, card, cost, config, t);
      const PlanNode& path = *base_[static_cast<size_t>(t)];
      dp_[size_t{1} << t] = {path.cost_subtree, path.est_rows,
                             path.cost_local, t};
      const TableId inner_table = query.tables()[static_cast<size_t>(t)];
      for (int other = 0; other < n_; ++other) {
        if (other == t) continue;
        PairInfo& pair = Pair(t, other);
        pair.join_idx = query.JoinIndicesBetween(
            inner_table, query.tables()[static_cast<size_t>(other)]);
        for (int j : pair.join_idx) {
          const JoinPredicate& jp = query.joins()[static_cast<size_t>(j)];
          const ColumnRef inner_col =
              jp.left.table == inner_table ? jp.left : jp.right;
          const IndexDef* index = db.FindIndexWithLeadingColumn(inner_col);
          if (index == nullptr) continue;
          pair.inlj.push_back(
              {index, std::max(1.0, card.BaseRows(t) * card.sel().join_sel(j) *
                                        card.sel().SkewFactor(inner_col))});
        }
      }
    }
    Enumerate(card, cost, config);
  }

  // Builds the winning tree over all tables; each base access path moves
  // into it at most once.
  Plan TakePlan() {
    const uint32_t full = (1u << n_) - 1u;
    AUTOSTATS_CHECK_MSG(dp_[full].inner >= 0, "no plan found");
    Plan plan;
    plan.root = Build(full);
    return plan;
  }

 private:
  PairInfo& Pair(int inner, int other) {
    return pairs_[static_cast<size_t>(inner * n_ + other)];
  }

  // Selinger DP over table subsets: the same alternatives, in the same
  // order, with the same strict `<`, as materializing every candidate
  // tree would try — only the winner's numbers are kept. Subtree costs
  // are summed in tree child order (local + left + right), so the tree
  // built at the end carries bit-identical costs.
  void Enumerate(const CardinalityModel& card, const CostModel& cost,
                 const EnumeratorConfig& config) {
    JoinGraph graph(query_);
    const uint32_t full = (1u << n_) - 1u;
    // Numeric order visits every subset after its subsets.
    for (uint32_t mask = 1; mask <= full; ++mask) {
      if (__builtin_popcount(mask) < 2) continue;
      const double out_rows = card.JoinRows(mask);
      const bool mask_connected = graph.IsConnected(mask);
      SubsetPlan best;
      auto consider = [&](double local, double subtree, int inner, PlanOp op,
                          bool build_outer, const InljOption* inlj) {
        if (!(subtree < best.cost)) return;
        best = {subtree, out_rows, local, inner, op, build_outer, inlj};
      };
      for (int t = 0; t < n_; ++t) {
        const uint32_t bit = 1u << t;
        if (!(mask & bit)) continue;
        const uint32_t rest = mask ^ bit;
        if (dp_[rest].inner < 0) continue;
        // A join predicate links t to `rest` exactly when they are
        // adjacent in the join graph. Prefer connected extensions; allow
        // cross products only when this mask has no connected way to grow
        // (disconnected query graphs).
        const bool connected = graph.ConnectedTo(t, rest);
        if (!connected && mask_connected) continue;

        const SubsetPlan& outer = dp_[rest];
        const SubsetPlan& inner = dp_[bit];
        if (config.enable_hash_join && connected) {
          // Build on the new table (typical), and build on the outer side;
          // the latter's children are (inner, outer).
          const double on_inner =
              cost.HashJoinCost(inner.rows, outer.rows, out_rows);
          consider(on_inner, on_inner + outer.cost + inner.cost, t,
                   PlanOp::kHashJoin, false, nullptr);
          const double on_outer =
              cost.HashJoinCost(outer.rows, inner.rows, out_rows);
          consider(on_outer, on_outer + inner.cost + outer.cost, t,
                   PlanOp::kHashJoin, true, nullptr);
        }
        if (config.enable_merge_join && connected) {
          const double local =
              cost.MergeJoinCost(outer.rows, inner.rows, out_rows);
          consider(local, local + outer.cost + inner.cost, t,
                   PlanOp::kMergeJoin, false, nullptr);
        }
        if (config.enable_nested_loop) {
          const double local =
              cost.NestedLoopCost(outer.rows, inner.rows, out_rows);
          consider(local, local + outer.cost + inner.cost, t,
                   PlanOp::kNestedLoopJoin, false, nullptr);
        }
        if (config.enable_index_nested_loop) {
          // Drive an index on the inner table's join column per outer row.
          for (int other = 0; other < n_; ++other) {
            if (!(rest & (1u << other))) continue;
            for (const InljOption& option : Pair(t, other).inlj) {
              const double local = cost.IndexNestedLoopCost(
                  outer.rows, card.BaseRows(t), option.matched, out_rows);
              consider(local, local + outer.cost, t,
                       PlanOp::kIndexNestedLoopJoin, false, &option);
            }
          }
        }
      }
      dp_[mask] = best;
    }
  }

  std::unique_ptr<PlanNode> Build(uint32_t mask) {
    const SubsetPlan& best = dp_[mask];
    const uint32_t bit = 1u << best.inner;
    if (mask == bit) return std::move(base_[static_cast<size_t>(best.inner)]);
    const uint32_t rest = mask ^ bit;
    auto node = std::make_unique<PlanNode>();
    node->op = best.op;
    // Join predicates between the inner table and `rest`, in table
    // position order.
    for (int other = 0; other < n_; ++other) {
      if (!(rest & (1u << other))) continue;
      const std::vector<int>& between = Pair(best.inner, other).join_idx;
      node->join_indices.insert(node->join_indices.end(), between.begin(),
                                between.end());
    }
    node->est_rows = best.rows;
    node->cost_local = best.local;
    node->cost_subtree = best.cost;
    std::unique_ptr<PlanNode> outer = Build(rest);
    if (best.inlj != nullptr) {
      const TableId inner_table =
          query_.tables()[static_cast<size_t>(best.inner)];
      node->table = inner_table;
      node->index_name = best.inlj->index->name;
      node->filter_indices = query_.FilterIndicesOf(inner_table);
      node->children.push_back(std::move(outer));
      return node;
    }
    std::unique_ptr<PlanNode> inner =
        std::move(base_[static_cast<size_t>(best.inner)]);
    if (best.build_outer) std::swap(outer, inner);
    node->children.push_back(std::move(outer));
    node->children.push_back(std::move(inner));
    return node;
  }

  const Query& query_;
  const int n_;
  std::vector<PairInfo> pairs_;                  // [inner * n + other]
  std::vector<std::unique_ptr<PlanNode>> base_;  // per table position
  std::vector<SubsetPlan> dp_;                   // per table subset
};

}  // namespace

Plan EnumerateJoins(const Database& db, const Query& query,
                    const CardinalityModel& card, const CostModel& cost,
                    const EnumeratorConfig& config) {
  const int n = query.num_tables();
  AUTOSTATS_CHECK_MSG(n >= 1 && n <= 20, "unsupported table count");
  return JoinDp(db, query, card, cost, config).TakePlan();
}

}  // namespace autostats
