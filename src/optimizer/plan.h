// Physical plan trees. A PlanNode carries the per-operator information the
// paper's algorithms need: its local cost (cost of the subtree minus the
// costs of its children — the ranking key of FindNextStatToBuild, §4.2),
// the predicates it applies (from which candidate-statistic relevance is
// derived), and a structural signature implementing Execution-Tree
// equivalence (§3.2).
#ifndef AUTOSTATS_OPTIMIZER_PLAN_H_
#define AUTOSTATS_OPTIMIZER_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "query/query.h"

namespace autostats {

enum class PlanOp {
  kTableScan,
  kIndexSeek,
  kNestedLoopJoin,
  kIndexNestedLoopJoin,
  kHashJoin,
  kMergeJoin,
  kHashAggregate,
  kStreamAggregate,
};

const char* PlanOpName(PlanOp op);

struct PlanNode {
  PlanOp op = PlanOp::kTableScan;

  // Scans and seeks: the accessed table; seeks also name the index.
  TableId table = kInvalidTableId;
  std::string index_name;

  // Indices into Query::filters() applied at this node.
  std::vector<int> filter_indices;
  // Indices into Query::joins() applied at this node (join nodes).
  std::vector<int> join_indices;
  // Grouping columns (aggregate nodes).
  std::vector<ColumnRef> group_by;

  double est_rows = 0.0;
  double cost_local = 0.0;    // this operator's own cost
  double cost_subtree = 0.0;  // cost_local + sum of children subtree costs

  // Join convention: children[0] = outer/probe side, children[1] =
  // inner/build side.
  std::vector<std::unique_ptr<PlanNode>> children;

  // Structural identity: operator kinds, access paths, join order and
  // predicate placement — no costs or cardinalities. Two plans with equal
  // signatures are Execution-Tree equivalent.
  std::string Signature() const;

  // Indented human-readable rendering with costs.
  std::string ToString(const Database& db, const Query& query,
                       int indent = 0) const;
};

struct Plan {
  std::unique_ptr<PlanNode> root;

  bool valid() const { return root != nullptr; }
  double cost() const { return root ? root->cost_subtree : 0.0; }
  double rows() const { return root ? root->est_rows : 0.0; }
  std::string Signature() const { return root ? root->Signature() : ""; }

  // All nodes, pre-order.
  std::vector<const PlanNode*> Nodes() const;
};

}  // namespace autostats

#endif  // AUTOSTATS_OPTIMIZER_PLAN_H_
