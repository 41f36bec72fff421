#include "optimizer/plan.h"

#include <algorithm>
#include <vector>

#include "common/str_util.h"

namespace autostats {

const char* PlanOpName(PlanOp op) {
  switch (op) {
    case PlanOp::kTableScan:
      return "TableScan";
    case PlanOp::kIndexSeek:
      return "IndexSeek";
    case PlanOp::kNestedLoopJoin:
      return "NestedLoopJoin";
    case PlanOp::kIndexNestedLoopJoin:
      return "IndexNestedLoopJoin";
    case PlanOp::kHashJoin:
      return "HashJoin";
    case PlanOp::kMergeJoin:
      return "MergeJoin";
    case PlanOp::kHashAggregate:
      return "HashAggregate";
    case PlanOp::kStreamAggregate:
      return "StreamAggregate";
  }
  return "?";
}

std::string PlanNode::Signature() const {
  std::string sig = PlanOpName(op);
  if (table != kInvalidTableId) sig += StrFormat("[t%d]", table);
  if (!index_name.empty()) sig += "{" + index_name + "}";
  if (!filter_indices.empty()) {
    std::vector<int> sorted = filter_indices;
    std::sort(sorted.begin(), sorted.end());
    sig += "f(";
    for (int i : sorted) sig += StrFormat("%d,", i);
    sig += ")";
  }
  if (!join_indices.empty()) {
    std::vector<int> sorted = join_indices;
    std::sort(sorted.begin(), sorted.end());
    sig += "j(";
    for (int i : sorted) sig += StrFormat("%d,", i);
    sig += ")";
  }
  if (!group_by.empty()) {
    sig += "g(";
    for (const ColumnRef& c : group_by) {
      sig += StrFormat("%d.%d,", c.table, c.column);
    }
    sig += ")";
  }
  if (!children.empty()) {
    sig += "(";
    for (const auto& child : children) sig += child->Signature() + ";";
    sig += ")";
  }
  return sig;
}

std::string PlanNode::ToString(const Database& db, const Query& query,
                               int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += PlanOpName(op);
  if (table != kInvalidTableId) {
    out += " " + db.table(table).schema().table_name();
  }
  if (!index_name.empty()) out += " via " + index_name;
  if (!filter_indices.empty()) {
    std::vector<std::string> preds;
    for (int i : filter_indices) {
      preds.push_back(query.filters()[static_cast<size_t>(i)].ToString(db));
    }
    out += " [" + Join(preds, " AND ") + "]";
  }
  if (!join_indices.empty()) {
    std::vector<std::string> preds;
    for (int i : join_indices) {
      preds.push_back(query.joins()[static_cast<size_t>(i)].ToString(db));
    }
    out += " on " + Join(preds, " AND ");
  }
  out += StrFormat("  (rows=%s, local=%s, total=%s)",
                   FormatDouble(est_rows, 1).c_str(),
                   FormatDouble(cost_local, 1).c_str(),
                   FormatDouble(cost_subtree, 1).c_str());
  for (const auto& child : children) {
    out += '\n';
    out += child->ToString(db, query, indent + 1);
  }
  return out;
}

namespace {
void CollectNodes(const PlanNode* node, std::vector<const PlanNode*>* out) {
  out->push_back(node);
  for (const auto& child : node->children) CollectNodes(child.get(), out);
}
}  // namespace

std::vector<const PlanNode*> Plan::Nodes() const {
  std::vector<const PlanNode*> out;
  if (root) CollectNodes(root.get(), &out);
  return out;
}

}  // namespace autostats
