#include "executor/executor.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/str_util.h"
#include "executor/exec_node.h"

namespace autostats {

double NodeActuals::QError() const {
  AUTOSTATS_DCHECK(node != nullptr);
  const double est = std::max(node->est_rows, 1.0);
  const double act = std::max(actual_rows, 1.0);
  return std::max(est / act, act / est);
}

namespace {

struct NodeResult {
  Intermediate data;
  double work = 0.0;
};

// Recursively executes `node`; when `actuals` is non-null, records one
// entry per node with its actual output cardinality and own (local) work.
NodeResult ExecNode(const Database& db, const Query& query,
                    const CostModel& cost, const PlanNode& node,
                    std::vector<NodeActuals>* actuals) {
  auto record = [&](NodeResult r, double local_work) {
    if (actuals != nullptr) {
      actuals->push_back(NodeActuals{&node, r.data.count(), local_work});
    }
    return r;
  };

  switch (node.op) {
    case PlanOp::kTableScan: {
      NodeResult r;
      r.data = ExecFilteredScan(db, query, node.table, node.filter_indices);
      r.work = cost.ScanCost(
          static_cast<double>(db.table(node.table).num_rows()),
          static_cast<int>(node.filter_indices.size()));
      const double local = r.work;
      return record(std::move(r), local);
    }
    case PlanOp::kIndexSeek: {
      // Qualifying rows: those matched by the index's leading column.
      const IndexDef* index = nullptr;
      for (const IndexDef& ix : db.indexes()) {
        if (ix.name == node.index_name) index = &ix;
      }
      AUTOSTATS_CHECK_MSG(index != nullptr, node.index_name.c_str());
      NodeResult r;
      double matched = 0.0;
      r.data = ExecIndexSeek(db, query, node.table, index->LeadingColumn(),
                             node.filter_indices, &matched);
      int residual = 0;
      for (int i : node.filter_indices) {
        if (!(query.filters()[static_cast<size_t>(i)].column ==
              index->LeadingColumn())) {
          ++residual;
        }
      }
      r.work = cost.IndexSeekCost(
          static_cast<double>(db.table(node.table).num_rows()), matched,
          residual);
      const double local = r.work;
      return record(std::move(r), local);
    }
    case PlanOp::kHashJoin:
    case PlanOp::kMergeJoin:
    case PlanOp::kNestedLoopJoin: {
      AUTOSTATS_CHECK(node.children.size() == 2);
      NodeResult left =
          ExecNode(db, query, cost, *node.children[0], actuals);
      NodeResult right =
          ExecNode(db, query, cost, *node.children[1], actuals);
      NodeResult r;
      r.data =
          ExecHashJoin(db, query, left.data, right.data, node.join_indices);
      const double l = left.data.count(), rr = right.data.count(),
                   out = r.data.count();
      double local = 0.0;
      if (node.op == PlanOp::kHashJoin) {
        // Convention: children[1] is the build side.
        local = cost.HashJoinCost(rr, l, out);
      } else if (node.op == PlanOp::kMergeJoin) {
        local = cost.MergeJoinCost(l, rr, out);
      } else {
        local = cost.NestedLoopCost(l, rr, out);
      }
      r.work = left.work + right.work + local;
      return record(std::move(r), local);
    }
    case PlanOp::kIndexNestedLoopJoin: {
      AUTOSTATS_CHECK(node.children.size() == 1);
      NodeResult outer =
          ExecNode(db, query, cost, *node.children[0], actuals);
      // Inner side: rows of node.table reached through the index; the join
      // itself is evaluated hash-based, charged as per-outer-row seeks.
      Intermediate inner_all;
      inner_all.tables = {node.table};
      const Table& t = db.table(node.table);
      inner_all.data.reserve(t.num_rows());
      for (uint32_t rr = 0; rr < t.num_rows(); ++rr) {
        inner_all.data.push_back(rr);
      }
      Intermediate matched_raw = ExecHashJoin(db, query, outer.data,
                                              inner_all, node.join_indices);
      // Residual selection predicates on the inner table.
      Intermediate filtered;
      filtered.tables = matched_raw.tables;
      filtered.scale = matched_raw.scale;
      const int inner_slot = matched_raw.SlotOf(node.table);
      AUTOSTATS_CHECK(inner_slot >= 0);
      std::vector<std::pair<const FilterPredicate*, const Column*>> residual;
      for (int fi : node.filter_indices) {
        const FilterPredicate& f = query.filters()[static_cast<size_t>(fi)];
        residual.emplace_back(&f, &t.column(f.column.column));
      }
      const size_t stride = matched_raw.stride();
      for (size_t i = 0; i < matched_raw.num_stored(); ++i) {
        const uint32_t* tuple = matched_raw.row(i);
        const uint32_t inner_row = tuple[static_cast<size_t>(inner_slot)];
        bool ok = true;
        for (const auto& [f, col] : residual) {
          if (!FilterMatchesCell(*f, *col, inner_row)) {
            ok = false;
            break;
          }
        }
        if (ok) {
          filtered.data.insert(filtered.data.end(), tuple, tuple + stride);
        }
      }
      const double outer_rows = std::max(outer.data.count(), 1.0);
      const double matched_per_outer = matched_raw.count() / outer_rows;
      NodeResult r;
      r.data = std::move(filtered);
      const double local = cost.IndexNestedLoopCost(
          outer.data.count(), static_cast<double>(t.num_rows()),
          matched_per_outer, r.data.count());
      r.work = outer.work + local;
      return record(std::move(r), local);
    }
    case PlanOp::kHashAggregate:
    case PlanOp::kStreamAggregate: {
      AUTOSTATS_CHECK(node.children.size() == 1);
      NodeResult input =
          ExecNode(db, query, cost, *node.children[0], actuals);
      const double groups = CountGroups(db, input.data, node.group_by);
      NodeResult r;
      const double in_rows = input.data.count();
      const double local = node.op == PlanOp::kHashAggregate
                               ? cost.HashAggregateCost(in_rows, groups)
                               : cost.StreamAggregateCost(in_rows, groups);
      r.work = input.work + local;
      // Groups are not materialized as tuples; only the count is needed.
      r.data.tables = input.data.tables;
      r.data.data.clear();
      r.data.data.resize(static_cast<size_t>(groups) *
                         input.data.tables.size());
      return record(std::move(r), local);
    }
  }
  AUTOSTATS_CHECK_MSG(false, "unhandled plan operator");
  return NodeResult{};
}

ExecResult Finish(const CostModel& cost, NodeResult r) {
  ExecResult out;
  out.output_rows = r.data.count();
  // Result shipping, charged on the actual result size (mirrors the
  // optimizer's estimate-side charge).
  out.work_units =
      r.work + cost.params().result_tuple * out.output_rows;
  return out;
}

}  // namespace

ExecResult Executor::Execute(const Query& query, const Plan& plan) const {
  AUTOSTATS_CHECK(plan.valid());
  return Finish(cost_model_,
                ExecNode(*db_, query, cost_model_, *plan.root, nullptr));
}

AnalyzedResult Executor::ExecuteAnalyzed(const Query& query,
                                         const Plan& plan) const {
  AUTOSTATS_CHECK(plan.valid());
  AnalyzedResult analyzed;
  analyzed.result = Finish(
      cost_model_,
      ExecNode(*db_, query, cost_model_, *plan.root, &analyzed.nodes));
  return analyzed;
}

namespace {

const NodeActuals* FindActuals(const AnalyzedResult& analyzed,
                               const PlanNode* node) {
  for (const NodeActuals& a : analyzed.nodes) {
    if (a.node == node) return &a;
  }
  return nullptr;
}

void RenderNode(const Database& db, const Query& query,
                const AnalyzedResult& analyzed, const PlanNode& node,
                int indent, std::string* out) {
  const NodeActuals* a = FindActuals(analyzed, &node);
  *out += std::string(static_cast<size_t>(indent) * 2, ' ');
  *out += PlanOpName(node.op);
  if (node.table != kInvalidTableId) {
    *out += " " + db.table(node.table).schema().table_name();
  }
  if (!node.index_name.empty()) *out += " via " + node.index_name;
  if (a != nullptr) {
    *out += StrFormat("  est=%s act=%s q=%.2f work=%s",
                      FormatDouble(node.est_rows, 1).c_str(),
                      FormatDouble(a->actual_rows, 1).c_str(), a->QError(),
                      FormatDouble(a->work, 1).c_str());
  }
  for (const auto& child : node.children) {
    *out += "\n";
    RenderNode(db, query, analyzed, *child, indent + 1, out);
  }
}

}  // namespace

std::string RenderAnalyzed(const Database& db, const Query& query,
                           const Plan& plan, const AnalyzedResult& analyzed) {
  std::string out;
  if (plan.valid()) {
    RenderNode(db, query, analyzed, *plan.root, 0, &out);
    out += StrFormat("\nTotal: %s work units, %s rows",
                     FormatDouble(analyzed.result.work_units, 1).c_str(),
                     FormatDouble(analyzed.result.output_rows, 1).c_str());
  }
  return out;
}

}  // namespace autostats
