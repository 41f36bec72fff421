// Reference executor: the Datum-per-cell operators and DML apply that
// executor/exec_node.cc and executor/dml_exec.cc replaced, kept verbatim
// as a test oracle. Filters build a Datum per cell and call
// FilterPredicate::Matches, the hash join probes a std::unordered_multimap,
// the group count fills a std::unordered_set, and DML apply builds a Datum
// row per inserted row and makes two map lookups per recorded cell. The
// shipped kernels work on the columns' native vectors; executor_test
// checks the two agree bit for bit (work units, rows, every node's
// actuals, every stored tuple of a sampled join, every cell and delta run
// after DML), and bench_hotpath times them against each other.
#ifndef AUTOSTATS_TESTS_REFERENCE_EXECUTOR_H_
#define AUTOSTATS_TESTS_REFERENCE_EXECUTOR_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "executor/exec_node.h"
#include "executor/executor.h"
#include "query/dml.h"
#include "stats/delta_sketch.h"

namespace autostats::testing {

namespace reference_internal {

inline uint64_t HashCell(const Column& col, uint32_t row) {
  switch (col.type()) {
    case ValueType::kInt64:
      return std::hash<int64_t>()(col.int64_data()[row]);
    case ValueType::kDouble:
      return std::hash<double>()(col.double_data()[row]);
    case ValueType::kString:
      return std::hash<std::string>()(col.string_data()[row]);
  }
  return 0;
}

inline bool CellEq(const Column& a, uint32_t ra, const Column& b,
                   uint32_t rb) {
  if (a.type() != b.type()) return a.Get(ra) == b.Get(rb);
  switch (a.type()) {
    case ValueType::kInt64:
      return a.int64_data()[ra] == b.int64_data()[rb];
    case ValueType::kDouble:
      return a.double_data()[ra] == b.double_data()[rb];
    case ValueType::kString:
      return a.string_data()[ra] == b.string_data()[rb];
  }
  return false;
}

// Append-side helper enforcing the sampling cap; used by the join paths.
class SampledAppender {
 public:
  explicit SampledAppender(Intermediate* out) : out_(out) {}

  // Appends the concatenation (left tuple, right tuple), subject to the
  // current sampling rate.
  void Append(const uint32_t* left, size_t left_width, const uint32_t* right,
              size_t right_width) {
    if (emit_counter_++ % keep_every_ != 0) return;
    out_->data.insert(out_->data.end(), left, left + left_width);
    out_->data.insert(out_->data.end(), right, right + right_width);
    MaybeCompact();
  }

 private:
  void MaybeCompact() {
    if (out_->num_stored() < kMaxStoredRows) return;
    // Keep every other stored tuple; double the weight and the skip rate.
    const size_t stride = out_->stride();
    const size_t stored = out_->num_stored();
    size_t write = 0;
    for (size_t i = 0; i < stored; i += 2) {
      for (size_t k = 0; k < stride; ++k) {
        out_->data[write * stride + k] = out_->data[i * stride + k];
      }
      ++write;
    }
    out_->data.resize(write * stride);
    out_->scale *= 2.0;
    keep_every_ *= 2;
  }

  Intermediate* out_;
  size_t emit_counter_ = 0;
  size_t keep_every_ = 1;
};

}  // namespace reference_internal

inline Intermediate ReferenceFilteredScan(
    const Database& db, const Query& query, TableId table,
    const std::vector<int>& filter_indices) {
  const Table& t = db.table(table);
  Intermediate out;
  out.tables = {table};
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    bool match = true;
    for (int i : filter_indices) {
      const FilterPredicate& f = query.filters()[static_cast<size_t>(i)];
      if (!f.Matches(t.GetCell(r, f.column.column))) {
        match = false;
        break;
      }
    }
    if (match) out.data.push_back(r);
  }
  return out;
}

inline double ReferenceCountMatchingOnColumn(
    const Database& db, const Query& query, TableId table, ColumnRef column,
    const std::vector<int>& filter_indices) {
  const Table& t = db.table(table);
  double matched = 0.0;
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    bool match = true;
    for (int i : filter_indices) {
      const FilterPredicate& f = query.filters()[static_cast<size_t>(i)];
      if (!(f.column == column)) continue;
      if (!f.Matches(t.GetCell(r, f.column.column))) {
        match = false;
        break;
      }
    }
    if (match) matched += 1.0;
  }
  return matched;
}

inline Intermediate ReferenceHashJoin(const Database& db, const Query& query,
                                      const Intermediate& left,
                                      const Intermediate& right,
                                      const std::vector<int>& join_indices) {
  using reference_internal::CellEq;
  using reference_internal::HashCell;
  Intermediate out;
  out.tables = left.tables;
  out.tables.insert(out.tables.end(), right.tables.begin(),
                    right.tables.end());
  out.scale = left.scale * right.scale;
  reference_internal::SampledAppender appender(&out);

  // Resolve each join predicate to (left slot+column, right slot+column);
  // predicates that do not span the two inputs are ignored here (they were
  // applied at a lower join).
  struct KeyPart {
    size_t lslot;
    const Column* lcol;
    size_t rslot;
    const Column* rcol;
  };
  std::vector<KeyPart> parts;
  for (int j : join_indices) {
    const JoinPredicate& jp = query.joins()[static_cast<size_t>(j)];
    int lslot = left.SlotOf(jp.left.table);
    int rslot = right.SlotOf(jp.right.table);
    ColumnRef lc = jp.left, rc = jp.right;
    if (lslot < 0 || rslot < 0) {
      lslot = left.SlotOf(jp.right.table);
      rslot = right.SlotOf(jp.left.table);
      lc = jp.right;
      rc = jp.left;
    }
    if (lslot < 0 || rslot < 0) continue;  // predicate internal to one side
    parts.push_back(KeyPart{static_cast<size_t>(lslot),
                            &db.table(lc.table).column(lc.column),
                            static_cast<size_t>(rslot),
                            &db.table(rc.table).column(rc.column)});
  }

  const size_t lw = left.stride(), rw = right.stride();
  if (parts.empty()) {
    // Cross product (disconnected query graph only).
    for (size_t li = 0; li < left.num_stored(); ++li) {
      for (size_t ri = 0; ri < right.num_stored(); ++ri) {
        appender.Append(left.row(li), lw, right.row(ri), rw);
      }
    }
    return out;
  }

  // Build on the right input.
  std::unordered_multimap<uint64_t, uint32_t> table_map;
  table_map.reserve(right.num_stored());
  for (size_t i = 0; i < right.num_stored(); ++i) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (const KeyPart& p : parts) {
      h ^= HashCell(*p.rcol, right.row(i)[p.rslot]);
      h *= 0x100000001b3ull;
    }
    table_map.emplace(h, static_cast<uint32_t>(i));
  }
  for (size_t li = 0; li < left.num_stored(); ++li) {
    const uint32_t* lrow = left.row(li);
    uint64_t h = 0xcbf29ce484222325ull;
    for (const KeyPart& p : parts) {
      h ^= HashCell(*p.lcol, lrow[p.lslot]);
      h *= 0x100000001b3ull;
    }
    auto [begin, end] = table_map.equal_range(h);
    for (auto it = begin; it != end; ++it) {
      const uint32_t* rrow = right.row(it->second);
      bool eq = true;
      for (const KeyPart& p : parts) {
        if (!CellEq(*p.lcol, lrow[p.lslot], *p.rcol, rrow[p.rslot])) {
          eq = false;
          break;
        }
      }
      if (eq) appender.Append(lrow, lw, rrow, rw);
    }
  }
  return out;
}

inline double ReferenceCountGroups(const Database& db,
                                   const Intermediate& input,
                                   const std::vector<ColumnRef>& group_by) {
  std::unordered_set<uint64_t> groups;
  groups.reserve(input.num_stored());
  for (size_t i = 0; i < input.num_stored(); ++i) {
    const uint32_t* tuple = input.row(i);
    uint64_t h = 0xcbf29ce484222325ull;
    for (const ColumnRef& c : group_by) {
      const int slot = input.SlotOf(c.table);
      AUTOSTATS_CHECK(slot >= 0);
      h ^= reference_internal::HashCell(db.table(c.table).column(c.column),
                                        tuple[static_cast<size_t>(slot)]);
      h *= 0x100000001b3ull;
    }
    groups.insert(h);
  }
  return static_cast<double>(groups.size());
}

namespace reference_internal {

struct NodeResult {
  Intermediate data;
  double work = 0.0;
};

// Recursively executes `node`; when `actuals` is non-null, records one
// entry per node with its actual output cardinality and own (local) work.
inline NodeResult ExecNode(const Database& db, const Query& query,
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
      r.data =
          ReferenceFilteredScan(db, query, node.table, node.filter_indices);
      r.work = cost.ScanCost(
          static_cast<double>(db.table(node.table).num_rows()),
          static_cast<int>(node.filter_indices.size()));
      const double local = r.work;
      return record(std::move(r), local);
    }
    case PlanOp::kIndexSeek: {
      NodeResult r;
      r.data =
          ReferenceFilteredScan(db, query, node.table, node.filter_indices);
      // Qualifying rows: those matched by the index's leading column.
      const IndexDef* index = nullptr;
      for (const IndexDef& ix : db.indexes()) {
        if (ix.name == node.index_name) index = &ix;
      }
      AUTOSTATS_CHECK_MSG(index != nullptr, node.index_name.c_str());
      const double matched = ReferenceCountMatchingOnColumn(
          db, query, node.table, index->LeadingColumn(), node.filter_indices);
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
      r.data = ReferenceHashJoin(db, query, left.data, right.data,
                                 node.join_indices);
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
      Intermediate matched_raw = ReferenceHashJoin(
          db, query, outer.data, inner_all, node.join_indices);
      // Residual selection predicates on the inner table.
      Intermediate filtered;
      filtered.tables = matched_raw.tables;
      filtered.scale = matched_raw.scale;
      const int inner_slot = matched_raw.SlotOf(node.table);
      AUTOSTATS_CHECK(inner_slot >= 0);
      const size_t stride = matched_raw.stride();
      for (size_t i = 0; i < matched_raw.num_stored(); ++i) {
        const uint32_t* tuple = matched_raw.row(i);
        bool ok = true;
        for (int fi : node.filter_indices) {
          const FilterPredicate& f =
              query.filters()[static_cast<size_t>(fi)];
          if (!f.Matches(t.GetCell(tuple[static_cast<size_t>(inner_slot)],
                                   f.column.column))) {
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
      const double groups =
          ReferenceCountGroups(db, input.data, node.group_by);
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

inline ExecResult Finish(const CostModel& cost, NodeResult r) {
  ExecResult out;
  out.output_rows = r.data.count();
  // Result shipping, charged on the actual result size (mirrors the
  // optimizer's estimate-side charge).
  out.work_units =
      r.work + cost.params().result_tuple * out.output_rows;
  return out;
}

// Records a whole row's (dis)appearance: +1 / -1 on every column's value.
inline void RecordRow(DeltaStore* deltas, TableId table, const Table& t,
                      size_t row, int64_t count) {
  if (deltas == nullptr) return;
  const int ncols = t.schema().num_columns();
  for (int c = 0; c < ncols; ++c) {
    deltas->Record(table, c, t.column(c).NumericKey(row), count);
  }
}

}  // namespace reference_internal

inline ExecResult ReferenceExecute(const Database& db, const CostModel& cost,
                                   const Query& query, const Plan& plan) {
  AUTOSTATS_CHECK(plan.valid());
  return reference_internal::Finish(
      cost,
      reference_internal::ExecNode(db, query, cost, *plan.root, nullptr));
}

inline AnalyzedResult ReferenceExecuteAnalyzed(const Database& db,
                                               const CostModel& cost,
                                               const Query& query,
                                               const Plan& plan) {
  AUTOSTATS_CHECK(plan.valid());
  AnalyzedResult analyzed;
  analyzed.result = reference_internal::Finish(
      cost, reference_internal::ExecNode(db, query, cost, *plan.root,
                                         &analyzed.nodes));
  return analyzed;
}

inline size_t ReferenceApplyDml(Database* db, const DmlStatement& dml,
                                DeltaStore* deltas = nullptr) {
  using reference_internal::RecordRow;
  AUTOSTATS_CHECK(db != nullptr);
  Table& t = db->mutable_table(dml.table);
  Rng rng(dml.seed ^ 0xD1CEB00Cull);
  const size_t n = t.num_rows();
  if (n == 0) return 0;
  const size_t count = std::min(dml.row_count, n);

  switch (dml.kind) {
    case DmlKind::kInsert: {
      const int ncols = t.schema().num_columns();
      for (size_t i = 0; i < dml.row_count; ++i) {
        const size_t src = rng.NextU64(n);
        std::vector<Datum> row;
        row.reserve(static_cast<size_t>(ncols));
        for (int c = 0; c < ncols; ++c) {
          Datum v = t.GetCell(src, c);
          // Perturb integer columns slightly so inserted rows are not
          // exact duplicates (skews drift a little, as real inserts do).
          if (v.type() == ValueType::kInt64 && rng.NextBool(0.5)) {
            v = Datum(v.AsInt64() + rng.NextInt(0, 3));
          }
          row.push_back(std::move(v));
        }
        t.AppendRow(row);
        RecordRow(deltas, dml.table, t, t.num_rows() - 1, +1);
      }
      return dml.row_count;
    }
    case DmlKind::kUpdate: {
      const ColumnId col = dml.update_column;
      AUTOSTATS_CHECK(col >= 0 && col < t.schema().num_columns());
      for (size_t i = 0; i < count; ++i) {
        const size_t target = rng.NextU64(t.num_rows());
        const size_t src = rng.NextU64(t.num_rows());
        if (deltas != nullptr) {
          deltas->Record(dml.table, col, t.column(col).NumericKey(target),
                         -1);
        }
        t.SetCell(target, col, t.GetCell(src, col));
        if (deltas != nullptr) {
          deltas->Record(dml.table, col, t.column(col).NumericKey(target),
                         +1);
        }
      }
      return count;
    }
    case DmlKind::kDelete: {
      for (size_t i = 0; i < count && t.num_rows() > 0; ++i) {
        const size_t victim = rng.NextU64(t.num_rows());
        RecordRow(deltas, dml.table, t, victim, -1);
        t.RemoveRow(victim);
      }
      return count;
    }
  }
  return 0;
}

}  // namespace autostats::testing

#endif  // AUTOSTATS_TESTS_REFERENCE_EXECUTOR_H_
