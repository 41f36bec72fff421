// Execution internals: materialized intermediate results (tuples of row
// ids across the joined tables, stored row-major in one flat buffer) and
// per-operator evaluation helpers.
//
// Explosive joins (skewed many-to-many key combinations can square the
// input) are kept within bounded memory by deterministic systematic
// sampling: once an operator has materialized kMaxStoredRows tuples it
// halves its stored set, doubles the tuple weight (`scale`), and keeps
// every other emitted tuple from then on. Counts remain unbiased; group
// counts over a sampled result are lower bounds.
#ifndef AUTOSTATS_EXECUTOR_EXEC_NODE_H_
#define AUTOSTATS_EXECUTOR_EXEC_NODE_H_

#include <cstdint>
#include <vector>

#include "catalog/database.h"
#include "query/query.h"

namespace autostats {

// Materialization cap per intermediate result (tuples, not bytes).
inline constexpr size_t kMaxStoredRows = size_t{1} << 21;  // ~2M tuples

struct Intermediate {
  std::vector<TableId> tables;  // tuple stride = tables.size()
  std::vector<uint32_t> data;   // row-major: data[i*stride + slot]
  double scale = 1.0;           // real rows represented per stored tuple

  size_t stride() const { return tables.size(); }
  size_t num_stored() const {
    return tables.empty() ? 0 : data.size() / tables.size();
  }
  // Estimated true cardinality.
  double count() const { return static_cast<double>(num_stored()) * scale; }

  const uint32_t* row(size_t i) const { return data.data() + i * stride(); }

  // Slot of `table` in `tables`, or -1.
  int SlotOf(TableId table) const;
};

// Append-side helper enforcing the sampling cap; used by the join paths.
// `out->tables` must be set before construction (it fixes the stride).
class SampledAppender {
 public:
  explicit SampledAppender(Intermediate* out)
      : out_(out), cap_(kMaxStoredRows * out->stride()) {}

  // Appends the concatenation (left tuple, right tuple), subject to the
  // current sampling rate. Which tuples survive sampling depends on the
  // order they are appended in.
  void Append(const uint32_t* left, size_t left_width, const uint32_t* right,
              size_t right_width) {
    if ((emit_counter_++ & (keep_every_ - 1)) != 0) return;
    out_->data.insert(out_->data.end(), left, left + left_width);
    out_->data.insert(out_->data.end(), right, right + right_width);
    if (out_->data.size() >= cap_) MaybeCompact();
  }

 private:
  void MaybeCompact();

  Intermediate* out_;
  size_t cap_;  // data.size() at kMaxStoredRows tuples
  size_t emit_counter_ = 0;
  size_t keep_every_ = 1;  // a power of two
};

// Scans `table`, returning row ids (ascending) satisfying all
// `filter_indices`.
Intermediate ExecFilteredScan(const Database& db, const Query& query,
                              TableId table,
                              const std::vector<int>& filter_indices);

// An index seek's two results from one pass: ExecFilteredScan's rows, and
// in *matched the rows satisfying only the filters on `leading` (the
// qualifying count the seek is charged for).
Intermediate ExecIndexSeek(const Database& db, const Query& query,
                           TableId table, ColumnRef leading,
                           const std::vector<int>& filter_indices,
                           double* matched);

// True when row `row` of `col` satisfies `f`: FilterPredicate::Matches of
// the cell, without building a Datum when the literal's type is the
// column's.
bool FilterMatchesCell(const FilterPredicate& f, const Column& col,
                       size_t row);

// Equi-joins two intermediates on the given join predicates (hash-based;
// the physical operator only differs in the cost charged). Each left tuple
// is emitted with its matching right tuples in descending right index:
// past the sampling cap, which tuples are kept depends on that order.
Intermediate ExecHashJoin(const Database& db, const Query& query,
                          const Intermediate& left, const Intermediate& right,
                          const std::vector<int>& join_indices);

// Estimated group count of `input` grouped by `group_by` (exact when the
// input was not sampled; a lower bound otherwise).
double CountGroups(const Database& db, const Intermediate& input,
                   const std::vector<ColumnRef>& group_by);

}  // namespace autostats

#endif  // AUTOSTATS_EXECUTOR_EXEC_NODE_H_
