#include "executor/dml_exec.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace autostats {

namespace {

// The statement's delta sketches, one per column, each resolved from the
// store on its column's first recorded value: a statement that records
// nothing leaves its table untracked. With a null store nothing is
// recorded.
class StatementDeltas {
 public:
  StatementDeltas(DeltaStore* deltas, TableId table, int num_columns)
      : deltas_(deltas),
        table_(table),
        sketches_(deltas == nullptr ? 0 : static_cast<size_t>(num_columns),
                  nullptr) {}

  void Record(ColumnId column, double value, int64_t count) {
    if (deltas_ == nullptr) return;
    DeltaSketch*& sketch = sketches_[static_cast<size_t>(column)];
    if (sketch == nullptr) sketch = deltas_->Sketch(table_, column);
    sketch->Add(value, count);
  }

  // Records a whole row's (dis)appearance: +1 / -1 on every column's value.
  void RecordRow(const Table& t, size_t row, int64_t count) {
    for (size_t c = 0; c < sketches_.size(); ++c) {
      const ColumnId column = static_cast<ColumnId>(c);
      Record(column, t.column(column).NumericKey(row), count);
    }
  }

 private:
  DeltaStore* deltas_;
  TableId table_;
  std::vector<DeltaSketch*> sketches_;
};

}  // namespace

size_t ApplyDml(Database* db, const DmlStatement& dml, DeltaStore* deltas) {
  AUTOSTATS_CHECK(db != nullptr);
  Table& t = db->mutable_table(dml.table);
  Rng rng(dml.seed ^ 0xD1CEB00Cull);
  const size_t n = t.num_rows();
  if (n == 0) return 0;
  const size_t count = std::min(dml.row_count, n);
  StatementDeltas recorder(deltas, dml.table, t.schema().num_columns());

  switch (dml.kind) {
    case DmlKind::kInsert: {
      for (size_t i = 0; i < dml.row_count; ++i) {
        const size_t src = rng.NextU64(n);
        // Perturb integer columns slightly so inserted rows are not exact
        // duplicates (skews drift a little, as real inserts do).
        t.AppendRowCopy(src, [&rng](int64_t v) {
          return rng.NextBool(0.5) ? v + rng.NextInt(0, 3) : v;
        });
        recorder.RecordRow(t, t.num_rows() - 1, +1);
      }
      return dml.row_count;
    }
    case DmlKind::kUpdate: {
      const ColumnId col = dml.update_column;
      AUTOSTATS_CHECK(col >= 0 && col < t.schema().num_columns());
      Column& column = t.mutable_column(col);
      for (size_t i = 0; i < count; ++i) {
        const size_t target = rng.NextU64(t.num_rows());
        const size_t src = rng.NextU64(t.num_rows());
        recorder.Record(col, column.NumericKey(target), -1);
        column.CopyValue(src, target);
        recorder.Record(col, column.NumericKey(target), +1);
      }
      return count;
    }
    case DmlKind::kDelete: {
      for (size_t i = 0; i < count && t.num_rows() > 0; ++i) {
        const size_t victim = rng.NextU64(t.num_rows());
        recorder.RecordRow(t, victim, -1);
        t.RemoveRow(victim);
      }
      return count;
    }
  }
  return 0;
}

Result<size_t> TryApplyDml(Database* db, const DmlStatement& dml,
                           DeltaStore* deltas) {
  AUTOSTATS_CHECK(db != nullptr);
  const Status gate = PokeFault(faults::kDmlApply);
  if (!gate.ok()) return gate;
  if (deltas != nullptr) {
    const Status delta_gate = PokeFault(faults::kStatsDelta);
    if (!delta_gate.ok()) {
      // Losing the statistics delta must not lose the data change: poison
      // the table's delta stream (next refresh rescans) and apply the DML
      // without recording.
      deltas->Invalidate(dml.table);
      return ApplyDml(db, dml, nullptr);
    }
  }
  return ApplyDml(db, dml, deltas);
}

}  // namespace autostats
