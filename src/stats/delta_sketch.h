// Mergeable delta sketches for incremental statistics refresh. A
// DeltaSketch accumulates the signed per-value row deltas one (table,
// column) pair has seen since the last refresh — +1 per inserted value,
// -1 per deleted value, an update contributes both — as flat sorted
// (value, signed-count) runs with an unsorted append tail that is folded
// in by periodic compaction. Merging a compacted sketch into the base
// (value, frequency) distribution captured at the last full build yields
// the distribution a full rescan would produce, at O(|delta| + |base|)
// cost instead of O(|table| log |table|): that is what makes *keeping*
// statistics fresh cheaper than re-creating them (the steady-state cost
// the paper's §6 update policies charge a full rescan for).
//
// Exactness: under full-scan builds (sample_fraction = 1) the recorded
// deltas are exact, so base + delta is bit-identical to a rescan's
// distribution and the re-bucketed histogram is bit-identical to a full
// rebuild's. Under sampled builds the base carries sampling error and the
// merge inherits it — the same approximation ScaledTo already accepts.
//
// Ordering precondition: sketch values are Datum::NumericKey encodings,
// which are totally ordered doubles — int64 and string keys can never be
// NaN, and the data generators never store NaN in double columns. A NaN
// key would make the compaction sort order unspecified; the catalog's
// no-op-refresh comparison is NaN-safe regardless (bit-pattern equality,
// see stats_catalog.cc).
//
// The DeltaStore is the process-side registry DmlExec records into
// (behind the `stats.delta` fault point): per-table sketch maps plus a
// validity bit. A lost or faulted delta stream poisons the table
// (Invalidate), which downgrades the next triggered refresh to a full
// rescan — graceful degradation back to the exact catalog.
#ifndef AUTOSTATS_STATS_DELTA_SKETCH_H_
#define AUTOSTATS_STATS_DELTA_SKETCH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "stats/histogram.h"

namespace autostats {

// One (numeric key, signed row count) run of a delta sketch.
struct ValueDelta {
  double value = 0.0;
  int64_t count = 0;
};

class DeltaSketch {
 public:
  // Accumulates `count` signed rows at `value`. O(1) amortized: appends
  // to the tail and compacts when the tail outgrows the run vector.
  void Add(double value, int64_t count);

  // Folds the unsorted tail into the sorted run vector, merging equal
  // values and dropping runs that cancelled to zero.
  void Compact();

  // The compacted runs, sorted by value (compacts first if needed).
  const std::vector<ValueDelta>& runs();

  // Total |count| volume added since the last Clear — the |delta| the
  // cost model charges an incremental refresh for.
  int64_t rows_touched() const { return rows_touched_; }

  bool empty() const { return runs_.empty() && tail_.empty(); }
  void Clear();

 private:
  std::vector<ValueDelta> runs_;  // sorted by value, merged, no zeros
  std::vector<ValueDelta> tail_;  // recent appends, unsorted
  int64_t rows_touched_ = 0;
};

// Applies a compacted delta to a base (value, frequency) distribution:
// a two-pointer merge adding signed counts to frequencies. Values whose
// frequency drops to or below zero are removed, so the result satisfies
// the histogram builders' strictly-increasing / positive-frequency
// contract. Exact when the base is exact (see file comment).
std::vector<ValueFreq> ApplyDelta(const std::vector<ValueFreq>& base,
                                  const std::vector<ValueDelta>& delta);

// Per-table delta sketches for every column the DML stream touched, plus
// the validity bit the degradation ladder keys off.
class DeltaStore {
 public:
  // Accumulates `count` signed rows at `value` for (table, column).
  void Record(TableId table, ColumnId column, double value, int64_t count);

  // The sketch of (table, column), created on first call, which also
  // makes the table tracked. Stays valid until ClearTable(table) or
  // Clear(), so a DML statement resolves each column once, on its first
  // recorded value.
  DeltaSketch* Sketch(TableId table, ColumnId column);

  // Marks `table`'s deltas unusable (a `stats.delta` fault dropped part of
  // the stream): consumers must full-rescan to resync.
  void Invalidate(TableId table);

  // True once anything was recorded (or invalidated) for `table` since the
  // last ClearTable — i.e. this store, not just the modification counter,
  // observed the table's DML stream.
  bool Tracked(TableId table) const;
  // Every tracked table, sorted — what a durability commit records so
  // crash recovery knows which bases may miss in-flight (process-local)
  // deltas and must be fenced to a full rescan.
  std::vector<TableId> TrackedTables() const;
  // False once Invalidate() was called for `table`.
  bool Valid(TableId table) const;

  // Sketch lookup; nullptr when the column saw no delta. A null sketch for
  // a tracked, valid table means the column's data is unchanged.
  DeltaSketch* Find(TableId table, ColumnId column);

  // Drops every sketch of `table` and restores validity — called once a
  // refresh consumed (or a full rescan superseded) the delta.
  void ClearTable(TableId table);
  void Clear() { tables_.clear(); }

 private:
  struct TableDeltas {
    std::unordered_map<ColumnId, DeltaSketch> columns;
    bool valid = true;
  };
  std::unordered_map<TableId, TableDeltas> tables_;
};

}  // namespace autostats

#endif  // AUTOSTATS_STATS_DELTA_SKETCH_H_
