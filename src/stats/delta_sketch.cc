#include "stats/delta_sketch.h"

#include <algorithm>
#include <cstdlib>

namespace autostats {

namespace {

// Tail size that forces a compaction. Compacting at max(run count, 4096)
// keeps the amortized cost per Add at O(log tail) while bounding memory at
// roughly twice the compacted size.
constexpr size_t kMinCompactTail = 4096;

}  // namespace

void DeltaSketch::Add(double value, int64_t count) {
  if (count == 0) return;
  tail_.push_back(ValueDelta{value, count});
  rows_touched_ += std::abs(count);
  if (tail_.size() >= std::max(kMinCompactTail, runs_.size())) Compact();
}

void DeltaSketch::Compact() {
  if (tail_.empty()) return;
  std::sort(tail_.begin(), tail_.end(),
            [](const ValueDelta& a, const ValueDelta& b) {
              return a.value < b.value;
            });
  std::vector<ValueDelta> merged;
  merged.reserve(runs_.size() + tail_.size());
  size_t i = 0, j = 0;
  auto emit = [&](double value, int64_t count) {
    if (count == 0) return;
    if (!merged.empty() && merged.back().value == value) {
      merged.back().count += count;
      if (merged.back().count == 0) merged.pop_back();
    } else {
      merged.push_back(ValueDelta{value, count});
    }
  };
  while (i < runs_.size() || j < tail_.size()) {
    if (j >= tail_.size() ||
        (i < runs_.size() && runs_[i].value <= tail_[j].value)) {
      emit(runs_[i].value, runs_[i].count);
      ++i;
    } else {
      emit(tail_[j].value, tail_[j].count);
      ++j;
    }
  }
  runs_ = std::move(merged);
  tail_.clear();
}

const std::vector<ValueDelta>& DeltaSketch::runs() {
  Compact();
  return runs_;
}

void DeltaSketch::Clear() {
  runs_.clear();
  tail_.clear();
  rows_touched_ = 0;
}

std::vector<ValueFreq> ApplyDelta(const std::vector<ValueFreq>& base,
                                  const std::vector<ValueDelta>& delta) {
  std::vector<ValueFreq> out;
  out.reserve(base.size() + delta.size());
  size_t i = 0, j = 0;
  auto emit = [&](double value, double freq) {
    if (freq > 0.0) out.push_back(ValueFreq{value, freq});
  };
  while (i < base.size() || j < delta.size()) {
    if (j >= delta.size()) {
      emit(base[i].value, base[i].freq);
      ++i;
    } else if (i >= base.size() || delta[j].value < base[i].value) {
      emit(delta[j].value, static_cast<double>(delta[j].count));
      ++j;
    } else if (base[i].value < delta[j].value) {
      emit(base[i].value, base[i].freq);
      ++i;
    } else {
      emit(base[i].value,
           base[i].freq + static_cast<double>(delta[j].count));
      ++i;
      ++j;
    }
  }
  return out;
}

void DeltaStore::Record(TableId table, ColumnId column, double value,
                        int64_t count) {
  Sketch(table, column)->Add(value, count);
}

DeltaSketch* DeltaStore::Sketch(TableId table, ColumnId column) {
  return &tables_[table].columns[column];
}

void DeltaStore::Invalidate(TableId table) { tables_[table].valid = false; }

bool DeltaStore::Tracked(TableId table) const {
  return tables_.count(table) > 0;
}

std::vector<TableId> DeltaStore::TrackedTables() const {
  std::vector<TableId> out;
  out.reserve(tables_.size());
  for (const auto& [table, deltas] : tables_) out.push_back(table);
  std::sort(out.begin(), out.end());
  return out;
}

bool DeltaStore::Valid(TableId table) const {
  auto it = tables_.find(table);
  return it == tables_.end() || it->second.valid;
}

DeltaSketch* DeltaStore::Find(TableId table, ColumnId column) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return nullptr;
  auto cit = it->second.columns.find(column);
  return cit == it->second.columns.end() ? nullptr : &cit->second;
}

void DeltaStore::ClearTable(TableId table) { tables_.erase(table); }

}  // namespace autostats
