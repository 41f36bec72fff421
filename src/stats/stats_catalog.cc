#include "stats/stats_catalog.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace autostats {

namespace {

obs::Histogram* BuildCostHistogram() {
  thread_local obs::LabeledSlot<obs::Histogram> slot;
  return obs::GetLabeledHistogram(slot, "stat_build_cost", obs::CostBounds());
}

obs::Histogram* MergeCostHistogram() {
  thread_local obs::LabeledSlot<obs::Histogram> slot;
  return obs::GetLabeledHistogram(slot, "refresh_merge_cost",
                                  obs::CostBounds());
}

obs::Histogram* RebuildCostHistogram() {
  thread_local obs::LabeledSlot<obs::Histogram> slot;
  return obs::GetLabeledHistogram(slot, "refresh_rebuild_cost",
                                  obs::CostBounds());
}

}  // namespace

namespace {

// Bit-pattern double equality. Unlike operator==, a NaN field (e.g. a NaN
// NumericKey propagating into bucket bounds) compares equal to itself, so
// it cannot make every refresh register as changed and bump stats_version
// for a no-op refresh.
bool BitEq(double a, double b) {
  uint64_t x;
  uint64_t y;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

// Exact (bitwise on doubles) statistic comparison, used to detect no-op
// refreshes, which must not bump stats_version.
bool SameHistogram(const Histogram& a, const Histogram& b) {
  if (!BitEq(a.total_rows(), b.total_rows()) ||
      !BitEq(a.total_distinct(), b.total_distinct()) ||
      a.buckets().size() != b.buckets().size()) {
    return false;
  }
  for (size_t i = 0; i < a.buckets().size(); ++i) {
    const HistogramBucket& x = a.buckets()[i];
    const HistogramBucket& y = b.buckets()[i];
    if (!BitEq(x.lo, y.lo) || !BitEq(x.hi, y.hi) || !BitEq(x.rows, y.rows) ||
        !BitEq(x.distinct, y.distinct)) {
      return false;
    }
  }
  return true;
}

bool SameGrid(const Histogram2D& a, const Histogram2D& b) {
  if (!BitEq(a.total_rows(), b.total_rows()) ||
      a.buckets().size() != b.buckets().size()) {
    return false;
  }
  for (size_t i = 0; i < a.buckets().size(); ++i) {
    const GridBucket& x = a.buckets()[i];
    const GridBucket& y = b.buckets()[i];
    if (!BitEq(x.lo1, y.lo1) || !BitEq(x.hi1, y.hi1) ||
        !BitEq(x.lo2, y.lo2) || !BitEq(x.hi2, y.hi2) ||
        !BitEq(x.rows, y.rows) || !BitEq(x.distinct, y.distinct)) {
      return false;
    }
  }
  return true;
}

bool SameStatistic(const Statistic& a, const Statistic& b) {
  if (a.width() != b.width() ||
      !BitEq(a.rows_at_build(), b.rows_at_build()) ||
      a.has_grid2d() != b.has_grid2d()) {
    return false;
  }
  for (int k = 1; k <= a.width(); ++k) {
    if (!BitEq(a.PrefixDistinct(k), b.PrefixDistinct(k))) return false;
  }
  if (!SameHistogram(a.histogram(), b.histogram())) return false;
  return !a.has_grid2d() || SameGrid(a.grid2d(), b.grid2d());
}

// True when the first |columns| columns of `s` equal `columns` as a
// multiset (order-insensitive), counted in place.
bool PrefixMatchesSet(const Statistic& s,
                      const std::vector<ColumnId>& columns) {
  const size_t k = columns.size();
  for (size_t i = 0; i < k; ++i) {
    const ColumnId c = s.columns()[i].column;
    size_t in_prefix = 0, in_set = 0;
    for (size_t j = 0; j < k; ++j) {
      in_prefix += s.columns()[j].column == c;
      in_set += columns[j] == c;
    }
    if (in_prefix != in_set) return false;
  }
  return true;
}

}  // namespace

StatsCatalog::StatsCatalog(const Database* db, StatsBuildConfig build_config,
                           StatsCostModel cost_model)
    : db_(db),
      build_config_(build_config),
      cost_model_(cost_model) {
  AUTOSTATS_CHECK(db != nullptr);
}

double StatsCatalog::CreateStatistic(const std::vector<ColumnRef>& columns) {
  // Degraded form: a persistent build failure leaves the predicates on
  // magic numbers (charging nothing); the error is visible through
  // failure_counters() and TryCreateStatistic.
  const Result<double> cost = TryCreateStatistic(columns);
  return cost.ok() ? *cost : 0.0;
}

Result<double> StatsCatalog::TryCreateStatistic(
    const std::vector<ColumnRef>& columns) {
  const StatKey key = MakeStatKey(columns);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.in_drop_list) {
      // Resurrection (§5): no rebuild needed, just make it visible again.
      it->second.in_drop_list = false;
      it->second.created_at = clock_;
      BumpStatsVersion();
      NotifyEntry(key);
      if (obs::TraceActive()) {
        obs::TraceEvent("stat.resurrect").Str("key", key);
      }
      return 0.0;
    }
    return 0.0;  // already active
  }
  StatEntry entry;
  const Status built = RetryWithBackoff(
      retry_policy_,
      [&]() -> Status {
        Result<BuiltStatistic> stat = TryBuildStatisticWithDist(
            *db_, columns, build_config_, faults::kStatsCreate);
        if (!stat.ok()) return stat.status();
        entry.stat = std::move(stat->stat);
        entry.base_dist = std::move(stat->leading_dist);
        return Status::OK();
      },
      &failure_counters_.build_retries);
  if (!built.ok()) {
    // Retry budget exhausted: no entry, no cost, and no version bump — a
    // failed build changed nothing an estimate can see.
    ++failure_counters_.builds_failed;
    if (obs::TraceActive()) {
      obs::TraceEvent("stat.create_failed")
          .Str("key", key)
          .Str("error", built.message());
    }
    return built;
  }
  // Fence against unconsumed deltas: the base just captured already
  // reflects every modification the table's pending sketch records, so
  // letting this entry's first triggered refresh merge that sketch would
  // apply those modifications twice. The sketch itself must survive —
  // other statistics on the table still need it — so flag this entry to
  // rescan once instead.
  entry.pending_full_rebuild = deltas_.Tracked(columns.front().table);
  // A sampled build charges only the sampled rows: its leading-column
  // distribution reads them alone, although its prefix distinct counts
  // read every row of the table.
  const size_t effective_rows =
      SampledRowCount(db_->table(columns.front().table).num_rows(),
                      SampleStride(build_config_.sample_fraction));
  entry.creation_cost = cost_model_.CreationCost(
      effective_rows, static_cast<int>(columns.size()));
  entry.created_at = clock_;
  total_creation_cost_ += entry.creation_cost;
  const double cost = entry.creation_cost;
  const bool fenced = entry.pending_full_rebuild;
  entries_.emplace(key, std::move(entry));
  BumpStatsVersion();
  NotifyEntry(key);
  if (obs::MetricsEnabled()) BuildCostHistogram()->Observe(cost);
  if (obs::TraceActive()) {
    obs::TraceEvent("stat.create")
        .Str("key", key)
        .Num("cost", cost)
        .Bool("fenced", fenced);
    if (fenced) {
      obs::TraceEvent("stat.fence")
          .Str("key", key)
          .Str("reason", "unconsumed_delta");
    }
  }
  return cost;
}

void StatsCatalog::RestoreEntry(StatEntry entry) {
  const StatKey key = entry.stat.key();
  const bool drop_listed = entry.in_drop_list;
  entries_[key] = std::move(entry);
  BumpStatsVersion();
  NotifyEntry(key);
  if (obs::TraceActive()) {
    obs::TraceEvent("stat.restore")
        .Str("key", key)
        .Bool("drop_listed", drop_listed);
  }
}

bool StatsCatalog::HasActive(const StatKey& key) const {
  auto it = entries_.find(key);
  return it != entries_.end() && !it->second.in_drop_list;
}

bool StatsCatalog::Exists(const StatKey& key) const {
  return entries_.count(key) > 0;
}

const Statistic* StatsCatalog::Find(const StatKey& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.in_drop_list) return nullptr;
  return &it->second.stat;
}

const StatEntry* StatsCatalog::FindEntry(const StatKey& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void StatsCatalog::MoveToDropList(const StatKey& key) {
  auto it = entries_.find(key);
  AUTOSTATS_CHECK_MSG(it != entries_.end(), key.c_str());
  it->second.in_drop_list = true;
  it->second.dropped_at = clock_;
  BumpStatsVersion();
  NotifyEntry(key);
  if (obs::TraceActive()) {
    obs::TraceEvent("stat.drop_list").Str("key", key);
  }
}

void StatsCatalog::RemoveFromDropList(const StatKey& key) {
  auto it = entries_.find(key);
  AUTOSTATS_CHECK_MSG(it != entries_.end(), key.c_str());
  it->second.in_drop_list = false;
  it->second.created_at = clock_;
  BumpStatsVersion();
  NotifyEntry(key);
  if (obs::TraceActive()) {
    obs::TraceEvent("stat.resurrect").Str("key", key);
  }
}

void StatsCatalog::PhysicallyDrop(const StatKey& key) {
  if (entries_.erase(key) > 0) {
    NotifyErased(key);
    if (obs::TraceActive()) {
      obs::TraceEvent("stat.physical_drop").Str("key", key);
    }
  }
  BumpStatsVersion();
}

std::vector<StatKey> StatsCatalog::ActiveKeys() const {
  std::vector<StatKey> out;
  for (const auto& [key, entry] : entries_) {
    if (!entry.in_drop_list) out.push_back(key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<StatKey> StatsCatalog::DropListKeys() const {
  std::vector<StatKey> out;
  for (const auto& [key, entry] : entries_) {
    if (entry.in_drop_list) out.push_back(key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t StatsCatalog::num_active() const {
  size_t n = 0;
  for (const auto& [key, entry] : entries_) {
    if (!entry.in_drop_list) ++n;
  }
  return n;
}

size_t StatsCatalog::num_drop_listed() const {
  return entries_.size() - num_active();
}

void StatsCatalog::RecordModifications(TableId table, size_t rows) {
  mod_counters_[table] += rows;
  // The underlying data changed, so cardinality estimates (which read live
  // row counts) may change even before any statistic is refreshed.
  if (rows > 0) {
    BumpStatsVersion();
    NotifyCounter(table);
  }
}

size_t StatsCatalog::modified_rows(TableId table) const {
  auto it = mod_counters_.find(table);
  return it == mod_counters_.end() ? 0 : it->second;
}

std::vector<std::pair<TableId, size_t>> StatsCatalog::ModificationCounters()
    const {
  std::vector<std::pair<TableId, size_t>> out(mod_counters_.begin(),
                                              mod_counters_.end());
  std::sort(out.begin(), out.end());
  return out;
}

void StatsCatalog::Tick() {
  ++clock_;
  obs::TraceSink::Current().SetLogicalClock(static_cast<uint64_t>(clock_));
}

void StatsCatalog::RestoreDurableState(
    int64_t clock, uint64_t stats_version,
    const std::vector<std::pair<TableId, size_t>>& mod_counters) {
  clock_ = clock;
  stats_version_ = stats_version;
  for (const auto& [table, rows] : mod_counters) mod_counters_[table] = rows;
  obs::TraceSink::Current().SetLogicalClock(static_cast<uint64_t>(clock_));
}

std::vector<StatKey> StatsCatalog::FlagPendingFullRebuild(TableId table) {
  std::vector<StatKey> flagged;
  for (auto& [key, entry] : entries_) {
    if (entry.stat.table() != table) continue;
    entry.pending_full_rebuild = true;
    flagged.push_back(key);
  }
  std::sort(flagged.begin(), flagged.end());
  if (obs::TraceActive()) {
    for (const StatKey& key : flagged) {
      obs::TraceEvent("stat.fence")
          .Str("key", key)
          .Str("reason", "recovery_table");
    }
  }
  return flagged;
}

std::vector<StatKey> StatsCatalog::FlagAllPendingFullRebuild() {
  std::vector<StatKey> flagged;
  for (auto& [key, entry] : entries_) {
    entry.pending_full_rebuild = true;
    flagged.push_back(key);
  }
  std::sort(flagged.begin(), flagged.end());
  if (obs::TraceActive()) {
    for (const StatKey& key : flagged) {
      obs::TraceEvent("stat.fence")
          .Str("key", key)
          .Str("reason", "recovery_all");
    }
  }
  return flagged;
}

Status StatsCatalog::TryMergeRefresh(StatEntry* entry, DeltaSketch* sketch,
                                     size_t rows, bool* changed) {
  const StatKey key = entry->stat.key();
  const Status gate = PokeFault(faults::kStatsRefresh, key.c_str());
  if (!gate.ok()) return gate;

  std::vector<ValueFreq> merged =
      sketch != nullptr ? ApplyDelta(entry->base_dist, sketch->runs())
                        : entry->base_dist;
  Histogram hist = BucketizeDistribution(merged, build_config_);

  // The leading distinct count is exact from the merged runs (full-scan
  // builds only — sampled bases keep the full-table count from the last
  // rescan). Deeper prefix densities cannot be recovered from a
  // single-column delta; they are carried over, clamped monotone, until
  // the next full rebuild. The 2-D grid is likewise carried over stale.
  std::vector<double> prefix;
  prefix.reserve(entry->stat.width());
  if (build_config_.sample_fraction >= 1.0) {
    prefix.push_back(static_cast<double>(merged.size()));
  } else {
    prefix.push_back(entry->stat.PrefixDistinct(1));
  }
  for (int k = 2; k <= entry->stat.width(); ++k) {
    prefix.push_back(std::max(entry->stat.PrefixDistinct(k), prefix.back()));
  }

  Statistic next(entry->stat.columns(), std::move(hist), std::move(prefix),
                 static_cast<double>(rows));
  if (entry->stat.has_grid2d()) next.set_grid2d(entry->stat.grid2d());

  *changed = !SameStatistic(entry->stat, next);
  entry->stat = std::move(next);
  entry->base_dist = std::move(merged);
  return Status::OK();
}

double StatsCatalog::RefreshIfTriggered(const UpdateTriggerPolicy& policy) {
  double cost = 0.0;
  for (auto& [table, modified] : mod_counters_) {
    const size_t rows = db_->table(table).num_rows();
    const double threshold =
        policy.fraction * static_cast<double>(rows) +
        static_cast<double>(policy.floor);
    if (static_cast<double>(modified) <= threshold) continue;
    // A fault on stats.delta poisons the table's delta stream: every
    // statistic on the table rescans this round, restoring exactness.
    const bool delta_poisoned = deltas_.Tracked(table) && !deltas_.Valid(table);
    if (obs::TraceActive()) {
      obs::TraceEvent("stat.refresh_trigger")
          .Int("table", table)
          .Int("modified", static_cast<int64_t>(modified))
          .Num("threshold", threshold)
          .Bool("delta_poisoned", delta_poisoned);
    }
    bool any_changed = false;
    bool any_failed = false;
    for (auto& [key, entry] : entries_) {
      if (entry.stat.table() != table) continue;
      if (entry.in_drop_list) {
        // Drop-listed statistics are not refreshed (that is the
        // maintenance saving), but the table's delta is consumed below
        // without them: their bases now miss this round's DML, so the
        // first triggered refresh after a resurrection must rescan
        // rather than merge onto the stale base.
        entry.pending_full_rebuild = true;
        NotifyEntry(key);
        if (obs::TraceActive()) {
          obs::TraceEvent("stat.fence")
              .Str("key", key)
              .Str("reason", "drop_list_missed_delta");
        }
        continue;
      }
      const int next_count = entry.update_count + 1;
      // Merge the table's delta into the base distribution and re-bucket
      // (O(|delta|)), or rescan: without `incremental`, on the
      // full_rebuild_every cadence, for a fenced entry, and when the delta
      // stream is poisoned. An empty base (the table held no rows) merges
      // like any other. A missing per-column sketch on a tracked table
      // means no DML touched that column's values: an empty delta. An
      // untracked table (its sketches were cleared by a previous
      // partially-failed round after this entry merged them) is a
      // whole-table empty delta: the base is still exact.
      const bool merge =
          policy.incremental &&
          next_count % std::max(policy.full_rebuild_every, 1) != 0 &&
          !entry.pending_full_rebuild && !delta_poisoned;
      DeltaSketch* sketch =
          merge ? deltas_.Find(table, entry.stat.leading_column().column)
                : nullptr;
      bool changed = true;  // rescans always bump stats_version
      const Status refreshed = RetryWithBackoff(
          retry_policy_,
          [&]() -> Status {
            if (merge) return TryMergeRefresh(&entry, sketch, rows, &changed);
            Result<BuiltStatistic> rebuilt = TryBuildStatisticWithDist(
                *db_, entry.stat.columns(), build_config_,
                faults::kStatsRefresh);
            if (!rebuilt.ok()) return rebuilt.status();
            entry.stat = std::move(rebuilt->stat);
            entry.base_dist = std::move(rebuilt->leading_dist);
            entry.pending_full_rebuild = false;
            return Status::OK();
          },
          &failure_counters_.build_retries);
      const char* mode = merge ? "merge" : "rebuild";
      if (!refreshed.ok()) {
        // Stale fallback: keep the last-good statistic (stale but
        // monotone-safe) and leave the modification counter so the next
        // trigger retries — as a rescan, since the delta below is
        // consumed regardless.
        ++failure_counters_.builds_failed;
        ++failure_counters_.stale_fallbacks;
        entry.pending_full_rebuild = true;
        NotifyEntry(key);
        if (obs::TraceActive()) {
          obs::TraceEvent("stat.refresh_stale")
              .Str("key", key)
              .Str("mode", mode)
              .Str("fence_reason", merge ? "merge_failed" : "rebuild_failed");
        }
        any_failed = true;
        continue;
      }
      const double refresh_cost =
          merge ? cost_model_.IncrementalRefreshCost(
                      sketch != nullptr
                          ? static_cast<size_t>(sketch->rows_touched())
                          : 0,
                      entry.stat.width())
                : cost_model_.UpdateCost(rows, entry.stat.width());
      cost += refresh_cost;
      if (obs::MetricsEnabled()) {
        (merge ? MergeCostHistogram() : RebuildCostHistogram())
            ->Observe(refresh_cost);
      }
      if (obs::TraceActive()) {
        obs::TraceEvent("stat.refresh")
            .Str("key", key)
            .Str("mode", mode)
            .Bool("changed", changed)
            .Num("cost", refresh_cost);
      }
      any_changed = any_changed || changed;
      entry.update_count = next_count;
      NotifyEntry(key);
    }
    if (!any_failed) {
      modified = 0;
      NotifyCounter(table);
    }
    // The delta was consumed by every entry this round (merged, rescanned,
    // or flagged pending_full_rebuild), so it is dropped even when the
    // modification counter is kept for a retry. Clearing also re-validates
    // a poisoned table.
    deltas_.ClearTable(table);
    if (any_changed) BumpStatsVersion();  // histogram contents changed
  }
  total_update_cost_ += cost;
  return cost;
}

double StatsCatalog::PendingUpdateCost() const {
  double cost = 0.0;
  for (const auto& [key, entry] : entries_) {
    if (entry.in_drop_list) continue;
    cost += cost_model_.UpdateCost(db_->table(entry.stat.table()).num_rows(),
                                   entry.stat.width());
  }
  return cost;
}

void StatsCatalog::ResetAccounting() {
  total_creation_cost_ = 0.0;
  total_update_cost_ = 0.0;
  optimizer_calls_charged_ = 0;
  failure_counters_ = StatsFailureCounters{};
}

bool StatsView::IsVisible(const StatKey& key) const {
  return ignored_.count(key) == 0 && catalog_->HasActive(key);
}

const Statistic* StatsView::HistogramFor(ColumnRef column) const {
  const StatKey* best_key = nullptr;
  const Statistic* best = nullptr;
  for (const auto& [key, entry] : catalog_->entries_) {
    const Statistic& s = entry.stat;
    if (entry.in_drop_list || !(s.leading_column() == column)) continue;
    // The narrowest wins; among equally narrow ones, the smaller key.
    if (best != nullptr && (s.width() != best->width()
                                ? s.width() > best->width()
                                : !(key < *best_key))) {
      continue;
    }
    if (ignored_.count(key)) continue;
    best_key = &key;
    best = &s;
  }
  return best;
}

const Statistic* StatsView::DensityFor(TableId table,
                                       const std::vector<ColumnId>& columns,
                                       int* prefix_len) const {
  // A visible statistic on `table` whose leading prefix of length
  // |columns| equals `columns` as a set; the smallest key wins.
  const StatKey* best_key = nullptr;
  const Statistic* best = nullptr;
  for (const auto& [key, entry] : catalog_->entries_) {
    const Statistic& s = entry.stat;
    if (entry.in_drop_list || s.table() != table ||
        s.width() < static_cast<int>(columns.size())) {
      continue;
    }
    if (best_key != nullptr && !(key < *best_key)) continue;
    if (!PrefixMatchesSet(s, columns) || ignored_.count(key)) continue;
    best_key = &key;
    best = &s;
  }
  if (best != nullptr && prefix_len != nullptr) {
    *prefix_len = static_cast<int>(columns.size());
  }
  return best;
}

}  // namespace autostats
