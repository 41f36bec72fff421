// StatsCatalog: the server-side statistics manager. Owns every built
// statistic, the drop-list (§5: non-essential statistics are marked, not
// physically deleted, and can be resurrected at zero cost), per-table
// row-modification counters with SQL Server 7.0-style update triggering
// (§6), and creation/update cost accounting used by the benchmarks.
//
// StatsView implements the paper's server extension
// Ignore_Statistics_Subset (§7.2): a read-only view of the catalog with a
// subset of statistics hidden, passed to the optimizer per optimization.
#ifndef AUTOSTATS_STATS_STATS_CATALOG_H_
#define AUTOSTATS_STATS_STATS_CATALOG_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "catalog/database.h"
#include "common/fault.h"
#include "common/status.h"
#include "stats/builder.h"
#include "stats/delta_sketch.h"
#include "stats/statistic.h"
#include "stats/stats_cost.h"

namespace autostats {

struct StatEntry {
  Statistic stat;
  bool in_drop_list = false;
  int update_count = 0;        // times refreshed since creation
  double creation_cost = 0.0;  // cost units charged when built
  int64_t created_at = 0;      // logical time of (re)creation
  int64_t dropped_at = -1;     // logical time of last move to drop-list
  // Compressed leading-column distribution captured at the last full
  // build and advanced by every merge — the base incremental refreshes
  // merge delta sketches into. The journal, snapshots and catalog files
  // carry it bit-exactly. Empty only when the table held no rows.
  std::vector<ValueFreq> base_dist;
  // Set when the base distribution cannot be trusted to merge deltas
  // exactly: an incremental merge failed, the delta stream was poisoned,
  // the entry was built while its table had unconsumed deltas (the base
  // already reflects them — merging the sketch would double-count), or a
  // refresh round consumed the table's delta while the entry sat in the
  // drop-list. The next triggered refresh rescans regardless of the
  // full_rebuild_every cadence, restoring the exact catalog.
  bool pending_full_rebuild = false;
};

// Controls when statistics on a table are refreshed: when the number of
// modified rows exceeds `fraction * |T| + floor` (SQL Server 7.0 default
// shape, §6). Without `incremental` every refresh rescans the data. With
// it, a refresh merges the table's delta sketch (stats/delta_sketch.h)
// into the statistic's base distribution and re-buckets — O(|delta|); no
// recorded delta is an empty one. Every `full_rebuild_every`-th refresh
// of a statistic still rescans to bound drift.
struct UpdateTriggerPolicy {
  double fraction = 0.20;
  size_t floor = 500;
  bool incremental = false;
  int full_rebuild_every = 4;
};

// Failure accounting for the build path (the paper's loop is unattended,
// so failures must be measurable, not fatal).
struct StatsFailureCounters {
  int64_t builds_failed = 0;    // builds that exhausted their retry budget
  int64_t build_retries = 0;    // re-attempts consumed by transient faults
  int64_t stale_fallbacks = 0;  // failed refreshes that kept the last-good
                                // statistic (degradation ladder rung 2)
};

// Observer of durable catalog mutations (implemented by CatalogDurability
// in stats/durability.h). The catalog invokes it synchronously inside each
// mutating operation; the listener collects dirty keys and serializes
// their full current state into one journal record at statement commit.
class CatalogMutationListener {
 public:
  virtual ~CatalogMutationListener() = default;
  // `key`'s entry changed (created, resurrected, refreshed, restored,
  // moved in or out of the drop-list, or re-flagged): its full state must
  // be re-journaled.
  virtual void OnEntryMutated(const StatKey& key) = 0;
  // `key`'s entry was physically dropped.
  virtual void OnEntryErased(const StatKey& key) = 0;
  // `table`'s row-modification counter changed (recorded DML, or a
  // triggered refresh resetting it).
  virtual void OnCounterMutated(TableId table) = 0;
};

class StatsCatalog {
 public:
  StatsCatalog(const Database* db, StatsBuildConfig build_config = {},
               StatsCostModel cost_model = {});

  StatsCatalog(const StatsCatalog&) = delete;
  StatsCatalog& operator=(const StatsCatalog&) = delete;

  const Database& db() const { return *db_; }
  const StatsBuildConfig& build_config() const { return build_config_; }
  const StatsCostModel& cost_model() const { return cost_model_; }

  // Creates the statistic (building it from data) or resurrects it from
  // the drop-list at zero build cost. Returns the cost units charged.
  // No-op (returns 0) if the statistic is already active. A failed build
  // (after retries) charges nothing, installs nothing, and returns 0 — the
  // dependent predicates simply stay on magic numbers, a state MNSA is
  // already correct under (§4.1 monotonicity). A statistic built while its
  // table holds unconsumed delta sketches is flagged to rescan on its
  // first triggered refresh: the freshly-captured base already reflects
  // those deltas, so merging them again would double-count.
  double CreateStatistic(const std::vector<ColumnRef>& columns);

  // The fallible form: same semantics, but a build that exhausts its retry
  // budget surfaces the error. The catalog is untouched on failure — no
  // entry, no cost charged, and no stats_version bump, so a plan made
  // before the failed build is still current.
  Result<double> TryCreateStatistic(const std::vector<ColumnRef>& columns);

  // Bounded-retry policy for builds (create and refresh).
  void set_retry_policy(const RetryPolicy& policy) {
    retry_policy_ = policy;
  }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  const StatsFailureCounters& failure_counters() const {
    return failure_counters_;
  }

  // Installs a previously built entry without touching data or charging
  // cost (crash recovery and LoadCatalog; see stats/durability.h).
  // Replaces any entry with the same key and bumps stats_version.
  void RestoreEntry(StatEntry entry);

  // True if an active (not drop-listed) statistic with this key exists.
  bool HasActive(const StatKey& key) const;
  // True if the statistic exists at all (active or drop-listed).
  bool Exists(const StatKey& key) const;

  // Active statistic lookup; nullptr if absent or drop-listed.
  const Statistic* Find(const StatKey& key) const;
  const StatEntry* FindEntry(const StatKey& key) const;

  // §5: marks as non-essential. The statistic becomes invisible to the
  // optimizer but is retained for possible resurrection.
  void MoveToDropList(const StatKey& key);
  // Resurrection: makes a drop-listed statistic active again.
  void RemoveFromDropList(const StatKey& key);
  // Physical deletion (policy decision, §6).
  void PhysicallyDrop(const StatKey& key);

  std::vector<StatKey> ActiveKeys() const;
  std::vector<StatKey> DropListKeys() const;
  size_t num_active() const;
  size_t num_drop_listed() const;

  // --- Update machinery (§6) ---

  // Records `rows` modified rows against `table` (INSERT/UPDATE/DELETE).
  void RecordModifications(TableId table, size_t rows);
  size_t modified_rows(TableId table) const;
  // Every per-table modification counter, sorted by table id — the
  // complete counter state a durability snapshot persists.
  std::vector<std::pair<TableId, size_t>> ModificationCounters() const;

  // The per-(table, column) delta sketches DML execution records into
  // (executor/dml_exec.h) and incremental refreshes consume. Sketches are
  // cleared — and a poisoned table re-validated — when the table's
  // triggered refresh consumes or supersedes them.
  DeltaStore* mutable_deltas() { return &deltas_; }
  const DeltaStore& deltas() const { return deltas_; }

  // Refreshes the statistics of every table whose modification counter
  // exceeds the trigger; resets those counters. Returns cost units
  // charged. Drop-listed statistics are NOT refreshed — that is exactly
  // the maintenance saving the paper's Table 1 measures. Each entry
  // either merges or rescans (mode "merge" or "rebuild"). It merges the
  // table's delta sketch into its base distribution (O(|delta|)) when
  // `policy.incremental` is set, the refresh is off the
  // full_rebuild_every cadence, the entry is not pending_full_rebuild and
  // the table's delta stream is not poisoned; otherwise it rescans. A
  // merge whose resulting statistic is bit-identical to the old one does
  // not bump stats_version, since no estimate can see it; a rescan
  // always bumps. A refresh that fails after retries keeps the last-good
  // (stale) statistic, counts a stale fallback, and leaves the table's
  // modification counter intact so the next trigger retries — as a full
  // rescan, since the consumed delta is gone. Entries that did merge
  // successfully in such a partially-failed round keep their (still
  // exact) bases: when the retry re-triggers the table with its delta
  // already consumed, they merge an empty delta and no-op. Drop-listed
  // entries skip refreshes but are flagged pending_full_rebuild whenever
  // their table's delta is consumed without them, so a resurrected
  // statistic's first refresh rescans rather than merging onto a base
  // that missed the drop-period DML.
  double RefreshIfTriggered(const UpdateTriggerPolicy& policy);

  // Update cost the active statistics WOULD incur if refreshed now; used
  // by Table 1's "update cost of statistics" metric.
  double PendingUpdateCost() const;

  // --- Accounting ---
  double total_creation_cost() const { return total_creation_cost_; }
  double total_update_cost() const { return total_update_cost_; }
  int64_t optimizer_calls_charged() const { return optimizer_calls_charged_; }
  void ChargeOptimizerCall() { ++optimizer_calls_charged_; }
  void ResetAccounting();

  // Logical clock, advanced by the policy layer per processed statement.
  // Tick also publishes the new value to the trace sink (obs/trace.h) so
  // every lifecycle event carries the statement tick it fired under.
  int64_t now() const { return clock_; }
  void Tick();

  // `stats_version` advances on every mutation that can change an
  // optimization result: statistic create / resurrect / drop / restore /
  // refresh, and recorded data modifications — and on nothing an estimate
  // cannot see (failed builds, no-op refreshes). The WAL journals it, the
  // catalog digests include it, and AutoStatsManager serves MNSA's last
  // plan only while it has not moved since that plan was made.
  uint64_t stats_version() const { return stats_version_; }

  // --- Durability support (stats/durability.h) ---

  // Attaches (or detaches, with nullptr) the mutation observer. At most
  // one listener; notifications are synchronous.
  void set_mutation_listener(CatalogMutationListener* listener) {
    listener_ = listener;
  }
  CatalogMutationListener* mutation_listener() const { return listener_; }

  // Installs the catalog-level durable header exactly as journaled:
  // logical clock, stats_version, and the given modification counters
  // (merged into the current counter map — a journal record carries only
  // the counters its statement touched). Crash recovery validates version
  // monotonicity *across records* before calling; mid-replay the bumped
  // in-memory version may legitimately run ahead of a record that
  // journaled a no-op refresh, so this setter does not re-check. Does not
  // notify the mutation listener.
  void RestoreDurableState(
      int64_t clock, uint64_t stats_version,
      const std::vector<std::pair<TableId, size_t>>& mod_counters);

  // Recovery fencing: flags every entry (active and drop-listed) of
  // `table` pending_full_rebuild, so its first triggered refresh after a
  // crash rescans instead of merging onto a base that may have missed
  // un-journaled deltas (the DeltaStore dies with the process). Returns
  // the flagged keys so the durability layer can re-journal them. Does
  // not bump stats_version: the flag changes future refresh behavior,
  // not current estimates.
  std::vector<StatKey> FlagPendingFullRebuild(TableId table);
  // The conservative whole-catalog variant, for journal replay gaps.
  std::vector<StatKey> FlagAllPendingFullRebuild();

 private:
  // Lookups scan `entries_` in place: one pass, no key copies.
  friend class StatsView;

  void BumpStatsVersion() { ++stats_version_; }

  void NotifyEntry(const StatKey& key) {
    if (listener_ != nullptr) listener_->OnEntryMutated(key);
  }
  void NotifyErased(const StatKey& key) {
    if (listener_ != nullptr) listener_->OnEntryErased(key);
  }
  void NotifyCounter(TableId table) {
    if (listener_ != nullptr) listener_->OnCounterMutated(table);
  }

  // O(|delta|) refresh of one entry: merges `sketch` (may be null — an
  // empty delta) into the entry's base distribution, re-buckets, and
  // refreshes the leading distinct count. Sets *changed when the
  // resulting statistic differs from the current one. Gated on the
  // stats.refresh fault point.
  Status TryMergeRefresh(StatEntry* entry, DeltaSketch* sketch, size_t rows,
                         bool* changed);

  const Database* db_;
  StatsBuildConfig build_config_;
  StatsCostModel cost_model_;
  RetryPolicy retry_policy_;
  StatsFailureCounters failure_counters_;
  std::unordered_map<StatKey, StatEntry> entries_;
  std::unordered_map<TableId, size_t> mod_counters_;
  DeltaStore deltas_;
  double total_creation_cost_ = 0.0;
  double total_update_cost_ = 0.0;
  int64_t optimizer_calls_charged_ = 0;
  int64_t clock_ = 0;
  uint64_t stats_version_ = 0;
  CatalogMutationListener* listener_ = nullptr;
};

// Read-only view of the active statistics with an optional ignored subset
// (the Ignore_Statistics_Subset interface, §7.2).
class StatsView {
 public:
  explicit StatsView(const StatsCatalog* catalog) : catalog_(catalog) {}

  // Hides one statistic from the optimizer for lookups through this view.
  void Ignore(const StatKey& key) { ignored_.insert(key); }
  void IgnoreAll(const std::vector<StatKey>& keys) {
    for (const StatKey& k : keys) ignored_.insert(k);
  }

  bool IsVisible(const StatKey& key) const;

  // Both lookups make one pass over the catalog's entries and keep no
  // state between calls, so no catalog mutation has anything to
  // invalidate. Ties break by the smaller StatKey string (compared as
  // strings: "5:1,10" < "5:1,2").

  // The statistic providing a histogram for `column`: an active, visible
  // statistic whose leading column is `column` (narrowest width wins, so
  // a dedicated single-column statistic is preferred over a multi-column
  // one sharing the leading column).
  const Statistic* HistogramFor(ColumnRef column) const;

  // The statistic providing a density for the column *set* `columns` of
  // `table`: an active, visible statistic some leading prefix of which
  // equals the set. Returns the statistic and sets *prefix_len.
  const Statistic* DensityFor(TableId table,
                              const std::vector<ColumnId>& columns,
                              int* prefix_len) const;

  const StatsCatalog& catalog() const { return *catalog_; }

 private:
  const StatsCatalog* catalog_;
  std::unordered_set<StatKey> ignored_;
};

}  // namespace autostats

#endif  // AUTOSTATS_STATS_STATS_CATALOG_H_
