// Crash-safe durability for the statistics catalog. The paper's premise
// (§6) is statistics management as a long-lived background activity beside
// the server, so the catalog it maintains must survive process death
// without losing or double-applying state. This module provides:
//
//  - A write-ahead journal of catalog mutations: one CRC32-checksummed,
//    length-prefixed record per processed statement, carrying the full
//    current state of every entry the statement touched (value logging,
//    so replay is exact and idempotent), the tombstones of physically
//    dropped entries, the touched modification counters with their
//    delta-tracking bits, and the catalog header (logical clock,
//    stats_version, LSN).
//  - Periodic atomic snapshots: the complete catalog state written to a
//    temporary file, fsynced, and published with an atomic rename
//    (snapshot-<lsn>.ckpt); the journal is then swapped for a fresh one
//    the same way and old snapshots pruned to the newest few.
//  - Recovery: load the newest snapshot that validates, replay journal
//    records with higher LSNs, truncate the journal at the first torn or
//    corrupt record (a torn tail is expected after a crash — everything
//    before it is a consistent statement-boundary prefix), and fence
//    exactness: every entry of a table whose modification counter is
//    nonzero or whose delta stream was live at the last commit is flagged
//    pending_full_rebuild, because the in-process DeltaStore died with
//    the process and merging onto its base could miss deltas. A replay
//    gap (journal starting past snapshot LSN + 1, possible only when a
//    newer snapshot was lost to corruption) conservatively flags every
//    entry. The MNSA / MNSA-D loop then converges back to the exact
//    catalog through ordinary triggered rescans.
//  - Catalog files (SaveCatalog / LoadCatalog): one snapshot, published
//    and decoded by the same code, outside any durability directory.
//
// Crash injection: writes gate on the persistence.append /
// persistence.fsync / persistence.rename fault points through
// PokeFaultCrash (common/fault.h). A simulated-kill schedule
// (torn_write_bytes >= 0) makes the writer persist exactly that many
// bytes of the in-flight frame and then *seal* itself: crashed() turns
// true and every later commit or checkpoint fails without touching disk,
// exactly as if the process had died mid-write. Tests recover with a
// fresh Open() on the same directory. Plain injected failures (-1) are
// recoverable: a failed append keeps the dirty sets so the next commit
// retries with the same LSN (fail-open — a sick journal degrades the
// run, it never aborts serving).
#ifndef AUTOSTATS_STATS_DURABILITY_H_
#define AUTOSTATS_STATS_DURABILITY_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "stats/stats_catalog.h"

namespace autostats {

// CRC-32 (IEEE 802.3 polynomial, reflected) over `len` bytes.
uint32_t Crc32(const void* data, size_t len);

struct DurabilityOptions {
  std::string dir;
  // Snapshots retained after a successful checkpoint (newest N). Keeping
  // more than one lets recovery fall back across a corrupted newest
  // snapshot at the price of a replay gap (see file comment).
  int keep_snapshots = 2;
};

// What Open() found and did; purely informational.
struct RecoveryInfo {
  bool recovered = false;     // any durable state was found and loaded
  uint64_t snapshot_lsn = 0;  // LSN of the snapshot loaded (0 = none)
  uint64_t last_lsn = 0;      // LSN of the last journal record applied
  size_t records_replayed = 0;
  int snapshots_skipped = 0;       // corrupt snapshots fallen past
  bool journal_truncated = false;  // a torn/corrupt tail was cut off
  uint64_t truncated_at = 0;       // byte offset of the first bad record
  bool replay_gap = false;         // journal resumed past snapshot_lsn + 1
  size_t entries_flagged = 0;      // entries fenced pending_full_rebuild
  std::string detail;              // human-readable summary
};

// Offline verifier (examples/stats_fsck.cpp). Validates every snapshot
// (magic, frame, checksum, decodability) and the journal (magic, frame
// checksums, payload decodability, contiguous LSNs, monotone
// stats_version, and that the records connect to the newest snapshot).
struct FsckOptions {
  // Accept an incomplete final frame (the expected torn tail of a crash
  // that recovery would truncate). Checksum failures on *complete*
  // frames are corruption and always fail.
  bool allow_torn_tail = false;
};

struct FsckReport {
  bool ok = true;
  int snapshots_checked = 0;
  int snapshots_bad = 0;
  size_t journal_records = 0;
  bool journal_torn_tail = false;
  std::vector<std::string> findings;  // one line per problem
};

FsckReport FsckDurabilityDir(const std::string& dir,
                             const FsckOptions& options = {});

// Catalog files hand a catalog to another process without rebuilding its
// statistics. A catalog file is a one-frame snapshot file in the format
// Checkpoint() publishes (header LSN 0), so a snapshot-<lsn>.ckpt loads
// too. A save writes every entry, bases included, through the
// checkpoint's tmp + fsync + rename path, so a failed save leaves any
// previous file intact. Gated on persistence.save.
Status SaveCatalog(const StatsCatalog& catalog, const std::string& path);

// Installs a catalog file's entries at no build cost (gated on
// persistence.load): kNotFound for a missing file, kInvalidArgument naming
// `path` for anything malformed or on a column catalog->db() lacks. The
// file is checked whole first, so a failed load leaves the catalog and its
// stats_version untouched. Only entries are installed, not the clock or
// counters; each replaces any entry with its key and bumps stats_version.
// An entry that held a base comes back pending_full_rebuild: the base is
// exact, but this process's DeltaStore never saw the DML since the save.
Status LoadCatalog(StatsCatalog* catalog, const std::string& path);

// The durability manager for one StatsCatalog. Attaches itself as the
// catalog's mutation listener; AutoStatsManager drives CommitStatement()
// once per processed statement and Checkpoint() on the policy cadence.
class CatalogDurability : public CatalogMutationListener {
 public:
  // Opens (creating if absent) the durability directory, recovers any
  // existing snapshot + journal into *catalog (which must be freshly
  // constructed and empty), truncates a torn journal tail, applies the
  // recovery fences, and attaches as the catalog's mutation listener.
  // `info` (may be null) receives what recovery found.
  static Result<std::unique_ptr<CatalogDurability>> Open(
      StatsCatalog* catalog, const DurabilityOptions& options,
      RecoveryInfo* info = nullptr);

  // Re-establishes durability around a LIVE catalog without replaying the
  // directory (the circuit-breaker recovery path, server/autostats_server).
  // The in-memory catalog is authoritative — it is exactly the state after
  // `resume_lsn` processed statements — so instead of recovering, this
  // publishes a full-catalog snapshot at `resume_lsn` and swaps in a fresh
  // journal (both fault-gated like any checkpoint), superseding whatever
  // the sealed journal held, then attaches as the catalog's mutation
  // listener. On failure the directory is untouched as far as recovery is
  // concerned (an unrenamed tmp file at worst) and the catalog keeps no
  // durability. Requires resume_lsn > 0 and no listener already attached.
  static Result<std::unique_ptr<CatalogDurability>> Resume(
      StatsCatalog* catalog, const DurabilityOptions& options,
      uint64_t resume_lsn);

  ~CatalogDurability() override;

  CatalogDurability(const CatalogDurability&) = delete;
  CatalogDurability& operator=(const CatalogDurability&) = delete;

  // Appends one journal record covering every mutation since the previous
  // successful commit, then fsyncs it inline — or, with a deferral hook
  // installed, hands the fsync to the hook's owner. Always appends —
  // even a statement that changed nothing commits a record, because the
  // LSN sequence numbers processed statements one-for-one and that is
  // what makes post-crash resume exactly-once (resume at statement index
  // last_lsn). On a plain append failure the dirty sets are kept and the
  // next commit retries under the same LSN; after a simulated kill every
  // call fails with kFailedPrecondition.
  Status CommitStatement();

  // Pays the fsync owed for every append since the last physical fsync
  // (a no-op when nothing is owed): the deferred window a hook opened, or
  // an inline fsync that failed. A pass whose physical fsync FAILED
  // leaves the window open — the fsync is still owed, so the next Flush()
  // retries it instead of reporting OK: a poisoned flush is never
  // silently absorbed by a later pass (the circuit breaker depends on
  // seeing it). On OK, `synced_lsn` (may be null) receives the last LSN
  // now durable, read under the writer's lock — safe from a thread other
  // than the committing one.
  Status Flush(uint64_t* synced_lsn = nullptr);

  // Permanently seals the writer (the circuit breaker's quarantine):
  // every later commit, flush, or checkpoint fails with
  // kFailedPrecondition without touching disk, exactly as after a
  // simulated kill. The journal on disk stays a valid statement-boundary
  // prefix; a fresh Open() on the directory (or Resume()) recovers it.
  // Thread-safe and idempotent.
  void Seal() { sealed_.store(true, std::memory_order_relaxed); }

  // Cross-tenant async group commit (server/fsync_coordinator.h). With no
  // hook, every commit pays its fsync inline. When a hook is installed, a
  // commit no longer pays SyncJournal: the record is appended and
  // OS-flushed exactly as before (so statement-boundary tearing and
  // replay are unchanged), and the hook is invoked — outside the internal
  // lock — to announce that this journal owes an fsync. The hook's owner
  // decides when to call Flush(), which acknowledges every append since
  // the last physical fsync in one call; until then the unsynced tail
  // sits in the OS page cache (survives process death, not machine
  // death). Install before serving begins; the hook must be thread-safe
  // and must not call back into this object.
  void set_fsync_deferral(std::function<void()> hook) {
    fsync_deferral_ = std::move(hook);
  }

  // Publishes a full-catalog snapshot at the last committed LSN (tmp file
  // + fsync + atomic rename), swaps in a fresh journal the same way, and
  // prunes snapshots beyond options.keep_snapshots. Commits pending
  // mutations first so the snapshot sits on a statement boundary.
  Status Checkpoint();

 private:
  // Checkpoint body; the public wrapper adds latency metrics and the
  // wal.checkpoint trace event around it. Runs under commit_mu_; sets
  // *defer_fsync when its internal commit left an fsync to the hook.
  Status CheckpointImpl(bool* defer_fsync);
  // CommitStatement body, called under commit_mu_. When a deferral hook
  // is installed, sets *defer_fsync instead of paying SyncJournal.
  Status CommitStatementLocked(bool* defer_fsync);

 public:

  // LSN of the last successfully committed record (0 before the first).
  uint64_t last_committed_lsn() const { return next_lsn_ - 1; }
  // True once a simulated (or real, unrecoverable) kill sealed the
  // writer; only a fresh Open() on the directory resumes durability.
  // Safe to read from any thread (the fsync coordinator may seal while a
  // worker is deciding whether to commit).
  bool crashed() const { return sealed_.load(std::memory_order_relaxed); }
  size_t pending_mutations() const {
    return dirty_entries_.size() + erased_entries_.size() +
           dirty_counters_.size();
  }
  // Committed records appended (and OS-flushed) but not yet fsynced —
  // the deferred window. 0 with no deferral hook unless an inline fsync
  // failed.
  int unsynced_appends() const {
    std::lock_guard<std::mutex> lock(commit_mu_);
    return appends_since_fsync_;
  }

  // CatalogMutationListener:
  void OnEntryMutated(const StatKey& key) override;
  void OnEntryErased(const StatKey& key) override;
  void OnCounterMutated(TableId table) override;

 private:
  CatalogDurability(StatsCatalog* catalog, DurabilityOptions options);

  Status Recover(RecoveryInfo* info);
  // Serializes the dirty sets into one journal record stamped with `lsn`.
  std::string EncodeDirtyRecord(uint64_t lsn) const;
  // Appends one frame to the open journal, honoring the append/fsync
  // crash gates. `gate_detail` feeds the schedules' match filter. Sets
  // *record_persisted once the full frame reached the file — a later
  // fsync failure then means committed-but-unacked, not lost.
  Status AppendFrame(const std::string& payload, const char* gate_detail,
                     bool* record_persisted);
  // One physical journal fsync covering every append since the last one;
  // honors the fsync crash gate and closes the deferred window.
  Status SyncJournal(const char* gate_detail);
  void ClearDirty();

  std::string JournalPath() const;
  std::string SnapshotPath(uint64_t lsn) const;

  StatsCatalog* catalog_;
  DurabilityOptions options_;
  // Serializes CommitStatement / Flush / Checkpoint against each other:
  // with a deferral hook installed, Flush() arrives from the fsync
  // coordinator's thread while the owning worker may be committing the
  // next statement. Uncontended in every single-threaded path.
  mutable std::mutex commit_mu_;
  std::function<void()> fsync_deferral_;  // see set_fsync_deferral()
  std::FILE* journal_ = nullptr;
  uint64_t next_lsn_ = 1;
  std::atomic<bool> sealed_{false};
  int appends_since_fsync_ = 0;  // deferred window (see Flush())
  // Sorted so record layout is deterministic for a given catalog history.
  std::set<StatKey> dirty_entries_;
  std::set<StatKey> erased_entries_;
  std::set<TableId> dirty_counters_;
};

}  // namespace autostats

#endif  // AUTOSTATS_STATS_DURABILITY_H_
