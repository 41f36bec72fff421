// Crash-safety tests for the statistics catalog's durability layer
// (stats/durability.h):
//  1. Round trip: a cleanly closed journal + snapshot directory reopens
//     to the bit-identical catalog, a checkpoint resets the journal in
//     place (same file, magic only), and a checkpoint loads through
//     LoadCatalog with bit-identical entries.
//  2. Crash-property sweep: simulated kills at every persistence fault
//     point (append / fsync / rename), at every schedule position, with
//     torn prefixes of 0, a few, and "all" bytes. Recovery must yield a
//     valid statement-boundary prefix of the no-crash run (bit-identical
//     entries, matching stats_version and clock), fence every table with
//     unconsumed modifications, and the resumed run must converge to the
//     bit-identical no-crash final catalog.
//  3. Torn tails and mid-journal corruption truncate at the first bad
//     record instead of aborting; a corrupted newest snapshot falls back
//     to an older one and the replay gap fences the whole catalog.
//  4. Plain (non-kill) append failures keep the dirty sets so the next
//     commit re-journals them under the same LSN; a plain failure at the
//     journal reset fails only its checkpoint. A checkpoint makes one
//     rename and two gated fsyncs, and Resume over a directory without a
//     journal keeps the commits that follow it.
//  5. Deferred fsync: with a deferral hook installed every commit owes
//     its fsync to the hook's owner, and Flush() pays it (or, failing,
//     keeps it owed).
//  6. Hostile payloads: crafted counts and seeded mutations (byte flips,
//     truncations, u32 count overwrites) of a saved catalog, framed with
//     a valid CRC, are loaded, rejected, skipped or truncated — never
//     fatal, never a large allocation.
// The last test writes a clean `durability_artifacts` directory that the
// `stats_fsck_scan` ctest step verifies with the offline checker.
#include "stats/durability.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "core/auto_manager.h"
#include "executor/dml_exec.h"
#include "server/catalog_digest.h"
#include "stats/stats_catalog.h"
#include "tests/counting_new.h"
#include "tests/test_util.h"

namespace autostats {
namespace {

namespace fs = std::filesystem;

using testing::MakeFilterQuery;
using testing::MakeJoinQuery;
using testing::MakeTwoTableDb;
using testing::TwoTableDb;

// Scratch directory helper: a fresh, empty directory per use.
std::string FreshDir(const std::string& name) {
  const std::string dir = "durability_test." + name + ".dir";
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

// --- The bit-level catalog oracle -----------------------------------------
//
// One line per catalog fact, every double at full precision, so equal
// dumps mean bit-identical catalogs. Deliberately EXCLUDES
// pending_full_rebuild (recovery fences entries the no-crash run never
// flags) and stats_version (a fenced rescan always bumps where the
// no-crash run's no-op merge does not); both are asserted separately
// where their exact values are defined.
std::vector<std::string> DumpCatalog(const StatsCatalog& catalog) {
  std::vector<std::string> out;
  std::ostringstream header;
  header << "clock=" << catalog.now();
  out.push_back(header.str());
  for (const auto& [table, rows] : catalog.ModificationCounters()) {
    if (rows == 0) continue;  // a zero counter is semantically absent
    std::ostringstream line;
    line << "mod table=" << table << " rows=" << rows;
    out.push_back(line.str());
  }
  std::vector<StatKey> keys = catalog.ActiveKeys();
  const std::vector<StatKey> dropped = catalog.DropListKeys();
  keys.insert(keys.end(), dropped.begin(), dropped.end());
  std::sort(keys.begin(), keys.end());
  for (const StatKey& key : keys) {
    const StatEntry* e = catalog.FindEntry(key);
    const Statistic& s = e->stat;
    std::ostringstream line;
    line << std::setprecision(17);
    line << key << " drop=" << (e->in_drop_list ? 1 : 0)
         << " updates=" << e->update_count << " cost=" << e->creation_cost
         << " created=" << e->created_at << " dropped=" << e->dropped_at
         << " rows=" << s.rows_at_build() << " prefix=";
    for (int k = 1; k <= s.width(); ++k) line << s.PrefixDistinct(k) << ",";
    line << " hist=" << s.histogram().total_rows() << "/"
         << s.histogram().total_distinct() << ":";
    for (const HistogramBucket& b : s.histogram().buckets()) {
      line << "[" << b.lo << "," << b.hi << "," << b.rows << ","
           << b.distinct << "]";
    }
    if (s.has_grid2d()) {
      line << " grid=" << s.grid2d().total_rows() << ":";
      for (const GridBucket& b : s.grid2d().buckets()) {
        line << "[" << b.lo1 << "," << b.hi1 << "," << b.lo2 << "," << b.hi2
             << "," << b.rows << "," << b.distinct << "]";
      }
    }
    line << " base=";
    for (const ValueFreq& vf : e->base_dist) {
      line << "(" << vf.value << "," << vf.freq << ")";
    }
    out.push_back(line.str());
  }
  return out;
}

// --- The replayed workload ------------------------------------------------

constexpr size_t kFactRows = 2000;

// Eight statements mixing queries (MNSA-D creation, probes) and DML
// (counters, delta sketches, incremental refreshes) so commits carry
// non-trivial state and checkpoints land mid-history.
Workload CrashWorkload(const TwoTableDb& t) {
  Workload w("crashy");
  w.AddQuery(MakeFilterQuery(t, 30));
  DmlStatement insert;
  insert.kind = DmlKind::kInsert;
  insert.table = t.fact;
  insert.row_count = 400;
  insert.seed = 7;
  w.AddDml(insert);
  w.AddQuery(MakeJoinQuery(t, 60));
  DmlStatement update;
  update.kind = DmlKind::kUpdate;
  update.table = t.fact;
  update.update_column = t.fact_val.column;
  update.row_count = 300;
  update.seed = 11;
  w.AddDml(update);
  w.AddQuery(MakeFilterQuery(t, 80, /*group=*/true));
  DmlStatement insert2 = insert;
  insert2.row_count = 350;
  insert2.seed = 13;
  w.AddDml(insert2);
  w.AddQuery(MakeJoinQuery(t, 20));
  DmlStatement update2 = update;
  update2.update_column = t.fact_grp.column;
  update2.row_count = 250;
  update2.seed = 17;
  w.AddDml(update2);
  return w;
}

ManagerPolicy TestPolicy() {
  ManagerPolicy policy;
  policy.mode = CreationMode::kMnsaDOnTheFly;
  policy.update_trigger.fraction = 0.01;
  policy.update_trigger.floor = 1;
  policy.update_trigger.incremental = true;
  policy.enable_aging = true;
  policy.aging.cooldown_ticks = 2;
  policy.durability_checkpoint_every = 3;
  return policy;
}

// Per-statement-prefix oracle from an uninterrupted, durability-free run:
// dumps[i] / versions[i] hold the catalog after the first i statements.
struct Baseline {
  std::vector<std::vector<std::string>> dumps;
  std::vector<uint64_t> versions;
};

Baseline ComputeBaseline(const Workload& w) {
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  StatsCatalog catalog(&t.db);
  Optimizer optimizer(&t.db);
  AutoStatsManager manager(&t.db, &catalog, &optimizer, TestPolicy());
  Baseline base;
  base.dumps.push_back(DumpCatalog(catalog));
  base.versions.push_back(catalog.stats_version());
  for (const Statement& s : w.statements()) {
    manager.Process(s);
    base.dumps.push_back(DumpCatalog(catalog));
    base.versions.push_back(catalog.stats_version());
  }
  return base;
}

// Runs the workload with durability attached until the writer seals (or
// the workload ends). Whatever fault schedule is armed applies.
void RunUntilCrash(const Workload& w, const std::string& dir) {
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  StatsCatalog catalog(&t.db);
  Result<std::unique_ptr<CatalogDurability>> opened =
      CatalogDurability::Open(&catalog, {.dir = dir});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Optimizer optimizer(&t.db);
  AutoStatsManager manager(&t.db, &catalog, &optimizer, TestPolicy());
  manager.AttachDurability(opened->get());
  for (const Statement& s : w.statements()) {
    manager.Process(s);
    if ((*opened)->crashed()) break;
  }
}

// Recovers `dir` into a fresh catalog + rebuilt data plane, checks the
// recovered state is the exact baseline prefix, resumes the remaining
// statements, and checks bit-identical convergence to the no-crash final.
void RecoverResumeAndCheck(const Workload& w, const std::string& dir,
                           const Baseline& base, const std::string& label) {
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  StatsCatalog catalog(&t.db);
  RecoveryInfo info;
  Result<std::unique_ptr<CatalogDurability>> opened =
      CatalogDurability::Open(&catalog, {.dir = dir}, &info);
  ASSERT_TRUE(opened.ok()) << label << ": " << opened.status().ToString();
  const size_t n = w.statements().size();
  const size_t resume_at = static_cast<size_t>(info.last_lsn);
  ASSERT_LE(resume_at, n) << label;

  // The LSN numbers processed statements one-for-one, so the durable
  // prefix is exactly the first `resume_at` statements: replay their DML
  // (deterministic by seed) to rebuild the matching data plane.
  for (size_t i = 0; i < resume_at; ++i) {
    const Statement& s = w.statements()[i];
    if (s.kind == Statement::Kind::kDml) ApplyDml(&t.db, s.dml, nullptr);
  }

  // Recovery invariant 1: the recovered catalog is the bit-identical
  // statement-boundary prefix, with the journaled stats_version (itself
  // monotone by construction — replay rejects regressions) and clock.
  EXPECT_EQ(DumpCatalog(catalog), base.dumps[resume_at]) << label;
  EXPECT_EQ(catalog.stats_version(), base.versions[resume_at]) << label;

  // Recovery invariant 2: exactness fences. Every entry of a table with
  // unconsumed modifications is flagged to rescan — the in-process delta
  // sketches died with the process.
  std::vector<StatKey> keys = catalog.ActiveKeys();
  const std::vector<StatKey> dropped = catalog.DropListKeys();
  keys.insert(keys.end(), dropped.begin(), dropped.end());
  for (const StatKey& key : keys) {
    const StatEntry* e = catalog.FindEntry(key);
    if (catalog.modified_rows(e->stat.table()) > 0) {
      EXPECT_TRUE(e->pending_full_rebuild) << label << " " << key;
    }
  }

  // Resume exactly-once from the durable prefix; the fenced rescans must
  // converge to the bit-identical no-crash final catalog.
  Optimizer optimizer(&t.db);
  AutoStatsManager manager(&t.db, &catalog, &optimizer, TestPolicy());
  manager.AttachDurability(opened->get());
  for (size_t i = resume_at; i < n; ++i) {
    manager.Process(w.statements()[i]);
    ASSERT_FALSE((*opened)->crashed()) << label;
  }
  EXPECT_EQ(DumpCatalog(catalog), base.dumps[n]) << label;
}

// One full kill-recover-resume cycle with `point` armed to die at its
// `nth` poke (counting only pokes whose detail contains `match`) after
// persisting `torn_bytes` of the in-flight frame.
void CrashCycle(const Workload& w, const Baseline& base, const char* point,
                int64_t nth, int64_t torn_bytes,
                const std::string& match = "") {
  const std::string label = std::string(point) + " nth=" +
                            std::to_string(nth) + " torn=" +
                            std::to_string(torn_bytes) + " match=" + match;
  const std::string dir = FreshDir("crash");
  FaultSchedule schedule;
  schedule.kind = FaultKind::kFailNth;
  schedule.nth = nth;
  schedule.count = 1;
  schedule.torn_write_bytes = torn_bytes;
  schedule.match = match;
  FaultInjector::Instance().Arm(point, schedule);
  RunUntilCrash(w, dir);
  FaultInjector::Instance().Reset();
  RecoverResumeAndCheck(w, dir, base, label);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

class DurabilityTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// --- 0. Checksum identity ------------------------------------------------

// The classic bytewise CRC-32 (reflected 0xEDB88320), one table lookup per
// byte: the checksum every journal, snapshot and catalog file carries.
uint32_t BytewiseCrc32(const unsigned char* p, size_t len) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBytewiseReference) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  Rng rng(0xC4C32);
  std::vector<unsigned char> buf((size_t{1} << 20) + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.NextU64(256));
  // Every length 0..64 at every start offset 0..7: all head/tail splits
  // around the 8-byte steps, at every alignment.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      ASSERT_EQ(Crc32(buf.data() + offset, len),
                BytewiseCrc32(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
  for (const size_t len : {size_t{1000}, size_t{4099}, size_t{65543},
                           size_t{1} << 20}) {
    EXPECT_EQ(Crc32(buf.data() + 3, len), BytewiseCrc32(buf.data() + 3, len))
        << "len " << len;
  }
}

// --- 1. Round trip --------------------------------------------------------

TEST_F(DurabilityTest, CleanCloseReopensBitIdentical) {
  const std::string dir = FreshDir("roundtrip");
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  const Workload w = CrashWorkload(t);
  const Baseline base = ComputeBaseline(w);

  RunUntilCrash(w, dir);  // no schedule armed: runs to completion
  RecoverResumeAndCheck(w, dir, base, "clean close");

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// The journal file's inode: a checkpoint resets the open journal in
// place, so it never changes.
ino_t JournalInode(const std::string& dir) {
  struct stat st;
  EXPECT_EQ(::stat((dir + "/journal.wal").c_str(), &st), 0);
  return st.st_ino;
}

TEST_F(DurabilityTest, CheckpointPrunesSnapshotsAndResetsJournal) {
  const std::string dir = FreshDir("checkpoint");
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  StatsCatalog catalog(&t.db);
  Result<std::unique_ptr<CatalogDurability>> opened =
      CatalogDurability::Open(&catalog, {.dir = dir, .keep_snapshots = 2});
  ASSERT_TRUE(opened.ok());
  CatalogDurability* d = opened->get();
  const ino_t inode = JournalInode(dir);

  for (int i = 0; i < 3; ++i) {
    catalog.Tick();
    catalog.CreateStatistic({ColumnRef{t.fact, static_cast<ColumnId>(i)}});
    ASSERT_TRUE(d->CommitStatement().ok());
    EXPECT_GT(fs::file_size(dir + "/journal.wal"), 8u);
    ASSERT_TRUE(d->Checkpoint().ok());
    // Reset in place to magic only: the same file, no tmp journal.
    EXPECT_EQ(fs::file_size(dir + "/journal.wal"), 8u);
    EXPECT_EQ(JournalInode(dir), inode);
    EXPECT_FALSE(fs::exists(dir + "/journal.tmp"));
  }
  // Three checkpoints at LSNs 1, 2, 3; only the newest two survive.
  EXPECT_FALSE(fs::exists(dir + "/snapshot-1.ckpt"));
  EXPECT_TRUE(fs::exists(dir + "/snapshot-2.ckpt"));
  EXPECT_TRUE(fs::exists(dir + "/snapshot-3.ckpt"));

  const FsckReport report = FsckDurabilityDir(dir);
  EXPECT_TRUE(report.ok) << (report.findings.empty()
                                 ? ""
                                 : report.findings.front());
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// --- 2. Crash-property sweep ----------------------------------------------

TEST_F(DurabilityTest, CrashSweepAppendPoint) {
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  const Workload w = CrashWorkload(t);
  const Baseline base = ComputeBaseline(w);
  // 8 statements = 8 append pokes; nth=9 never fires, covering the
  // completes-without-crash edge (recovery of a live directory).
  for (int64_t nth = 1; nth <= 9; ++nth) {
    for (int64_t torn : {int64_t{0}, int64_t{9}, int64_t{1} << 20}) {
      CrashCycle(w, base, faults::kPersistenceAppend, nth, torn);
    }
  }
}

TEST_F(DurabilityTest, CrashSweepFsyncAndRenamePoints) {
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  const Workload w = CrashWorkload(t);
  const Baseline base = ComputeBaseline(w);
  // fsync pokes: one per journal commit plus two per checkpoint (the
  // snapshot tmp file, then the journal reset). Checkpoints follow
  // statements 3 and 6, so pokes 4 and 9 are snapshot fsyncs. Kills here
  // model dying with the record already in the file (committed-but-
  // unacked) or with an unpublished tmp snapshot.
  for (int64_t nth : {1, 2, 4, 6, 9, 12}) {
    CrashCycle(w, base, faults::kPersistenceFsync, nth, 0);
  }
  // Each checkpoint's journal reset (fsync pokes 5 and 10), picked by
  // detail: a published snapshot beside a journal that was not reset.
  for (int64_t nth : {1, 2}) {
    CrashCycle(w, base, faults::kPersistenceFsync, nth, 0, "journal-reset");
  }
  // rename pokes: one per checkpoint (the snapshot publish).
  for (int64_t nth : {1, 2}) {
    CrashCycle(w, base, faults::kPersistenceRename, nth, 0);
  }
}

// --- 3. Torn writes and corruption ----------------------------------------

// Three direct commits against a bare catalog (no manager): the fixture
// for the byte-surgery tests below.
void CommitThreeStatistics(const std::string& dir, const TwoTableDb& t,
                           StatsCatalog* catalog,
                           std::unique_ptr<CatalogDurability>* out) {
  Result<std::unique_ptr<CatalogDurability>> opened =
      CatalogDurability::Open(catalog, {.dir = dir});
  ASSERT_TRUE(opened.ok());
  *out = std::move(*opened);
  for (const ColumnRef& c : {t.fact_fk, t.fact_val, t.fact_grp}) {
    catalog->Tick();
    catalog->CreateStatistic({c});
    ASSERT_TRUE((*out)->CommitStatement().ok());
  }
  ASSERT_EQ((*out)->last_committed_lsn(), 3u);
}

TEST_F(DurabilityTest, CheckpointFileLoadsAsACatalog) {
  // A catalog file is a one-frame snapshot, so LoadCatalog reads a
  // checkpoint: same keys, drop-list membership and bit-identical
  // statistics. The clock stays behind.
  const std::string dir = FreshDir("ckptload");
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  StatsCatalog catalog(&t.db);
  std::unique_ptr<CatalogDurability> d;
  CommitThreeStatistics(dir, t, &catalog, &d);
  catalog.MoveToDropList(MakeStatKey({t.fact_grp}));
  ASSERT_TRUE(d->Checkpoint().ok());  // commits LSN 4 first

  StatsCatalog loaded(&t.db);
  ASSERT_TRUE(LoadCatalog(&loaded, dir + "/snapshot-4.ckpt").ok());
  std::vector<std::string> want = DumpCatalog(catalog);
  want.front() = "clock=0";
  EXPECT_EQ(DumpCatalog(loaded), want);
  EXPECT_EQ(loaded.num_drop_listed(), 1u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST_F(DurabilityTest, TornTailIsTruncatedNotFatal) {
  const std::string dir = FreshDir("torntail");
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  {
    StatsCatalog catalog(&t.db);
    std::unique_ptr<CatalogDurability> d;
    CommitThreeStatistics(dir, t, &catalog, &d);
  }
  // Chop 5 bytes off the journal: the third record becomes a torn tail.
  const std::string journal = dir + "/journal.wal";
  fs::resize_file(journal, fs::file_size(journal) - 5);

  const FsckReport strict = FsckDurabilityDir(dir);
  EXPECT_FALSE(strict.ok);
  EXPECT_TRUE(strict.journal_torn_tail);
  EXPECT_TRUE(FsckDurabilityDir(dir, {.allow_torn_tail = true}).ok);

  StatsCatalog recovered(&t.db);
  RecoveryInfo info;
  Result<std::unique_ptr<CatalogDurability>> opened =
      CatalogDurability::Open(&recovered, {.dir = dir}, &info);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(info.journal_truncated);
  EXPECT_EQ(info.last_lsn, 2u);
  EXPECT_NE(recovered.FindEntry(MakeStatKey({t.fact_val})), nullptr);
  EXPECT_EQ(recovered.FindEntry(MakeStatKey({t.fact_grp})), nullptr);
  // The truncated journal is clean again, and the next LSN continues the
  // sequence.
  EXPECT_TRUE(FsckDurabilityDir(dir).ok);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST_F(DurabilityTest, MidJournalCorruptionTruncatesAtFirstBadRecord) {
  const std::string dir = FreshDir("midcorrupt");
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  {
    StatsCatalog catalog(&t.db);
    std::unique_ptr<CatalogDurability> d;
    CommitThreeStatistics(dir, t, &catalog, &d);
  }
  // Locate record 2: file magic (8) + frame 1 (12-byte header + payload).
  const std::string journal = dir + "/journal.wal";
  std::string data;
  {
    std::ifstream in(journal, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    data = buf.str();
  }
  uint32_t len1 = 0;
  std::memcpy(&len1, data.data() + 8 + 4, sizeof(len1));
  const size_t record2 = 8 + 12 + len1;
  ASSERT_LT(record2 + 20, data.size());
  {
    std::fstream f(journal,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(record2 + 16));
    char byte = 0x5A;
    f.write(&byte, 1);  // clobber one payload byte of record 2
  }

  const FsckReport report = FsckDurabilityDir(dir, {.allow_torn_tail = true});
  EXPECT_FALSE(report.ok);  // complete frame, bad checksum: corruption

  // Recovery keeps the valid prefix (record 1) and truncates the rest —
  // including the intact record 3 behind the corruption, which is
  // unreachable without trusting a bad frame's length field.
  StatsCatalog recovered(&t.db);
  RecoveryInfo info;
  Result<std::unique_ptr<CatalogDurability>> opened =
      CatalogDurability::Open(&recovered, {.dir = dir}, &info);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(info.journal_truncated);
  EXPECT_EQ(info.truncated_at, record2);
  EXPECT_EQ(info.last_lsn, 1u);
  EXPECT_NE(recovered.FindEntry(MakeStatKey({t.fact_fk})), nullptr);
  EXPECT_EQ(recovered.FindEntry(MakeStatKey({t.fact_val})), nullptr);
  EXPECT_TRUE(FsckDurabilityDir(dir).ok);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST_F(DurabilityTest, CorruptSnapshotFallsBackAndReplayGapFencesAll) {
  const std::string dir = FreshDir("snapfall");
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  {
    StatsCatalog catalog(&t.db);
    Result<std::unique_ptr<CatalogDurability>> opened = CatalogDurability::Open(
        &catalog, {.dir = dir, .keep_snapshots = 2});
    ASSERT_TRUE(opened.ok());
    CatalogDurability* d = opened->get();
    catalog.Tick();
    catalog.CreateStatistic({t.fact_fk});
    ASSERT_TRUE(d->CommitStatement().ok());
    ASSERT_TRUE(d->Checkpoint().ok());  // snapshot-1
    catalog.Tick();
    catalog.CreateStatistic({t.fact_val});
    ASSERT_TRUE(d->CommitStatement().ok());
    ASSERT_TRUE(d->Checkpoint().ok());  // snapshot-2, journal reset
    catalog.Tick();
    catalog.CreateStatistic({t.fact_grp});
    ASSERT_TRUE(d->CommitStatement().ok());  // LSN 3, journal only
  }
  // Corrupt the newest snapshot: recovery must fall back to snapshot-1,
  // and the journal (which starts at LSN 3 > 1 + 1) is a replay gap.
  {
    std::fstream f(dir + "/snapshot-2.ckpt",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    char byte = 0x5A;
    f.write(&byte, 1);
  }
  StatsCatalog recovered(&t.db);
  RecoveryInfo info;
  Result<std::unique_ptr<CatalogDurability>> opened =
      CatalogDurability::Open(&recovered, {.dir = dir}, &info);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(info.snapshots_skipped, 1);
  EXPECT_EQ(info.snapshot_lsn, 1u);
  EXPECT_TRUE(info.replay_gap);
  EXPECT_EQ(info.last_lsn, 3u);
  // The gap loses record 2's entry — snapshot-1 plus record 3 is the best
  // recoverable approximation — so EVERY surviving entry is fenced to a
  // full rescan.
  EXPECT_NE(recovered.FindEntry(MakeStatKey({t.fact_fk})), nullptr);
  EXPECT_NE(recovered.FindEntry(MakeStatKey({t.fact_grp})), nullptr);
  for (const StatKey& key : recovered.ActiveKeys()) {
    EXPECT_TRUE(recovered.FindEntry(key)->pending_full_rebuild) << key;
  }
  EXPECT_GE(info.entries_flagged, 2u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// --- 4. Plain (recoverable) failures --------------------------------------

TEST_F(DurabilityTest, PlainAppendFailureRetriesUnderSameLsn) {
  const std::string dir = FreshDir("plainfail");
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  StatsCatalog catalog(&t.db);
  Result<std::unique_ptr<CatalogDurability>> opened =
      CatalogDurability::Open(&catalog, {.dir = dir});
  ASSERT_TRUE(opened.ok());
  CatalogDurability* d = opened->get();

  FaultSchedule schedule;  // torn_write_bytes stays -1: plain failure
  schedule.kind = FaultKind::kFailNth;
  schedule.nth = 1;
  schedule.count = 1;
  FaultInjector::Instance().Arm(faults::kPersistenceAppend, schedule);

  catalog.Tick();
  catalog.CreateStatistic({t.fact_fk});
  EXPECT_FALSE(d->CommitStatement().ok());
  EXPECT_FALSE(d->crashed());  // recoverable, not a kill
  EXPECT_EQ(d->last_committed_lsn(), 0u);
  EXPECT_GT(d->pending_mutations(), 0u);

  // The next commit re-journals the kept dirty state together with the
  // new statement's, under the LSN the failed commit never consumed.
  catalog.Tick();
  catalog.CreateStatistic({t.fact_val});
  EXPECT_TRUE(d->CommitStatement().ok());
  EXPECT_EQ(d->last_committed_lsn(), 1u);
  EXPECT_EQ(d->pending_mutations(), 0u);

  StatsCatalog recovered(&t.db);
  RecoveryInfo info;
  Result<std::unique_ptr<CatalogDurability>> reopened =
      CatalogDurability::Open(&recovered, {.dir = dir}, &info);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(info.last_lsn, 1u);
  EXPECT_NE(recovered.FindEntry(MakeStatKey({t.fact_fk})), nullptr);
  EXPECT_NE(recovered.FindEntry(MakeStatKey({t.fact_val})), nullptr);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// A failed Flush() must stay owed: the deferred window stays open so the
// NEXT Flush() physically retries the fsync instead of no-opping — a
// poisoned flush can never be silently absorbed by a later pass that has
// nothing of its own to sync.
TEST_F(DurabilityTest, PoisonedFlushIsRetriedNotDropped) {
  const std::string dir = FreshDir("poisonflush");
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  StatsCatalog catalog(&t.db);
  Result<std::unique_ptr<CatalogDurability>> opened =
      CatalogDurability::Open(&catalog, {.dir = dir});
  ASSERT_TRUE(opened.ok());
  CatalogDurability* d = opened->get();
  d->set_fsync_deferral([] {});  // open the window; nobody flushes but us

  catalog.Tick();
  catalog.CreateStatistic({t.fact_fk});
  ASSERT_TRUE(d->CommitStatement().ok());
  catalog.Tick();
  catalog.CreateStatistic({t.fact_val});
  ASSERT_TRUE(d->CommitStatement().ok());
  ASSERT_EQ(d->unsynced_appends(), 2);  // deferred, fsync still owed

  FaultSchedule schedule;  // plain failure on exactly the next fsync
  schedule.kind = FaultKind::kFailNth;
  schedule.nth = 1;
  schedule.count = 1;
  FaultInjector::Instance().Arm(faults::kPersistenceFsync, schedule);
  const Status poisoned = d->Flush();
  EXPECT_FALSE(poisoned.ok());
  EXPECT_FALSE(d->crashed());
  // THE regression: the window must remain open after the failure.
  EXPECT_EQ(d->unsynced_appends(), 2);

  // The disk healed (schedule exhausted): the retry pays the owed fsync.
  EXPECT_TRUE(d->Flush().ok());
  EXPECT_EQ(d->unsynced_appends(), 0);

  StatsCatalog recovered(&t.db);
  RecoveryInfo info;
  Result<std::unique_ptr<CatalogDurability>> reopened =
      CatalogDurability::Open(&recovered, {.dir = dir}, &info);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(info.last_lsn, 2u);
  EXPECT_NE(recovered.FindEntry(MakeStatKey({t.fact_fk})), nullptr);
  EXPECT_NE(recovered.FindEntry(MakeStatKey({t.fact_val})), nullptr);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST_F(DurabilityTest, CheckpointRenamesOnceAndGatesTwoFsyncs) {
  const std::string dir = FreshDir("pokes");
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  StatsCatalog catalog(&t.db);
  std::unique_ptr<CatalogDurability> d;
  CommitThreeStatistics(dir, t, &catalog, &d);
  FaultSchedule never;
  never.nth = int64_t{1} << 40;
  FaultInjector::Instance().Arm(faults::kPersistenceFsync, never);
  FaultInjector::Instance().Arm(faults::kPersistenceRename, never);
  ASSERT_TRUE(d->Checkpoint().ok());
  // One rename publishes the snapshot. The gated fsyncs are the snapshot
  // tmp file's and the journal reset's; the directory fsync after the
  // rename is the third, ungated.
  EXPECT_EQ(
      FaultInjector::Instance().PointStats(faults::kPersistenceRename).hits,
      1);
  EXPECT_EQ(
      FaultInjector::Instance().PointStats(faults::kPersistenceFsync).hits, 2);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST_F(DurabilityTest, PlainResetFailureFailsOnlyThatCheckpoint) {
  const std::string dir = FreshDir("resetfail");
  const std::string journal = dir + "/journal.wal";
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  StatsCatalog catalog(&t.db);
  std::unique_ptr<CatalogDurability> d;
  CommitThreeStatistics(dir, t, &catalog, &d);
  FaultSchedule schedule;  // torn_write_bytes stays -1: plain failure
  schedule.nth = 1;
  schedule.count = 1;
  schedule.match = "journal-reset";
  FaultInjector::Instance().Arm(faults::kPersistenceFsync, schedule);

  // The snapshot is published, the journal keeps its records (all at or
  // below the snapshot LSN), and the writer stays live.
  EXPECT_FALSE(d->Checkpoint().ok());
  EXPECT_FALSE(d->crashed());
  EXPECT_TRUE(fs::exists(dir + "/snapshot-3.ckpt"));
  EXPECT_GT(fs::file_size(journal), 8u);

  catalog.Tick();
  catalog.CreateStatistic({t.fact_flag});
  ASSERT_TRUE(d->CommitStatement().ok());
  ASSERT_TRUE(d->Checkpoint().ok());
  EXPECT_EQ(fs::file_size(journal), 8u);
  const FsckReport report = FsckDurabilityDir(dir);
  EXPECT_TRUE(report.ok) << (report.findings.empty()
                                 ? ""
                                 : report.findings.front());

  StatsCatalog recovered(&t.db);
  RecoveryInfo info;
  Result<std::unique_ptr<CatalogDurability>> reopened =
      CatalogDurability::Open(&recovered, {.dir = dir}, &info);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(info.snapshot_lsn, 4u);
  EXPECT_EQ(info.last_lsn, 4u);
  EXPECT_EQ(DumpCatalog(recovered), DumpCatalog(catalog));
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST_F(DurabilityTest, ResumeOverMissingJournalKeepsLaterCommits) {
  // Resume opens the journal in append mode, which over a directory
  // without one creates an empty file; its checkpoint must leave a
  // journal recovery can read, so the commits after it survive.
  const std::string dir = FreshDir("resume");
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  StatsCatalog catalog(&t.db);
  catalog.Tick();
  catalog.CreateStatistic({t.fact_fk});
  constexpr uint64_t kResumeLsn = 5;
  Result<std::unique_ptr<CatalogDurability>> resumed =
      CatalogDurability::Resume(&catalog, {.dir = dir}, kResumeLsn);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (const ColumnRef& c : {t.fact_val, t.fact_grp}) {
    catalog.Tick();
    catalog.CreateStatistic({c});
    ASSERT_TRUE((*resumed)->CommitStatement().ok());
  }
  resumed->reset();

  StatsCatalog recovered(&t.db);
  RecoveryInfo info;
  Result<std::unique_ptr<CatalogDurability>> reopened =
      CatalogDurability::Open(&recovered, {.dir = dir}, &info);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(info.snapshot_lsn, kResumeLsn);
  EXPECT_EQ(info.last_lsn, kResumeLsn + 2);
  EXPECT_EQ(info.records_replayed, 2u);
  EXPECT_NE(recovered.FindEntry(MakeStatKey({t.fact_val})), nullptr);
  EXPECT_NE(recovered.FindEntry(MakeStatKey({t.fact_grp})), nullptr);
  EXPECT_EQ(DumpCatalog(recovered), DumpCatalog(catalog));
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// --- 5. Deferred fsync ----------------------------------------------------

// With a deferral hook, every statement still appends its own record
// (statement-boundary atomicity) but none pays its fsync: each commit
// calls the hook, and one Flush() closes the window, reporting the LSN it
// left durable. The journal contents — and therefore recovery — are
// bit-identical to per-statement fsync.
TEST_F(DurabilityTest, GroupCommitBatchesFsyncsAndFlushCloses) {
  const std::string dir = FreshDir("groupcommit");
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  StatsCatalog catalog(&t.db);
  Result<std::unique_ptr<CatalogDurability>> opened =
      CatalogDurability::Open(&catalog, {.dir = dir});
  ASSERT_TRUE(opened.ok());
  CatalogDurability* d = opened->get();
  int requests = 0;
  d->set_fsync_deferral([&requests] { ++requests; });

  for (int i = 0; i < 5; ++i) {
    catalog.Tick();
    catalog.CreateStatistic({ColumnRef{t.fact, static_cast<ColumnId>(i % 4)}});
    ASSERT_TRUE(d->CommitStatement().ok());
    EXPECT_EQ(requests, i + 1);
    EXPECT_EQ(d->unsynced_appends(), i + 1);
    EXPECT_EQ(d->last_committed_lsn(), static_cast<uint64_t>(i + 1));
  }
  uint64_t synced_lsn = 0;
  ASSERT_TRUE(d->Flush(&synced_lsn).ok());
  EXPECT_EQ(synced_lsn, 5u);
  EXPECT_EQ(d->unsynced_appends(), 0);
  ASSERT_TRUE(d->Flush().ok());  // idempotent no-op

  // Every deferred record is in the journal: recovery sees all 5.
  StatsCatalog recovered(&t.db);
  RecoveryInfo info;
  Result<std::unique_ptr<CatalogDurability>> reopened =
      CatalogDurability::Open(&recovered, {.dir = dir}, &info);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(info.last_lsn, 5u);
  EXPECT_EQ(info.records_replayed, 5u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// --- 6. Hostile payloads ---------------------------------------------------
//
// Each payload is framed with a valid CRC, so every byte reaches the one
// record decoder, and is fed to LoadCatalog as a catalog file and to
// Open() as snapshot-1.ckpt and as the journal record after snapshot-0.

template <typename T>
void Put(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

// A file magic, then one frame: frame magic, length, CRC-32, payload.
std::string Framed(const char* file_magic, const std::string& payload) {
  std::string out(file_magic, 8);
  Put(&out, uint32_t{0x4C4E524A});
  Put(&out, static_cast<uint32_t>(payload.size()));
  Put(&out, Crc32(payload.data(), payload.size()));
  return out + payload;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

class HostilePayloadTest : public ::testing::Test {
 protected:
  HostilePayloadTest() : t_(MakeTwoTableDb(500, 20)), target_(&t_.db) {
    target_.CreateStatistic({t_.fact_fk});
    fs::remove_all(dir_);
    fs::create_directories(ckpt_dir_);
    WriteFile(ckpt_dir_ + "/journal.wal", "ASJL0001");
    StatsCatalog empty(&t_.db);
    auto d = CatalogDurability::Open(&empty, {.dir = wal_dir_});
    EXPECT_TRUE(d.ok() && (*d)->Checkpoint().ok());  // snapshot-0.ckpt
  }
  ~HostilePayloadTest() override { fs::remove_all(dir_); }

  // Returns LoadCatalog's status; Open() reports into the infos below.
  Status Feed(const std::string& payload) {
    WriteFile(file_, Framed("ASSN0001", payload));
    WriteFile(ckpt_dir_ + "/snapshot-1.ckpt", Framed("ASSN0001", payload));
    WriteFile(wal_dir_ + "/journal.wal", Framed("ASJL0001", payload));
    const uint32_t digest = CatalogDigest(target_);
    StatsCatalog from_ckpt(&t_.db);
    StatsCatalog from_wal(&t_.db);
    ckpt_info_ = wal_info_ = {};
    g_largest_allocation = 0;
    const Status load = LoadCatalog(&target_, file_);
    EXPECT_TRUE(
        CatalogDurability::Open(&from_ckpt, {.dir = ckpt_dir_}, &ckpt_info_)
            .ok());
    EXPECT_TRUE(
        CatalogDurability::Open(&from_wal, {.dir = wal_dir_}, &wal_info_).ok());
    EXPECT_LE(g_largest_allocation.load(), size_t{1} << 20);
    if (!load.ok()) {
      EXPECT_EQ(load.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(load.message().find(file_), std::string::npos);
      EXPECT_EQ(CatalogDigest(target_), digest);
    }
    // The checkpoint is skipped or loaded; the record replayed or cut off
    // as the journal's bad tail.
    EXPECT_EQ(ckpt_info_.snapshots_skipped + (ckpt_info_.recovered ? 1 : 0), 1);
    EXPECT_EQ(wal_info_.snapshots_skipped, 0);
    EXPECT_NE(wal_info_.records_replayed == 1, wal_info_.journal_truncated);
    return load;
  }

  TwoTableDb t_;
  StatsCatalog target_;
  const std::string dir_ = "durability_test.hostile.dir";
  const std::string file_ = dir_ + "/saved.catalog";
  const std::string ckpt_dir_ = dir_ + "/ckpt";
  const std::string wal_dir_ = dir_ + "/wal";
  RecoveryInfo ckpt_info_;  // Open() with the payload as snapshot-1.ckpt
  RecoveryInfo wal_info_;   // Open() with it as the record after snapshot-0
};

// A record at LSN 1 (clock and stats_version 0, no counters or erased
// keys) claiming `nentries` entries, followed by `entries`.
std::string Record(uint32_t nentries, const std::string& entries) {
  std::string p;
  for (uint64_t v : {1, 0, 0}) Put(&p, v);
  Put(&p, uint64_t{0});  // counter and erased-key counts
  Put(&p, nentries);
  return p + entries;
}

TEST_F(HostilePayloadTest, CraftedCountsAreRejectedWithoutLargeAllocations) {
  std::string entry;  // column 0:0, rows, one prefix, histogram totals
  Put(&entry, uint32_t{1});
  for (int i = 0; i < 6; ++i) Put(&entry, uint64_t{0});
  std::string huge_buckets = entry;
  Put(&huge_buckets, uint32_t{1} << 24);
  std::string huge_base = entry;
  Put(&huge_base, uint32_t{0});  // buckets
  Put(&huge_base, uint16_t{0});  // grid flag, drop bit
  for (int i = 0; i < 4; ++i) Put(&huge_base, uint64_t{0});
  Put(&huge_base, uint8_t{0});   // fence bit
  Put(&huge_base, uint32_t{1} << 26);
  // 36, 92 and 131 bytes.
  for (const std::string& payload :
       {Record(uint32_t{1} << 20, ""), Record(1, huge_buckets),
        Record(1, huge_base)}) {
    SCOPED_TRACE(payload.size());
    EXPECT_EQ(Feed(payload).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(ckpt_info_.snapshots_skipped, 1);
    EXPECT_TRUE(wal_info_.journal_truncated);
  }
}

// Offsets of the u32 count fields of a snapshot payload, found by walking
// the layout the encoder writes.
std::vector<size_t> CountFieldOffsets(const std::string& p) {
  std::vector<size_t> out;
  size_t off = 24;  // lsn, clock, stats_version
  const auto count = [&](size_t element_bytes) {
    uint32_t n = 0;
    std::memcpy(&n, p.data() + off, sizeof(n));
    out.push_back(off);
    off += 4 + size_t{n} * element_bytes;
    return n;
  };
  count(17);  // counters
  count(0);   // erased keys: none in a snapshot
  for (uint32_t e = count(0); e > 0; --e) {
    const uint32_t columns = count(16);
    off += 24 + 8 * size_t{columns};  // rows, prefixes, histogram totals
    count(32);                        // buckets
    if (p[off++] != 0) {
      off += 8;  // grid rows
      count(48);
    }
    off += 34;  // drop bit, update count, cost, times, fence bit
    count(16);  // base pairs
  }
  EXPECT_EQ(off, p.size());
  return out;
}

// `p` with a few bytes flipped, truncated, or with one count field
// overwritten by an edge value.
std::string Mutate(std::string p, const std::vector<size_t>& counts,
                   Rng* rng) {
  switch (rng->NextU64(3)) {
    case 0:
      for (uint64_t i = rng->NextU64(4); i < 4; ++i) {
        p[rng->NextU64(p.size())] ^= static_cast<char>(1 + rng->NextU64(255));
      }
      break;
    case 1:
      p.resize(rng->NextU64(p.size()));
      break;
    default: {
      const size_t at = counts[rng->NextU64(counts.size())];
      uint32_t n = 0;
      std::memcpy(&n, p.data() + at, sizeof(n));
      const uint32_t edges[] = {0,        1,        n - 1,    n + 1, ~0u,
                                1u << 20, 1u << 24, 1u << 26,
                                static_cast<uint32_t>(rng->Next())};
      n = edges[rng->NextU64(std::size(edges))];
      std::memcpy(p.data() + at, &n, sizeof(n));
    }
  }
  return p;
}

TEST_F(HostilePayloadTest, SeededMutationsAreLoadedOrRejectedNeverFatal) {
  StatsBuildConfig build;
  build.num_buckets = 8;
  build.build_2d_grids = true;
  StatsCatalog source(&t_.db, build);
  source.CreateStatistic({t_.fact_grp, t_.fact_val});  // a grid and a base
  source.CreateStatistic({t_.fact_flag});
  source.MoveToDropList(MakeStatKey({t_.fact_flag}));
  source.CreateStatistic({t_.dim_pk});
  StatEntry baseless = *source.FindEntry(MakeStatKey({t_.dim_pk}));
  baseless.base_dist.clear();
  source.RestoreEntry(std::move(baseless));
  source.RecordModifications(t_.fact, 7);
  ASSERT_TRUE(SaveCatalog(source, file_).ok());
  std::ifstream in(file_, std::ios::binary);
  std::string seed(std::istreambuf_iterator<char>(in), {});
  seed.erase(0, 20);  // file magic and frame header
  seed[0] = 1;        // LSN 1, so the intact payload loads as snapshot-1
  const std::vector<size_t> counts = CountFieldOffsets(seed);

  Rng rng(14);
  int loaded = 0;
  for (int i = 0; i < 3000 && !HasFailure(); ++i) {
    SCOPED_TRACE(i);
    loaded += Feed(i == 0 ? seed : Mutate(seed, counts, &rng)).ok();
  }
  EXPECT_GT(loaded, 0);
}

// --- 7. Artifacts for the stats_fsck ctest step ---------------------------

// Leaves a clean, representative durability directory (snapshot rotation
// + live journal records) in the working directory; the `stats_fsck_scan`
// ctest step runs the offline checker over it and must exit 0.
TEST_F(DurabilityTest, WritesCleanArtifactsForFsck) {
  const std::string dir = "durability_artifacts";
  std::error_code ec;
  fs::remove_all(dir, ec);
  TwoTableDb t = MakeTwoTableDb(kFactRows, 100);
  const Workload w = CrashWorkload(t);
  RunUntilCrash(w, dir);  // no schedule armed: clean full run
  const FsckReport report = FsckDurabilityDir(dir);
  EXPECT_TRUE(report.ok) << (report.findings.empty()
                                 ? ""
                                 : report.findings.front());
  EXPECT_GT(report.snapshots_checked, 0);
  EXPECT_GT(report.journal_records, 0u);
}

}  // namespace
}  // namespace autostats
