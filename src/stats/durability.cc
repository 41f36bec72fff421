#include "stats/durability.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace autostats {

namespace fs = std::filesystem;

namespace {

obs::Histogram* WalAppendHistogram() {
  thread_local obs::LabeledSlot<obs::Histogram> slot;
  return obs::GetLabeledHistogram(slot, "wal_append_us",
                                  obs::LatencyBoundsUs());
}

obs::Histogram* WalFsyncHistogram() {
  thread_local obs::LabeledSlot<obs::Histogram> slot;
  return obs::GetLabeledHistogram(slot, "wal_fsync_us",
                                  obs::LatencyBoundsUs());
}

obs::Histogram* WalCheckpointHistogram() {
  thread_local obs::LabeledSlot<obs::Histogram> slot;
  return obs::GetLabeledHistogram(slot, "wal_checkpoint_us",
                                  obs::LatencyBoundsUs());
}

}  // namespace

// ---------------------------------------------------------------------------
// CRC32

namespace {

// Slice-by-8 tables for the reflected polynomial 0xEDB88320: table[0] is
// the classic bytewise table, and table[k][b] is the CRC of byte b followed
// by k zero bytes, so one step folds 8 input bytes with 8 lookups.
struct Crc32Tables {
  uint32_t t[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
  }
};

}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  static const Crc32Tables tables;
  const uint32_t(&t)[8][256] = tables.t;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    // Little-endian hosts only, as for the encoding below.
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Binary encoding (little-endian fixed width; doubles as bit patterns, so
// round-trips are exact — the recovery oracle demands bit-identical state)

namespace {

constexpr char kJournalMagic[8] = {'A', 'S', 'J', 'L', '0', '0', '0', '1'};
constexpr char kSnapshotMagic[8] = {'A', 'S', 'S', 'N', '0', '0', '0', '1'};
constexpr uint32_t kFrameMagic = 0x4C4E524Au;  // "JRNL"
constexpr size_t kFrameHeaderBytes = 12;       // magic + length + crc
constexpr size_t kMaxPayloadBytes = size_t{1} << 28;
constexpr char kJournalFile[] = "journal.wal";

class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutFixed(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutFixed(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutFixed(&v, sizeof(v)); }
  void PutF64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  void PutStr(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }
  std::string Take() { return std::move(buf_); }

 private:
  void PutFixed(const void* v, size_t n) {
    // Little-endian hosts only (the supported toolchain); memcpy keeps the
    // encoding alignment-safe.
    buf_.append(static_cast<const char*>(v), n);
  }
  std::string buf_;
};

class ByteReader {
 public:
  ByteReader(const char* data, size_t len) : p_(data), end_(data + len) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return p_ == end_; }

  // A u32 count of elements encoded in at least `min_bytes` each; fails
  // the reader (returning 0) unless they fit in the bytes left, so no
  // crafted count can size a container past the input that claims it.
  uint32_t GetCount(size_t min_bytes) {
    const uint32_t n = GetU32();
    if (ok_ && n > static_cast<size_t>(end_ - p_) / min_bytes) ok_ = false;
    return ok_ ? n : 0;
  }

  uint8_t GetU8() {
    uint8_t v = 0;
    GetFixed(&v, sizeof(v));
    return v;
  }
  uint32_t GetU32() {
    uint32_t v = 0;
    GetFixed(&v, sizeof(v));
    return v;
  }
  uint64_t GetU64() {
    uint64_t v = 0;
    GetFixed(&v, sizeof(v));
    return v;
  }
  int64_t GetI64() {
    int64_t v = 0;
    GetFixed(&v, sizeof(v));
    return v;
  }
  double GetF64() {
    const uint64_t bits = GetU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string GetStr() {
    const uint32_t n = GetU32();
    if (!ok_ || static_cast<size_t>(end_ - p_) < n) {
      ok_ = false;
      return {};
    }
    std::string s(p_, n);
    p_ += n;
    return s;
  }

 private:
  void GetFixed(void* v, size_t n) {
    if (!ok_ || static_cast<size_t>(end_ - p_) < n) {
      ok_ = false;
      return;
    }
    std::memcpy(v, p_, n);
    p_ += n;
  }
  const char* p_;
  const char* end_;
  bool ok_ = true;
};

void EncodeEntry(const StatEntry& entry, ByteWriter* w) {
  const Statistic& s = entry.stat;
  w->PutU32(static_cast<uint32_t>(s.columns().size()));
  for (const ColumnRef& c : s.columns()) {
    w->PutI64(c.table);
    w->PutI64(c.column);
  }
  w->PutF64(s.rows_at_build());
  for (int k = 1; k <= s.width(); ++k) w->PutF64(s.PrefixDistinct(k));
  const Histogram& h = s.histogram();
  w->PutF64(h.total_rows());
  w->PutF64(h.total_distinct());
  w->PutU32(static_cast<uint32_t>(h.buckets().size()));
  for (const HistogramBucket& b : h.buckets()) {
    w->PutF64(b.lo);
    w->PutF64(b.hi);
    w->PutF64(b.rows);
    w->PutF64(b.distinct);
  }
  w->PutU8(s.has_grid2d() ? 1 : 0);
  if (s.has_grid2d()) {
    const Histogram2D& g = s.grid2d();
    w->PutF64(g.total_rows());
    w->PutU32(static_cast<uint32_t>(g.buckets().size()));
    for (const GridBucket& b : g.buckets()) {
      w->PutF64(b.lo1);
      w->PutF64(b.hi1);
      w->PutF64(b.lo2);
      w->PutF64(b.hi2);
      w->PutF64(b.rows);
      w->PutF64(b.distinct);
    }
  }
  w->PutU8(entry.in_drop_list ? 1 : 0);
  w->PutI64(entry.update_count);
  w->PutF64(entry.creation_cost);
  w->PutI64(entry.created_at);
  w->PutI64(entry.dropped_at);
  w->PutU8(entry.pending_full_rebuild ? 1 : 0);
  w->PutU32(static_cast<uint32_t>(entry.base_dist.size()));
  for (const ValueFreq& vf : entry.base_dist) {
    w->PutF64(vf.value);
    w->PutF64(vf.freq);
  }
}

bool DecodeEntry(ByteReader* r, StatEntry* entry) {
  const uint32_t ncols = r->GetCount(24);  // table, column, prefix distinct
  if (ncols == 0 || ncols > 64) return false;
  std::vector<ColumnRef> columns;
  columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols && r->ok(); ++i) {
    ColumnRef c;
    c.table = static_cast<TableId>(r->GetI64());
    c.column = static_cast<ColumnId>(r->GetI64());
    // A statistic covers one table (MakeStatKey aborts otherwise).
    if (i > 0 && c.table != columns.front().table) return false;
    columns.push_back(c);
  }
  const double rows_at_build = r->GetF64();
  std::vector<double> prefix;
  prefix.reserve(ncols);
  for (uint32_t i = 0; i < ncols && r->ok(); ++i) prefix.push_back(r->GetF64());
  const double hist_rows = r->GetF64();
  const double hist_distinct = r->GetF64();
  const uint32_t nbuckets = r->GetCount(32);
  std::vector<HistogramBucket> buckets;
  buckets.reserve(nbuckets);
  for (uint32_t i = 0; i < nbuckets && r->ok(); ++i) {
    HistogramBucket b;
    b.lo = r->GetF64();
    b.hi = r->GetF64();
    b.rows = r->GetF64();
    b.distinct = r->GetF64();
    buckets.push_back(b);
  }
  Histogram2D grid;
  if (r->GetU8() != 0) {
    const double grid_rows = r->GetF64();
    const uint32_t ncells = r->GetCount(48);
    std::vector<GridBucket> cells;
    cells.reserve(ncells);
    for (uint32_t i = 0; i < ncells && r->ok(); ++i) {
      GridBucket b;
      b.lo1 = r->GetF64();
      b.hi1 = r->GetF64();
      b.lo2 = r->GetF64();
      b.hi2 = r->GetF64();
      b.rows = r->GetF64();
      b.distinct = r->GetF64();
      cells.push_back(b);
    }
    grid = Histogram2D(std::move(cells), grid_rows);
  }
  entry->in_drop_list = r->GetU8() != 0;
  entry->update_count = static_cast<int>(r->GetI64());
  entry->creation_cost = r->GetF64();
  entry->created_at = r->GetI64();
  entry->dropped_at = r->GetI64();
  entry->pending_full_rebuild = r->GetU8() != 0;
  const uint32_t nbase = r->GetCount(16);
  entry->base_dist.clear();
  entry->base_dist.reserve(nbase);
  for (uint32_t i = 0; i < nbase && r->ok(); ++i) {
    ValueFreq vf;
    vf.value = r->GetF64();
    vf.freq = r->GetF64();
    entry->base_dist.push_back(vf);
  }
  if (!r->ok()) return false;
  entry->stat =
      Statistic(std::move(columns),
                Histogram(std::move(buckets), hist_rows, hist_distinct),
                std::move(prefix), rows_at_build);
  if (!grid.empty()) entry->stat.set_grid2d(std::move(grid));
  return true;
}

struct CounterRecord {
  TableId table = kInvalidTableId;
  uint64_t rows = 0;
  bool tracked = false;
};

// One decoded journal record (or snapshot — a snapshot is simply a record
// carrying the complete state instead of a statement's dirty subset).
struct RecordPayload {
  uint64_t lsn = 0;
  int64_t clock = 0;
  uint64_t stats_version = 0;
  std::vector<CounterRecord> counters;
  std::vector<std::string> erased;
  std::vector<StatEntry> entries;
};

bool DecodeRecord(const std::string& payload, RecordPayload* rec) {
  ByteReader r(payload.data(), payload.size());
  rec->lsn = r.GetU64();
  rec->clock = r.GetI64();
  rec->stats_version = r.GetU64();
  const uint32_t ncounters = r.GetCount(17);  // table, rows, tracked bit
  rec->counters.clear();
  for (uint32_t i = 0; i < ncounters && r.ok(); ++i) {
    CounterRecord c;
    c.table = static_cast<TableId>(r.GetI64());
    c.rows = r.GetU64();
    c.tracked = r.GetU8() != 0;
    rec->counters.push_back(c);
  }
  const uint32_t nerased = r.GetCount(4);  // length prefixes
  rec->erased.clear();
  for (uint32_t i = 0; i < nerased && r.ok(); ++i) {
    rec->erased.push_back(r.GetStr());
  }
  const uint32_t nentries = r.GetCount(95);  // one column, empty lists
  rec->entries.clear();
  rec->entries.resize(nentries);
  for (uint32_t i = 0; i < nentries; ++i) {
    if (!DecodeEntry(&r, &rec->entries[i])) return false;
  }
  return r.ok() && r.AtEnd();
}

// Installs one decoded record. Erasures first, then entry upserts, then
// the header — so the header (including the exact journaled
// stats_version) always lands last, overwriting the bumps the public
// mutators made along the way.
void ApplyRecord(RecordPayload&& rec, StatsCatalog* catalog,
                 std::map<TableId, bool>* tracked_latest) {
  for (const std::string& key : rec.erased) catalog->PhysicallyDrop(key);
  for (StatEntry& e : rec.entries) catalog->RestoreEntry(std::move(e));
  std::vector<std::pair<TableId, size_t>> counters;
  counters.reserve(rec.counters.size());
  for (const CounterRecord& c : rec.counters) {
    counters.emplace_back(c.table, static_cast<size_t>(c.rows));
    (*tracked_latest)[c.table] = c.tracked;
  }
  catalog->RestoreDurableState(rec.clock, rec.stats_version, counters);
}

std::string FrameBytes(const std::string& payload) {
  ByteWriter w;
  w.PutU32(kFrameMagic);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(Crc32(payload.data(), payload.size()));
  std::string frame = w.Take();
  frame.append(payload);
  return frame;
}

enum class FrameResult { kOk, kEof, kTorn, kCorrupt };

// Reads one frame at *offset, advancing it past the frame on success. A
// frame running past EOF is kTorn (the expected shape of a crashed
// append); a complete frame with a bad magic or checksum is kCorrupt.
FrameResult ReadFrame(const std::string& data, size_t* offset,
                      std::string* payload) {
  const size_t off = *offset;
  if (off == data.size()) return FrameResult::kEof;
  if (data.size() - off < kFrameHeaderBytes) return FrameResult::kTorn;
  ByteReader r(data.data() + off, kFrameHeaderBytes);
  const uint32_t magic = r.GetU32();
  const uint32_t len = r.GetU32();
  const uint32_t crc = r.GetU32();
  if (magic != kFrameMagic) return FrameResult::kCorrupt;
  if (len > kMaxPayloadBytes) return FrameResult::kCorrupt;
  if (data.size() - off - kFrameHeaderBytes < len) return FrameResult::kTorn;
  payload->assign(data, off + kFrameHeaderBytes, len);
  if (Crc32(payload->data(), payload->size()) != crc) {
    return FrameResult::kCorrupt;
  }
  *offset = off + kFrameHeaderBytes + len;
  return FrameResult::kOk;
}

Status ReadWholeFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  out->clear();
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::Internal("read failed for " + path);
  return Status::OK();
}

Status FsyncStream(std::FILE* f, const std::string& what) {
  if (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0) {
    return Status::Internal("fsync failed for " + what);
  }
  return Status::OK();
}

// Directory-entry durability for the renames. A failure cannot corrupt
// state (the rename already happened), but it does mean the new entry may
// not survive a power loss — so it is surfaced like any other fsync
// failure and counted against the statement's durability accounting.
Status FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return Status::Internal("cannot open " + dir + " for fsync");
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) return Status::Internal("fsync failed for " + dir);
  return Status::OK();
}

// The one record layout, shared by journal records and snapshots: the
// catalog header, `counters` with their delta-tracking bits, the `erased`
// keys, then the full state of each entry in `keys`.
std::string EncodeRecord(
    const StatsCatalog& catalog, uint64_t lsn,
    const std::vector<std::pair<TableId, size_t>>& counters,
    const std::vector<StatKey>& erased, const std::vector<StatKey>& keys) {
  ByteWriter w;
  w.PutU64(lsn);
  w.PutI64(catalog.now());
  w.PutU64(catalog.stats_version());
  w.PutU32(static_cast<uint32_t>(counters.size()));
  for (const auto& [table, rows] : counters) {
    w.PutI64(table);
    w.PutU64(rows);
    w.PutU8(catalog.deltas().Tracked(table) ? 1 : 0);
  }
  w.PutU32(static_cast<uint32_t>(erased.size()));
  for (const StatKey& key : erased) w.PutStr(key);
  w.PutU32(static_cast<uint32_t>(keys.size()));
  for (const StatKey& key : keys) {
    const StatEntry* entry = catalog.FindEntry(key);
    AUTOSTATS_CHECK_MSG(entry != nullptr, key.c_str());
    EncodeEntry(*entry, &w);
  }
  return w.Take();
}

// The snapshot payload: a record carrying the complete catalog — every
// counter, every entry (active and drop-listed) in key order, no erasures.
std::string EncodeSnapshot(const StatsCatalog& catalog, uint64_t lsn) {
  std::vector<std::pair<TableId, size_t>> counters =
      catalog.ModificationCounters();
  // Union in tracked tables that have no counter row yet, so the
  // snapshot's tracking bits are complete for recovery fencing.
  for (const TableId table : catalog.deltas().TrackedTables()) {
    const auto found =
        std::find_if(counters.begin(), counters.end(),
                     [table](const auto& c) { return c.first == table; });
    if (found == counters.end()) {
      counters.emplace_back(table, catalog.modified_rows(table));
    }
  }
  std::sort(counters.begin(), counters.end());
  std::vector<StatKey> keys = catalog.ActiveKeys();
  const std::vector<StatKey> dropped = catalog.DropListKeys();
  keys.insert(keys.end(), dropped.begin(), dropped.end());
  std::sort(keys.begin(), keys.end());
  return EncodeRecord(catalog, lsn, counters, {}, keys);
}

// Writes a snapshot file — the snapshot magic and one frame carrying
// `payload` — to `tmp`, fsyncs it, and atomically renames it over
// `final_path`, honoring the fsync and rename crash gates. Sets *killed
// when a gate simulated a process kill; the caller decides what dies with
// it.
Status PublishFile(const std::string& tmp, const std::string& final_path,
                   const std::string& payload, const char* gate_detail,
                   bool* killed) {
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot open " + tmp);
  const std::string frame = FrameBytes(payload);
  if (std::fwrite(kSnapshotMagic, 1, sizeof(kSnapshotMagic), f) !=
          sizeof(kSnapshotMagic) ||
      std::fwrite(frame.data(), 1, frame.size(), f) != frame.size()) {
    std::fclose(f);
    return Status::Internal("write failed for " + tmp);
  }
  int64_t torn = -1;
  const Status fsync_gate =
      PokeFaultCrash(faults::kPersistenceFsync, gate_detail, &torn);
  if (!fsync_gate.ok()) {
    std::fflush(f);
    std::fclose(f);
    *killed = torn >= 0;
    // Killed or failed before the tmp file was durable: it was never
    // renamed, so recovery ignores it either way.
    return fsync_gate;
  }
  const Status synced = FsyncStream(f, tmp);
  std::fclose(f);
  AUTOSTATS_RETURN_IF_ERROR(synced);

  int64_t rename_torn = -1;
  const Status rename_gate =
      PokeFaultCrash(faults::kPersistenceRename, gate_detail, &rename_torn);
  if (!rename_gate.ok()) {
    *killed = rename_torn >= 0;
    return rename_gate;
  }
  if (std::rename(tmp.c_str(), final_path.c_str()) != 0) {
    return Status::Internal("rename failed: " + tmp + " -> " + final_path);
  }
  const std::string dir = fs::path(final_path).parent_path().string();
  return FsyncDir(dir.empty() ? "." : dir);
}

// snapshot-<lsn>.ckpt files in `dir`, as (lsn, path), newest first.
std::vector<std::pair<uint64_t, std::string>> ListSnapshots(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> out;
  std::error_code ec;
  for (const auto& ent : fs::directory_iterator(dir, ec)) {
    const std::string name = ent.path().filename().string();
    unsigned long long lsn = 0;  // NOLINT(runtime/int): sscanf width
    if (std::sscanf(name.c_str(), "snapshot-%20llu.ckpt", &lsn) == 1 &&
        name == "snapshot-" + std::to_string(lsn) + ".ckpt") {
      out.emplace_back(static_cast<uint64_t>(lsn), ent.path().string());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

// Loads and validates one snapshot file into *rec: the magic, exactly one
// frame with a valid CRC, a decodable payload. Returns an error naming
// `path` on any mismatch (kNotFound if it cannot be opened).
Status LoadSnapshotFile(const std::string& path, RecordPayload* rec) {
  std::string data;
  AUTOSTATS_RETURN_IF_ERROR(ReadWholeFile(path, &data));
  if (data.size() < sizeof(kSnapshotMagic) ||
      std::memcmp(data.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::InvalidArgument(path + ": bad snapshot magic");
  }
  size_t offset = sizeof(kSnapshotMagic);
  std::string payload;
  const FrameResult fr = ReadFrame(data, &offset, &payload);
  if (fr != FrameResult::kOk) {
    return Status::InvalidArgument(path + ": snapshot frame invalid");
  }
  if (offset != data.size()) {
    return Status::InvalidArgument(path + ": trailing bytes after snapshot");
  }
  if (!DecodeRecord(payload, rec)) {
    return Status::InvalidArgument(path + ": snapshot payload undecodable");
  }
  return Status::OK();
}

// A checkpoint is a snapshot file whose header LSN matches its name; on
// any error the caller falls back to an older one.
Status LoadCheckpoint(const std::string& path, uint64_t lsn,
                      RecordPayload* rec) {
  AUTOSTATS_RETURN_IF_ERROR(LoadSnapshotFile(path, rec));
  if (rec->lsn == lsn) return Status::OK();
  return Status::InvalidArgument(path + ": snapshot LSN mismatch");
}

}  // namespace

// ---------------------------------------------------------------------------
// CatalogDurability

CatalogDurability::CatalogDurability(StatsCatalog* catalog,
                                     DurabilityOptions options)
    : catalog_(catalog), options_(std::move(options)) {}

CatalogDurability::~CatalogDurability() {
  if (catalog_ != nullptr && catalog_->mutation_listener() == this) {
    catalog_->set_mutation_listener(nullptr);
  }
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (journal_ != nullptr) {
    // Best-effort close of the deferred window: records already flushed
    // to the OS but awaiting their fsync. No fault gates in a destructor
    // — a simulated kill has already sealed the writer.
    if (!crashed() && appends_since_fsync_ > 0) {
      FsyncStream(journal_, JournalPath());
    }
    std::fclose(journal_);
  }
}

std::string CatalogDurability::JournalPath() const {
  return options_.dir + "/" + kJournalFile;
}

std::string CatalogDurability::SnapshotPath(uint64_t lsn) const {
  return options_.dir + "/snapshot-" + std::to_string(lsn) + ".ckpt";
}

Result<std::unique_ptr<CatalogDurability>> CatalogDurability::Open(
    StatsCatalog* catalog, const DurabilityOptions& options,
    RecoveryInfo* info) {
  AUTOSTATS_CHECK(catalog != nullptr);
  std::unique_ptr<CatalogDurability> d(
      new CatalogDurability(catalog, options));
  RecoveryInfo local;
  AUTOSTATS_RETURN_IF_ERROR(d->Recover(info != nullptr ? info : &local));
  catalog->set_mutation_listener(d.get());
  return d;
}

Result<std::unique_ptr<CatalogDurability>> CatalogDurability::Resume(
    StatsCatalog* catalog, const DurabilityOptions& options,
    uint64_t resume_lsn) {
  AUTOSTATS_CHECK(catalog != nullptr);
  AUTOSTATS_CHECK(resume_lsn > 0);
  AUTOSTATS_CHECK(catalog->mutation_listener() == nullptr);
  std::unique_ptr<CatalogDurability> d(
      new CatalogDurability(catalog, options));
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::Internal("cannot create " + options.dir + ": " +
                            ec.message());
  }
  d->journal_ = std::fopen(d->JournalPath().c_str(), "ab");
  if (d->journal_ == nullptr) {
    return Status::Internal("cannot open " + d->JournalPath());
  }
  d->next_lsn_ = resume_lsn + 1;
  // The checkpoint publishes the authoritative snapshot at resume_lsn and
  // resets the journal. Every record the sealed journal held is at or
  // below resume_lsn, so recovery skips it even if the reset fails.
  AUTOSTATS_RETURN_IF_ERROR(d->Checkpoint());
  catalog->set_mutation_listener(d.get());
  return d;
}

Status CatalogDurability::Recover(RecoveryInfo* info) {
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return Status::Internal("cannot create " + options_.dir + ": " +
                            ec.message());
  }

  // 1. Newest snapshot that validates; fall back across corrupt ones.
  uint64_t applied_lsn = 0;
  uint64_t last_record_version = 0;
  std::map<TableId, bool> tracked_latest;
  bool loaded_snapshot = false;
  for (const auto& [lsn, path] : ListSnapshots(options_.dir)) {
    RecordPayload rec;
    const Status loaded = LoadCheckpoint(path, lsn, &rec);
    if (!loaded.ok()) {
      ++info->snapshots_skipped;
      info->detail += loaded.message() + "; ";
      continue;
    }
    applied_lsn = rec.lsn;
    last_record_version = rec.stats_version;
    ApplyRecord(std::move(rec), catalog_, &tracked_latest);
    loaded_snapshot = true;
    info->snapshot_lsn = lsn;
    break;
  }

  // 2. Replay the journal, truncating at the first bad record. Records at
  // or below the snapshot LSN are the pre-checkpoint journal of a
  // checkpoint whose journal reset did not complete: already subsumed,
  // skipped.
  const std::string journal_path = JournalPath();
  std::string data;
  const Status read = ReadWholeFile(journal_path, &data);
  if (read.ok()) {
    size_t offset = sizeof(kJournalMagic);
    size_t truncate_to = std::string::npos;
    if (data.size() < sizeof(kJournalMagic) ||
        std::memcmp(data.data(), kJournalMagic, sizeof(kJournalMagic)) !=
            0) {
      // Unusable header: recover from the snapshot alone and start the
      // journal over.
      truncate_to = 0;
      info->detail += journal_path + ": bad journal magic; ";
    } else {
      while (true) {
        const size_t frame_start = offset;
        std::string payload;
        const FrameResult fr = ReadFrame(data, &offset, &payload);
        if (fr == FrameResult::kEof) break;
        if (fr != FrameResult::kOk) {
          truncate_to = frame_start;
          break;
        }
        RecordPayload rec;
        if (!DecodeRecord(payload, &rec) || rec.lsn == 0) {
          // Checksummed but undecodable — treat exactly like a torn
          // record: the valid prefix ends here.
          truncate_to = frame_start;
          break;
        }
        // Records at or below the snapshot LSN are the stale journal of
        // an interrupted reset: subsumed, and legitimately below the
        // snapshot's version, so they are skipped before the
        // monotonicity check.
        if (rec.lsn <= applied_lsn) continue;
        if (rec.stats_version < last_record_version) {
          truncate_to = frame_start;
          break;
        }
        if (rec.lsn > applied_lsn + 1) {
          // The records between the loaded state and this one are gone
          // (a newer snapshot fell to corruption, or was deleted). The
          // per-entry states in this and later records are still their
          // true latest values, so apply them — and poison everything
          // below with the whole-catalog fence.
          info->replay_gap = true;
        }
        last_record_version = rec.stats_version;
        applied_lsn = rec.lsn;
        ApplyRecord(std::move(rec), catalog_, &tracked_latest);
        ++info->records_replayed;
      }
    }
    if (truncate_to != std::string::npos && truncate_to < data.size()) {
      fs::resize_file(journal_path, truncate_to, ec);
      if (ec) {
        return Status::Internal("cannot truncate " + journal_path + ": " +
                                ec.message());
      }
      info->journal_truncated = true;
      info->truncated_at = truncate_to;
    }
  }

  // 3. Open (creating if needed) the journal for appending; stamp the
  // magic on a fresh file. This is setup, not the workload write path, so
  // it is not gated.
  journal_ = std::fopen(journal_path.c_str(), "ab");
  if (journal_ == nullptr) {
    return Status::Internal("cannot open " + journal_path);
  }
  const auto journal_size = fs::file_size(journal_path, ec);
  if (!ec && journal_size == 0) AUTOSTATS_RETURN_IF_ERROR(ResetJournal());

  next_lsn_ = applied_lsn + 1;
  info->last_lsn = applied_lsn;
  info->recovered = loaded_snapshot || info->records_replayed > 0;

  // 4. Exactness fences. The DeltaStore died with the process, so any
  // table with unconsumed modifications (nonzero counter, or a delta
  // stream live at the last commit) must rescan instead of merging; a
  // replay gap poisons every entry. The flagged keys are seeded dirty so
  // the first commit of the resumed run journals the fences too.
  std::vector<StatKey> flagged;
  if (info->replay_gap) {
    flagged = catalog_->FlagAllPendingFullRebuild();
  } else {
    std::set<TableId> fence;
    for (const auto& [table, rows] : catalog_->ModificationCounters()) {
      if (rows > 0) fence.insert(table);
    }
    for (const auto& [table, tracked] : tracked_latest) {
      if (tracked) fence.insert(table);
    }
    for (const TableId table : fence) {
      const std::vector<StatKey> keys =
          catalog_->FlagPendingFullRebuild(table);
      flagged.insert(flagged.end(), keys.begin(), keys.end());
    }
  }
  dirty_entries_.insert(flagged.begin(), flagged.end());
  info->entries_flagged = flagged.size();
  if (obs::TraceActive()) {
    obs::TraceEvent("wal.recovery")
        .Bool("recovered", info->recovered)
        .Int("snapshot_lsn", static_cast<int64_t>(info->snapshot_lsn))
        .Int("records_replayed",
             static_cast<int64_t>(info->records_replayed))
        .Int("last_lsn", static_cast<int64_t>(info->last_lsn))
        .Bool("journal_truncated", info->journal_truncated)
        .Bool("replay_gap", info->replay_gap)
        .Int("entries_flagged", static_cast<int64_t>(info->entries_flagged));
  }
  return Status::OK();
}

void CatalogDurability::OnEntryMutated(const StatKey& key) {
  dirty_entries_.insert(key);
  erased_entries_.erase(key);
}

void CatalogDurability::OnEntryErased(const StatKey& key) {
  dirty_entries_.erase(key);
  erased_entries_.insert(key);
}

void CatalogDurability::OnCounterMutated(TableId table) {
  dirty_counters_.insert(table);
}

void CatalogDurability::ClearDirty() {
  dirty_entries_.clear();
  erased_entries_.clear();
  dirty_counters_.clear();
}

std::string CatalogDurability::EncodeDirtyRecord(uint64_t lsn) const {
  std::vector<std::pair<TableId, size_t>> counters;
  for (const TableId table : dirty_counters_) {
    counters.emplace_back(table, catalog_->modified_rows(table));
  }
  return EncodeRecord(*catalog_, lsn, counters,
                      {erased_entries_.begin(), erased_entries_.end()},
                      {dirty_entries_.begin(), dirty_entries_.end()});
}

Status CatalogDurability::AppendFrame(const std::string& payload,
                                      const char* gate_detail,
                                      bool* record_persisted) {
  *record_persisted = false;
  const std::string frame = FrameBytes(payload);
  int64_t torn = -1;
  const Status gate =
      PokeFaultCrash(faults::kPersistenceAppend, gate_detail, &torn);
  if (!gate.ok()) {
    if (torn >= 0) {
      // Simulated kill mid-append: persist exactly the torn prefix, then
      // stop being a live process. Recovery truncates this tail.
      const size_t n =
          std::min(static_cast<size_t>(torn), frame.size());
      std::fwrite(frame.data(), 1, n, journal_);
      std::fflush(journal_);
      ::fsync(::fileno(journal_));
      Seal();
    }
    return gate;
  }
  if (std::fwrite(frame.data(), 1, frame.size(), journal_) != frame.size()) {
    Seal();  // a short physical write leaves an untracked torn tail
    return Status::Internal("journal append failed in " + options_.dir);
  }
  if (std::fflush(journal_) != 0) {
    Seal();
    return Status::Internal("journal flush failed in " + options_.dir);
  }
  *record_persisted = true;
  return Status::OK();
}

Status CatalogDurability::SyncJournal(const char* gate_detail) {
  int64_t fsync_torn = -1;
  const Status fsync_gate =
      PokeFaultCrash(faults::kPersistenceFsync, gate_detail, &fsync_torn);
  if (!fsync_gate.ok()) {
    if (fsync_torn >= 0) {
      // Kill during fsync: the records reached the file before the
      // "death", so recovery replays them — committed-but-unacked
      // statements, the classic deferred-fsync window.
      appends_since_fsync_ = 0;
      Seal();
      return fsync_gate;
    }
    // Plain fsync failure: the records are in the file (recovery would
    // see them), so the commits must count — surfacing the error is
    // accounting, not rollback. But the fsync is still OWED: the window
    // stays open so the next Flush() (or commit) retries the physical
    // fsync — a poisoned pass is never silently absorbed by a later
    // successful one reporting "nothing pending".
    return fsync_gate;
  }
  obs::ScopedLatency timer(WalFsyncHistogram());
  // Attribute the inline fsync to the in-flight statement's span (a
  // no-op when no scratch is installed — standalone tools, coordinator).
  obs::SpanStage span_stage(obs::SpanStage::kFsync);
  const Status synced = FsyncStream(journal_, JournalPath());
  // One physical fsync acknowledges every append since the last one —
  // but only a successful one closes the window.
  if (synced.ok()) appends_since_fsync_ = 0;
  return synced;
}

Status CatalogDurability::Flush(uint64_t* synced_lsn) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (crashed()) {
    return Status::FailedPrecondition(
        "durability sealed after simulated crash; reopen to recover");
  }
  const Status s =
      appends_since_fsync_ == 0 ? Status::OK() : SyncJournal("journal");
  if (s.ok() && synced_lsn != nullptr) *synced_lsn = last_committed_lsn();
  return s;
}

Status CatalogDurability::CommitStatement() {
  bool defer_fsync = false;
  Status s;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    s = CommitStatementLocked(&defer_fsync);
  }
  // The hook runs outside commit_mu_: it typically takes the fsync
  // coordinator's lock, whose thread takes commit_mu_ inside Flush() —
  // invoking it under the lock would deadlock.
  if (defer_fsync) fsync_deferral_();
  return s;
}

Status CatalogDurability::CommitStatementLocked(bool* defer_fsync) {
  if (crashed()) {
    return Status::FailedPrecondition(
        "durability sealed after simulated crash; reopen to recover");
  }
  // Every processed statement commits a record — even one with no dirty
  // entries advances the logical clock, and the LSN sequence numbering
  // statements is what makes post-crash resume exactly-once.
  const uint64_t lsn = next_lsn_;
  const std::string payload = EncodeDirtyRecord(lsn);
  bool record_persisted = false;
  Status appended;
  {
    obs::ScopedLatency timer(WalAppendHistogram());
    obs::SpanStage span_stage(obs::SpanStage::kWalAppend);
    appended = AppendFrame(payload, "journal", &record_persisted);
  }
  if (crashed()) return appended;
  if (!record_persisted) {
    // Plain injected append failure: nothing reached the file. Keep the
    // dirty sets and retry under the same LSN on the next statement.
    if (obs::TraceActive()) {
      obs::TraceEvent("wal.commit_failed")
          .Int("lsn", static_cast<int64_t>(lsn))
          .Str("error", appended.message())
          .Bool("record_persisted", false);
    }
    return appended;
  }
  // The record is in the file; now pay the fsync inline — or, with a
  // deferral hook, owe it to the hook's owner, which calls Flush(). A
  // deferred record sits in the OS page cache: it survives process death
  // (the write() completed) but not a machine crash. The LSN is consumed
  // below either way — a deferred record is committed-but-unacked by
  // design.
  ++appends_since_fsync_;
  if (fsync_deferral_ != nullptr) {
    *defer_fsync = true;
    obs::SpanNoteFsyncDeferred();
  } else {
    appended = SyncJournal("journal");
    // Kill during the fsync: the writer is sealed before the LSN is
    // consumed, so recovery replays this record from the file.
    if (crashed()) return appended;
  }
  // The record is in the file (even if its fsync failed — recovery would
  // replay it), so the commit stands and the LSN is consumed; a failed
  // fsync is surfaced as accounting, never retried under the same LSN.
  ++next_lsn_;
  ClearDirty();
  if (obs::TraceActive()) {
    if (appended.ok()) {
      obs::TraceEvent("wal.commit")
          .Int("lsn", static_cast<int64_t>(lsn))
          .Int("bytes", static_cast<int64_t>(payload.size()));
    } else {
      // Committed-but-unacked: the record reached the file, its fsync
      // failed. The LSN is consumed either way.
      obs::TraceEvent("wal.commit_failed")
          .Int("lsn", static_cast<int64_t>(lsn))
          .Str("error", appended.message())
          .Bool("record_persisted", true);
    }
  }
  return appended;
}

Status CatalogDurability::Checkpoint() {
  obs::ScopedLatency timer(WalCheckpointHistogram());
  const uint64_t lsn_before = last_committed_lsn();
  bool defer_fsync = false;
  Status s;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    s = CheckpointImpl(&defer_fsync);
  }
  // Only reachable when the boundary commit succeeded but the snapshot
  // publish or the journal reset failed: the committed record still owes
  // its deferred fsync.
  if (defer_fsync) fsync_deferral_();
  if (obs::TraceActive()) {
    if (s.ok()) {
      obs::TraceEvent("wal.checkpoint")
          .Int("lsn", static_cast<int64_t>(last_committed_lsn()));
    } else {
      obs::TraceEvent("wal.checkpoint_failed")
          .Int("lsn", static_cast<int64_t>(lsn_before))
          .Str("error", s.message());
    }
  }
  return s;
}

Status CatalogDurability::ResetJournal() {
  const std::string path = JournalPath();
  if (std::fflush(journal_) != 0 || ::ftruncate(::fileno(journal_), 0) != 0 ||
      std::fwrite(kJournalMagic, 1, sizeof(kJournalMagic), journal_) !=
          sizeof(kJournalMagic)) {
    return Status::Internal("cannot reset " + path);
  }
  return FsyncStream(journal_, path);
}

Status CatalogDurability::CheckpointImpl(bool* defer_fsync) {
  if (crashed()) {
    return Status::FailedPrecondition(
        "durability sealed after simulated crash; reopen to recover");
  }
  // Snapshots sit on statement boundaries: flush any pending mutations
  // into the journal first (a no-op right after a successful commit).
  if (pending_mutations() > 0) {
    AUTOSTATS_RETURN_IF_ERROR(CommitStatementLocked(defer_fsync));
  }
  const uint64_t lsn = last_committed_lsn();
  bool killed = false;
  Status published =
      PublishFile(options_.dir + "/snapshot.tmp", SnapshotPath(lsn),
                  EncodeSnapshot(*catalog_, lsn), "snapshot", &killed);
  // Reset the open journal to its magic. A failure or kill before the
  // reset is durable is benign: the journal's records are all at or below
  // the snapshot LSN and recovery skips them.
  if (published.ok()) {
    int64_t torn = -1;
    published =
        PokeFaultCrash(faults::kPersistenceFsync, "journal-reset", &torn);
    killed = torn >= 0;
  }
  if (published.ok()) {
    published = ResetJournal();
    // A reset that failed in the file may have cut its magic, and records
    // appended past that would be unreadable: stop writing, as after a
    // kill.
    killed = !published.ok();
  }
  if (killed) Seal();
  AUTOSTATS_RETURN_IF_ERROR(published);
  // Any appends awaiting their fsync lived in the journal that was just
  // reset; the snapshot covers them, so the window is clean — including a
  // fsync the boundary commit deferred above.
  appends_since_fsync_ = 0;
  *defer_fsync = false;

  // Prune: keep the newest keep_snapshots, drop the rest.
  const int keep = std::max(options_.keep_snapshots, 1);
  const auto snapshots = ListSnapshots(options_.dir);
  for (size_t i = static_cast<size_t>(keep); i < snapshots.size(); ++i) {
    std::error_code ec;
    fs::remove(snapshots[i].second, ec);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Catalog files

Status SaveCatalog(const StatsCatalog& catalog, const std::string& path) {
  AUTOSTATS_RETURN_IF_ERROR(PokeFault(faults::kPersistenceSave, path.c_str()));
  // A saved catalog belongs to no journal: header LSN 0. A simulated kill
  // is only a failed save here — there is no writer to seal.
  bool killed = false;
  return PublishFile(path + ".tmp", path, EncodeSnapshot(catalog, 0),
                     path.c_str(), &killed);
}

Status LoadCatalog(StatsCatalog* catalog, const std::string& path) {
  AUTOSTATS_RETURN_IF_ERROR(PokeFault(faults::kPersistenceLoad, path.c_str()));
  RecordPayload rec;
  AUTOSTATS_RETURN_IF_ERROR(LoadSnapshotFile(path, &rec));
  const Database& db = catalog->db();
  for (const StatEntry& e : rec.entries) {
    const TableId table = e.stat.table();
    bool known = table >= 0 && table < db.num_tables();
    for (const ColumnRef& c : e.stat.columns()) {
      known = known && c.column >= 0 &&
              c.column < db.table(table).schema().num_columns();
    }
    if (!known) {
      return Status::InvalidArgument(path + ": statistic " + e.stat.key() +
                                     " names a column outside the database");
    }
  }
  for (StatEntry& e : rec.entries) {
    // The base comes back bit-exact, but this process's DeltaStore never
    // saw the DML since the save: rescan first, as after a recovery.
    e.pending_full_rebuild = true;
    catalog->RestoreEntry(std::move(e));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Fsck

FsckReport FsckDurabilityDir(const std::string& dir,
                             const FsckOptions& options) {
  FsckReport report;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    report.ok = false;
    report.findings.push_back(dir + ": not a directory");
    return report;
  }

  uint64_t newest_valid_snapshot = 0;
  bool have_snapshot = false;
  for (const auto& [lsn, path] : ListSnapshots(dir)) {
    ++report.snapshots_checked;
    RecordPayload rec;
    const Status loaded = LoadCheckpoint(path, lsn, &rec);
    if (!loaded.ok()) {
      ++report.snapshots_bad;
      report.ok = false;
      report.findings.push_back(loaded.message());
      continue;
    }
    if (!have_snapshot) {
      newest_valid_snapshot = lsn;
      have_snapshot = true;
    }
  }

  const std::string journal_path = dir + "/" + kJournalFile;
  std::string data;
  const Status read = ReadWholeFile(journal_path, &data);
  if (!read.ok()) {
    report.ok = false;
    report.findings.push_back(journal_path + ": missing or unreadable");
    return report;
  }
  if (data.size() < sizeof(kJournalMagic) ||
      std::memcmp(data.data(), kJournalMagic, sizeof(kJournalMagic)) != 0) {
    report.ok = false;
    report.findings.push_back(journal_path + ": bad journal magic");
    return report;
  }

  size_t offset = sizeof(kJournalMagic);
  uint64_t prev_lsn = 0;
  uint64_t prev_version = 0;
  uint64_t first_applied = 0;
  while (true) {
    const size_t frame_start = offset;
    std::string payload;
    const FrameResult fr = ReadFrame(data, &offset, &payload);
    if (fr == FrameResult::kEof) break;
    if (fr == FrameResult::kTorn) {
      report.journal_torn_tail = true;
      report.findings.push_back(
          journal_path + ": torn final record at byte " +
          std::to_string(frame_start) +
          (options.allow_torn_tail ? " (allowed)" : ""));
      if (!options.allow_torn_tail) report.ok = false;
      break;
    }
    if (fr == FrameResult::kCorrupt) {
      report.ok = false;
      report.findings.push_back(journal_path +
                                ": corrupt record (bad checksum) at byte " +
                                std::to_string(frame_start));
      break;
    }
    RecordPayload rec;
    if (!DecodeRecord(payload, &rec)) {
      report.ok = false;
      report.findings.push_back(journal_path +
                                ": undecodable record at byte " +
                                std::to_string(frame_start));
      break;
    }
    ++report.journal_records;
    if (prev_lsn != 0 && rec.lsn != prev_lsn + 1) {
      report.ok = false;
      report.findings.push_back(
          journal_path + ": LSN " + std::to_string(rec.lsn) +
          " follows " + std::to_string(prev_lsn) + " (not contiguous)");
    }
    if (rec.stats_version < prev_version) {
      report.ok = false;
      report.findings.push_back(journal_path + ": stats_version regressed at LSN " +
                                std::to_string(rec.lsn));
    }
    prev_lsn = rec.lsn;
    prev_version = rec.stats_version;
    if (first_applied == 0 && rec.lsn > newest_valid_snapshot) {
      first_applied = rec.lsn;
    }
  }
  if (have_snapshot && first_applied > newest_valid_snapshot + 1) {
    report.ok = false;
    report.findings.push_back(
        dir + ": replay gap — journal resumes at LSN " +
        std::to_string(first_applied) + " but newest valid snapshot is " +
        std::to_string(newest_valid_snapshot));
  }
  return report;
}

}  // namespace autostats
