#include "executor/exec_node.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/check.h"

namespace autostats {

namespace {

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t HashCell(const Column& col, uint32_t row) {
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

bool CellEq(const Column& a, uint32_t ra, const Column& b, uint32_t rb) {
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

// --- Typed filters ----------------------------------------------------------
// Datum's comparisons on native values: `<=` is `<` or `==` (so NaN
// satisfies nothing and -0.0 equals 0.0), and BETWEEN is
// `lo <= v && v <= hi` in that form.

template <typename T>
bool LessEq(const T& a, const T& b) {
  return a < b || a == b;
}

template <typename T>
bool Satisfies(CompareOp op, const T& v, const T& lo, const T& hi) {
  switch (op) {
    case CompareOp::kEq:
      return v == lo;
    case CompareOp::kLt:
      return v < lo;
    case CompareOp::kLe:
      return LessEq(v, lo);
    case CompareOp::kGt:
      return lo < v;
    case CompareOp::kGe:
      return LessEq(lo, v);
    case CompareOp::kBetween:
      return LessEq(lo, v) && LessEq(v, hi);
  }
  return false;
}

// True when `f`'s literal(s) have the column's type, so the native
// comparison is Datum's; otherwise the filter falls back to Matches on a
// Datum, which keeps Datum's cross-type order.
bool TypedFilter(const FilterPredicate& f, const Column& col) {
  return f.value.type() == col.type() &&
         (f.op != CompareOp::kBetween || f.value2.type() == col.type());
}

// Calls fn(data, lo, hi) with a typed filter's column vector and literals
// in the column's native type (hi is lo unless the filter is a BETWEEN).
template <typename Fn>
decltype(auto) WithNative(const FilterPredicate& f, const Column& col,
                          Fn&& fn) {
  const bool between = f.op == CompareOp::kBetween;
  if (col.type() == ValueType::kInt64) {
    const int64_t lo = f.value.AsInt64();
    return fn(col.int64_data(), lo, between ? f.value2.AsInt64() : lo);
  }
  if (col.type() == ValueType::kDouble) {
    const double lo = f.value.AsDouble();
    return fn(col.double_data(), lo, between ? f.value2.AsDouble() : lo);
  }
  const std::string& lo = f.value.AsString();
  return fn(col.string_data(), lo, between ? f.value2.AsString() : lo);
}

// Keeps the ids in `rows` whose value in `data` satisfies `pred`.
template <typename T, typename Pred>
void Keep(const std::vector<T>& data, Pred pred, std::vector<uint32_t>* rows) {
  size_t kept = 0;
  for (const uint32_t r : *rows) {
    (*rows)[kept] = r;
    kept += pred(data[r]) ? 1 : 0;
  }
  rows->resize(kept);
}

// Narrows `rows` to those satisfying `op` against (lo, hi), with the
// operator switch hoisted out of the row loop.
template <typename T>
void NarrowTyped(const std::vector<T>& data, CompareOp op, const T& lo,
                 const T& hi, std::vector<uint32_t>* rows) {
  switch (op) {
    case CompareOp::kEq:
      Keep(data, [&](const T& v) { return v == lo; }, rows);
      return;
    case CompareOp::kLt:
      Keep(data, [&](const T& v) { return v < lo; }, rows);
      return;
    case CompareOp::kLe:
      Keep(data, [&](const T& v) { return LessEq(v, lo); }, rows);
      return;
    case CompareOp::kGt:
      Keep(data, [&](const T& v) { return lo < v; }, rows);
      return;
    case CompareOp::kGe:
      Keep(data, [&](const T& v) { return LessEq(lo, v); }, rows);
      return;
    case CompareOp::kBetween:
      Keep(data,
           [&](const T& v) { return LessEq(lo, v) && LessEq(v, hi); }, rows);
      return;
  }
}

// Narrows `rows` (row ids of `t`) to those satisfying `f`.
void Narrow(const Table& t, const FilterPredicate& f,
            std::vector<uint32_t>* rows) {
  const Column& col = t.column(f.column.column);
  if (!TypedFilter(f, col)) {
    size_t kept = 0;
    for (const uint32_t r : *rows) {
      if (f.Matches(col.Get(r))) (*rows)[kept++] = r;
    }
    rows->resize(kept);
    return;
  }
  WithNative(f, col, [&](const auto& data, const auto& lo, const auto& hi) {
    NarrowTyped(data, f.op, lo, hi, rows);
  });
}

std::vector<uint32_t> AllRows(const Table& t) {
  std::vector<uint32_t> rows(t.num_rows());
  std::iota(rows.begin(), rows.end(), uint32_t{0});
  return rows;
}

// A join or group-by column resolved once per operator: its tuple slot and
// its storage.
struct SlotColumn {
  size_t slot;
  const Column* col;
};

uint64_t HashKey(const std::vector<SlotColumn>& key, const uint32_t* tuple) {
  uint64_t h = kFnvBasis;
  for (const SlotColumn& k : key) {
    h ^= HashCell(*k.col, tuple[k.slot]);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

bool FilterMatchesCell(const FilterPredicate& f, const Column& col,
                       size_t row) {
  if (!TypedFilter(f, col)) return f.Matches(col.Get(row));
  return WithNative(f, col,
                    [&](const auto& data, const auto& lo, const auto& hi) {
                      return Satisfies(f.op, data[row], lo, hi);
                    });
}

int Intermediate::SlotOf(TableId table) const {
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i] == table) return static_cast<int>(i);
  }
  return -1;
}

void SampledAppender::MaybeCompact() {
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

Intermediate ExecFilteredScan(const Database& db, const Query& query,
                              TableId table,
                              const std::vector<int>& filter_indices) {
  const Table& t = db.table(table);
  Intermediate out;
  out.tables = {table};
  out.data = AllRows(t);
  for (const int i : filter_indices) {
    Narrow(t, query.filters()[static_cast<size_t>(i)], &out.data);
  }
  return out;
}

Intermediate ExecIndexSeek(const Database& db, const Query& query,
                           TableId table, ColumnRef leading,
                           const std::vector<int>& filter_indices,
                           double* matched) {
  const Table& t = db.table(table);
  Intermediate out;
  out.tables = {table};
  out.data = AllRows(t);
  // The leading column's filters first: the rows they keep are the count.
  for (const bool on_leading : {true, false}) {
    for (const int i : filter_indices) {
      const FilterPredicate& f = query.filters()[static_cast<size_t>(i)];
      if ((f.column == leading) == on_leading) Narrow(t, f, &out.data);
    }
    if (on_leading) *matched = static_cast<double>(out.data.size());
  }
  return out;
}

Intermediate ExecHashJoin(const Database& db, const Query& query,
                          const Intermediate& left, const Intermediate& right,
                          const std::vector<int>& join_indices) {
  Intermediate out;
  out.tables = left.tables;
  out.tables.insert(out.tables.end(), right.tables.begin(),
                    right.tables.end());
  out.scale = left.scale * right.scale;
  SampledAppender appender(&out);

  // Resolve each join predicate to (left slot+column, right slot+column);
  // predicates that do not span the two inputs are ignored here (they were
  // applied at a lower join).
  std::vector<SlotColumn> lkey, rkey;
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
    lkey.push_back(SlotColumn{static_cast<size_t>(lslot),
                              &db.table(lc.table).column(lc.column)});
    rkey.push_back(SlotColumn{static_cast<size_t>(rslot),
                              &db.table(rc.table).column(rc.column)});
  }

  const size_t lw = left.stride(), rw = right.stride();
  if (lkey.empty()) {
    // Cross product (disconnected query graph only).
    for (size_t li = 0; li < left.num_stored(); ++li) {
      for (size_t ri = 0; ri < right.num_stored(); ++ri) {
        appender.Append(left.row(li), lw, right.row(ri), rw);
      }
    }
    return out;
  }

  // Build on the right input: each row's key hash, and per power-of-two
  // bucket a chain threaded through `next`. A row goes in at the head of
  // its chain, so a chain lists its rows in descending index.
  constexpr uint32_t kEnd = ~uint32_t{0};
  const size_t nr = right.num_stored();
  const int bits = std::max(1, static_cast<int>(std::bit_width(nr)));
  const auto bucket_of = [bits](uint64_t h) {
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ull) >> (64 - bits));
  };
  std::vector<uint64_t> hashes(nr);
  std::vector<uint32_t> head(size_t{1} << bits, kEnd);
  std::vector<uint32_t> next(nr);
  for (size_t i = 0; i < nr; ++i) {
    hashes[i] = HashKey(rkey, right.row(i));
    uint32_t& chain = head[bucket_of(hashes[i])];
    next[i] = chain;
    chain = static_cast<uint32_t>(i);
  }
  for (size_t li = 0; li < left.num_stored(); ++li) {
    const uint32_t* lrow = left.row(li);
    const uint64_t h = HashKey(lkey, lrow);
    for (uint32_t ri = head[bucket_of(h)]; ri != kEnd; ri = next[ri]) {
      if (hashes[ri] != h) continue;
      const uint32_t* rrow = right.row(ri);
      bool eq = true;
      for (size_t k = 0; k < lkey.size(); ++k) {
        if (!CellEq(*lkey[k].col, lrow[lkey[k].slot], *rkey[k].col,
                    rrow[rkey[k].slot])) {
          eq = false;
          break;
        }
      }
      if (eq) appender.Append(lrow, lw, rrow, rw);
    }
  }
  return out;
}

double CountGroups(const Database& db, const Intermediate& input,
                   const std::vector<ColumnRef>& group_by) {
  const size_t n = input.num_stored();
  if (n == 0) return 0.0;
  std::vector<SlotColumn> key;
  key.reserve(group_by.size());
  for (const ColumnRef& c : group_by) {
    const int slot = input.SlotOf(c.table);
    AUTOSTATS_CHECK(slot >= 0);
    key.push_back(SlotColumn{static_cast<size_t>(slot),
                             &db.table(c.table).column(c.column)});
  }
  // Distinct per-tuple hashes: the count a hash set of them would hold.
  std::vector<uint64_t> hashes(n);
  for (size_t i = 0; i < n; ++i) hashes[i] = HashKey(key, input.row(i));
  std::sort(hashes.begin(), hashes.end());
  return static_cast<double>(
      std::unique(hashes.begin(), hashes.end()) - hashes.begin());
}

}  // namespace autostats
