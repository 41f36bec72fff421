#include "tpcd/tbl_io.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/str_util.h"

namespace autostats::tpcd {

namespace {

std::string CellToField(const Datum& v) {
  switch (v.type()) {
    case ValueType::kInt64:
      return StrFormat("%lld", static_cast<long long>(v.AsInt64()));
    case ValueType::kDouble:
      return StrFormat("%.2f", v.AsDouble());
    case ValueType::kString:
      return v.AsString();
  }
  return "";
}

Result<Datum> FieldToCell(const std::string& field, ValueType type) {
  switch (type) {
    case ValueType::kInt64: {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(field.c_str(), &end, 10);
      if (end == field.c_str() || *end != '\0' || errno != 0) {
        return Status::InvalidArgument("bad integer field: " + field);
      }
      return Datum(static_cast<int64_t>(v));
    }
    case ValueType::kDouble: {
      errno = 0;
      char* end = nullptr;
      const double v = std::strtod(field.c_str(), &end);
      // strtod accepts "nan" and "inf" without an error; no column may
      // hold them (statistic builds order keys, histograms bound buckets).
      if (end == field.c_str() || *end != '\0' || errno != 0 ||
          !std::isfinite(v)) {
        return Status::InvalidArgument("bad double field: " + field);
      }
      return Datum(v);
    }
    case ValueType::kString:
      return Datum(field);
  }
  return Status::Internal("unknown value type");
}

}  // namespace

Status WriteTblFiles(const Database& db, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::InvalidArgument("cannot create " + dir);
  for (int t = 0; t < db.num_tables(); ++t) {
    const Table& table = db.table(t);
    const std::string path =
        dir + "/" + table.schema().table_name() + ".tbl";
    std::ofstream out(path);
    if (!out) return Status::InvalidArgument("cannot open " + path);
    const int ncols = table.schema().num_columns();
    for (size_t r = 0; r < table.num_rows(); ++r) {
      for (int c = 0; c < ncols; ++c) {
        out << CellToField(table.GetCell(r, c)) << '|';
      }
      out << '\n';
    }
    if (!out) return Status::Internal("write failed for " + path);
  }
  return Status::OK();
}

Status LoadTblFiles(Database* db, const std::string& dir) {
  for (int t = 0; t < db->num_tables(); ++t) {
    Table& table = db->mutable_table(t);
    const std::string path =
        dir + "/" + table.schema().table_name() + ".tbl";
    std::ifstream in(path);
    if (!in) return Status::NotFound("missing " + path);
    const int ncols = table.schema().num_columns();
    std::string line;
    int line_number = 0;
    while (std::getline(in, line)) {
      ++line_number;
      if (line.empty()) continue;
      std::vector<Datum> row;
      row.reserve(static_cast<size_t>(ncols));
      size_t start = 0;
      for (int c = 0; c < ncols; ++c) {
        const size_t pipe = line.find('|', start);
        if (pipe == std::string::npos) {
          return Status::InvalidArgument(
              StrFormat("%s:%d: expected %d fields", path.c_str(),
                        line_number, ncols));
        }
        Result<Datum> cell = FieldToCell(line.substr(start, pipe - start),
                                         table.schema().column(c).type);
        if (!cell.ok()) {
          return Status(cell.status().code(),
                        StrFormat("%s:%d: %s", path.c_str(), line_number,
                                  cell.status().message().c_str()));
        }
        row.push_back(std::move(*cell));
        start = pipe + 1;
      }
      table.AppendRow(row);
    }
  }
  return Status::OK();
}

}  // namespace autostats::tpcd
