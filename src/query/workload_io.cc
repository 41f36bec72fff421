#include "query/workload_io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <system_error>
#include <vector>

#include "common/str_util.h"
#include "query/parser.h"
#include "query/printer.h"

namespace autostats {

namespace {

std::string DmlToLine(const Database& db, const DmlStatement& d) {
  const std::string& table = db.table(d.table).schema().table_name();
  switch (d.kind) {
    case DmlKind::kInsert:
      return StrFormat("INSERT INTO %s ROWS %zu SEED %llu", table.c_str(),
                       d.row_count,
                       static_cast<unsigned long long>(d.seed));
    case DmlKind::kUpdate:
      return StrFormat(
          "UPDATE %s SET %s ROWS %zu SEED %llu", table.c_str(),
          db.table(d.table).schema().column(d.update_column).name.c_str(),
          d.row_count, static_cast<unsigned long long>(d.seed));
    case DmlKind::kDelete:
      return StrFormat("DELETE FROM %s ROWS %zu SEED %llu", table.c_str(),
                       d.row_count,
                       static_cast<unsigned long long>(d.seed));
  }
  return "";
}

// An unsigned decimal that fits `T`: digits only (from_chars takes no
// sign for an unsigned type), the whole token, no overflow.
template <typename T>
bool ParseUnsigned(const std::string& tok, T* out) {
  const char* end = tok.data() + tok.size();
  const std::from_chars_result r = std::from_chars(tok.data(), end, *out);
  return r.ec == std::errc() && r.ptr == end;
}

Result<Statement> ParseDmlLine(const Database& db, const std::string& line) {
  std::istringstream ss(line);
  std::vector<std::string> tok;
  for (std::string word; ss >> word;) tok.push_back(word);
  auto malformed = [&line] {
    return Status::InvalidArgument("malformed DML line: " + line);
  };
  // INSERT INTO <t> ROWS <n> SEED <s>
  // UPDATE <t> SET <c> ROWS <n> SEED <s>
  // DELETE FROM <t> ROWS <n> SEED <s>
  DmlStatement d;
  std::string table_name;
  std::string column_name;
  size_t rows_at = 0;
  if (tok.size() == 7 && tok[0] == "INSERT" && tok[1] == "INTO") {
    d.kind = DmlKind::kInsert;
    table_name = tok[2];
    rows_at = 3;
  } else if (tok.size() == 8 && tok[0] == "UPDATE" && tok[2] == "SET") {
    d.kind = DmlKind::kUpdate;
    table_name = tok[1];
    column_name = tok[3];
    rows_at = 4;
  } else if (tok.size() == 7 && tok[0] == "DELETE" && tok[1] == "FROM") {
    d.kind = DmlKind::kDelete;
    table_name = tok[2];
    rows_at = 3;
  } else {
    return malformed();
  }
  if (tok[rows_at] != "ROWS" ||
      !ParseUnsigned(tok[rows_at + 1], &d.row_count) ||
      tok[rows_at + 2] != "SEED" ||
      !ParseUnsigned(tok[rows_at + 3], &d.seed)) {
    return malformed();
  }
  d.table = db.FindTable(table_name);
  if (d.table == kInvalidTableId) {
    return Status::NotFound("unknown table: " + table_name);
  }
  if (d.kind == DmlKind::kUpdate) {
    d.update_column = db.table(d.table).schema().FindColumn(column_name);
    if (d.update_column < 0) {
      return Status::NotFound("unknown column: " + column_name);
    }
  }
  return Statement::MakeDml(d);
}

}  // namespace

std::string StatementToLine(const Database& db, const Statement& statement) {
  if (statement.kind == Statement::Kind::kQuery) {
    return QueryToSql(db, statement.query);
  }
  return DmlToLine(db, statement.dml);
}

Result<Statement> ParseStatementLine(const Database& db,
                                     const std::string& line) {
  if (line.rfind("INSERT", 0) == 0 || line.rfind("UPDATE", 0) == 0 ||
      line.rfind("DELETE", 0) == 0) {
    return ParseDmlLine(db, line);
  }
  Result<Query> q = ParseQuery(db, line);
  if (!q.ok()) return q.status();
  return Statement::MakeQuery(std::move(*q));
}

Status SaveWorkload(const Database& db, const Workload& workload,
                    const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot open " + path);
  out << "# autostats workload: " << workload.name() << "\n";
  for (const Statement& s : workload.statements()) {
    out << StatementToLine(db, s) << "\n";
  }
  if (!out) return Status::Internal("write failed for " + path);
  return Status::OK();
}

Result<Workload> LoadWorkload(const Database& db, const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  Workload w(path);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    Result<Statement> s = ParseStatementLine(db, line);
    if (!s.ok()) {
      return Status(s.status().code(),
                    StrFormat("%s:%d: %s", path.c_str(), line_number,
                              s.status().message().c_str()));
    }
    w.Add(std::move(*s));
  }
  return w;
}

}  // namespace autostats
