// Database: the collection of tables and index definitions that one
// optimizer/executor instance runs against.
#ifndef AUTOSTATS_CATALOG_DATABASE_H_
#define AUTOSTATS_CATALOG_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/index.h"
#include "catalog/table.h"

namespace autostats {

class Database {
 public:
  Database() = default;

  // Non-copyable (tables can be large); movable.
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  // Adds a table and returns its id.
  TableId AddTable(Schema schema);

  int num_tables() const { return static_cast<int>(tables_.size()); }
  const Table& table(TableId id) const;
  Table& mutable_table(TableId id);

  // Id of the named table, or kInvalidTableId.
  TableId FindTable(const std::string& name) const;

  // Resolves "table.column"; CHECKs that both exist.
  ColumnRef Resolve(const std::string& table_name,
                    const std::string& column_name) const;

  const ColumnDef& column_def(ColumnRef ref) const {
    return table(ref.table).schema().column(ref.column);
  }

  // "<table>.<column>" for diagnostics.
  std::string ColumnName(ColumnRef ref) const;

  void AddIndex(IndexDef index);
  // Removes the named index if present (what-if tuning rolls back
  // hypothetical indexes this way).
  void RemoveIndex(const std::string& name);
  const std::vector<IndexDef>& indexes() const { return indexes_; }

  // Indexes whose table is `id`.
  std::vector<const IndexDef*> IndexesOn(TableId id) const;
  // The index (if any) whose leading key column is `ref`.
  const IndexDef* FindIndexWithLeadingColumn(ColumnRef ref) const;

 private:
  std::vector<std::unique_ptr<Table>> tables_;
  std::vector<IndexDef> indexes_;
};

}  // namespace autostats

#endif  // AUTOSTATS_CATALOG_DATABASE_H_
