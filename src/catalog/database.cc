#include "catalog/database.h"

#include <algorithm>

#include "common/check.h"

namespace autostats {

TableId Database::AddTable(Schema schema) {
  tables_.push_back(std::make_unique<Table>(std::move(schema)));
  return static_cast<TableId>(tables_.size() - 1);
}

const Table& Database::table(TableId id) const {
  AUTOSTATS_CHECK(id >= 0 && id < num_tables());
  return *tables_[static_cast<size_t>(id)];
}

Table& Database::mutable_table(TableId id) {
  AUTOSTATS_CHECK(id >= 0 && id < num_tables());
  return *tables_[static_cast<size_t>(id)];
}

TableId Database::FindTable(const std::string& name) const {
  for (int i = 0; i < num_tables(); ++i) {
    if (tables_[static_cast<size_t>(i)]->schema().table_name() == name) {
      return i;
    }
  }
  return kInvalidTableId;
}

ColumnRef Database::Resolve(const std::string& table_name,
                            const std::string& column_name) const {
  TableId t = FindTable(table_name);
  AUTOSTATS_CHECK_MSG(t != kInvalidTableId, table_name.c_str());
  ColumnId c = table(t).schema().FindColumn(column_name);
  AUTOSTATS_CHECK_MSG(c >= 0, column_name.c_str());
  return ColumnRef{t, c};
}

std::string Database::ColumnName(ColumnRef ref) const {
  const Table& t = table(ref.table);
  return t.schema().table_name() + "." + t.schema().column(ref.column).name;
}

void Database::AddIndex(IndexDef index) {
  AUTOSTATS_CHECK(index.table >= 0 && index.table < num_tables());
  AUTOSTATS_CHECK(!index.key_columns.empty());
  indexes_.push_back(std::move(index));
}

void Database::RemoveIndex(const std::string& name) {
  indexes_.erase(std::remove_if(indexes_.begin(), indexes_.end(),
                                [&](const IndexDef& ix) {
                                  return ix.name == name;
                                }),
                 indexes_.end());
}

std::vector<const IndexDef*> Database::IndexesOn(TableId id) const {
  std::vector<const IndexDef*> out;
  for (const auto& ix : indexes_) {
    if (ix.table == id) out.push_back(&ix);
  }
  return out;
}

const IndexDef* Database::FindIndexWithLeadingColumn(ColumnRef ref) const {
  for (const auto& ix : indexes_) {
    if (ix.LeadingColumn() == ref) return &ix;
  }
  return nullptr;
}

}  // namespace autostats
