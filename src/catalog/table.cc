#include "catalog/table.h"

namespace autostats {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(static_cast<size_t>(schema_.num_columns()));
  for (int i = 0; i < schema_.num_columns(); ++i) {
    columns_.emplace_back(schema_.column(i).type);
  }
}

const Column& Table::column(ColumnId id) const {
  AUTOSTATS_CHECK(id >= 0 && id < schema_.num_columns());
  return columns_[static_cast<size_t>(id)];
}

Column& Table::mutable_column(ColumnId id) {
  AUTOSTATS_CHECK(id >= 0 && id < schema_.num_columns());
  return columns_[static_cast<size_t>(id)];
}

void Table::AppendRow(const std::vector<Datum>& values) {
  AUTOSTATS_CHECK(values.size() == columns_.size());
  for (size_t i = 0; i < values.size(); ++i) columns_[i].Append(values[i]);
  ++num_rows_;
}

void Table::RemoveRow(size_t row) {
  AUTOSTATS_CHECK(row < num_rows_);
  for (auto& c : columns_) c.SwapRemove(row);
  --num_rows_;
}

void Table::SetCell(size_t row, ColumnId col, const Datum& v) {
  mutable_column(col).Set(row, v);
}

}  // namespace autostats
