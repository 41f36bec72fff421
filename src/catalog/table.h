// Table: an in-memory columnar table (schema + one Column per attribute).
#ifndef AUTOSTATS_CATALOG_TABLE_H_
#define AUTOSTATS_CATALOG_TABLE_H_

#include <cstdint>
#include <vector>

#include "catalog/column.h"
#include "catalog/schema.h"

namespace autostats {

class Table {
 public:
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }

  const Column& column(ColumnId id) const;
  Column& mutable_column(ColumnId id);

  // Appends a full row; `values` must match the schema arity and types.
  void AppendRow(const std::vector<Datum>& values);

  // Appends a copy of row `src` column by column; each BIGINT cell's value
  // passes through `int64_value` (called in schema order) on its way.
  template <typename Int64Fn>
  void AppendRowCopy(size_t src, Int64Fn&& int64_value) {
    AUTOSTATS_CHECK(src < num_rows_);
    for (Column& c : columns_) {
      if (c.type() == ValueType::kInt64) {
        c.AppendInt64(int64_value(c.int64_data()[src]));
      } else {
        c.AppendCopyOf(src);
      }
    }
    ++num_rows_;
  }

  // Removes `row` (swap-remove; row order is not meaningful).
  void RemoveRow(size_t row);

  // Overwrites one cell.
  void SetCell(size_t row, ColumnId col, const Datum& v);

  Datum GetCell(size_t row, ColumnId col) const {
    return column(col).Get(row);
  }

 private:
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace autostats

#endif  // AUTOSTATS_CATALOG_TABLE_H_
