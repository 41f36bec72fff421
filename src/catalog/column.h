// Column: typed columnar storage for one table column. Values are stored
// in a dense vector of the native type; Datum access is provided for
// generic code paths (statistics building, predicate evaluation).
#ifndef AUTOSTATS_CATALOG_COLUMN_H_
#define AUTOSTATS_CATALOG_COLUMN_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "catalog/value.h"

namespace autostats {

class Column {
 public:
  explicit Column(ValueType type);

  ValueType type() const { return type_; }
  size_t size() const;

  void Append(const Datum& v);
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);

  Datum Get(size_t row) const;
  // Numeric view used by histograms and comparisons (strings use the
  // order-preserving prefix key, StringPrefixKey of the stored string).
  double NumericKey(size_t row) const {
    switch (type_) {
      case ValueType::kInt64:
        return static_cast<double>(
            (*std::get_if<std::vector<int64_t>>(&data_))[row]);
      case ValueType::kDouble:
        return (*std::get_if<std::vector<double>>(&data_))[row];
      case ValueType::kString:
        return StringPrefixKey(
            (*std::get_if<std::vector<std::string>>(&data_))[row]);
    }
    return 0.0;
  }

  // Overwrites the value at `row`.
  void Set(size_t row, const Datum& v);
  // Typed row copies for DML apply (no Datum): appends a copy of the value
  // at `row`, or overwrites the value at `to` with the one at `from`.
  void AppendCopyOf(size_t row);
  void CopyValue(size_t from, size_t to);
  // Removes `row` by swapping the last element into its place (O(1); row
  // order is not meaningful in this engine).
  void SwapRemove(size_t row);

  // Direct typed access for hot loops; CHECKs on type mismatch.
  const std::vector<int64_t>& int64_data() const {
    AUTOSTATS_CHECK(type_ == ValueType::kInt64);
    return *std::get_if<std::vector<int64_t>>(&data_);
  }
  const std::vector<double>& double_data() const {
    AUTOSTATS_CHECK(type_ == ValueType::kDouble);
    return *std::get_if<std::vector<double>>(&data_);
  }
  const std::vector<std::string>& string_data() const {
    AUTOSTATS_CHECK(type_ == ValueType::kString);
    return *std::get_if<std::vector<std::string>>(&data_);
  }

 private:
  ValueType type_;
  std::variant<std::vector<int64_t>, std::vector<double>,
               std::vector<std::string>>
      data_;
};

}  // namespace autostats

#endif  // AUTOSTATS_CATALOG_COLUMN_H_
