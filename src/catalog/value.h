// Datum: a single typed SQL value (BIGINT, DOUBLE, or VARCHAR), the unit
// of data exchanged between the storage, statistics, and execution layers.
#ifndef AUTOSTATS_CATALOG_VALUE_H_
#define AUTOSTATS_CATALOG_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/check.h"

namespace autostats {

enum class ValueType { kInt64, kDouble, kString };

// Short type name: "BIGINT", "DOUBLE", "VARCHAR".
const char* ValueTypeName(ValueType type);

// Numeric key of a VARCHAR value: its first 8 bytes as a base-256
// fraction, an order-preserving prefix encoding with enough resolution for
// histogram boundaries. Datum::NumericKey and Column::NumericKey share it.
double StringPrefixKey(std::string_view s);

class Datum {
 public:
  Datum() : value_(int64_t{0}) {}
  explicit Datum(int64_t v) : value_(v) {}
  explicit Datum(double v) : value_(v) {}
  explicit Datum(std::string v) : value_(std::move(v)) {}

  ValueType type() const {
    if (std::holds_alternative<int64_t>(value_)) return ValueType::kInt64;
    if (std::holds_alternative<double>(value_)) return ValueType::kDouble;
    return ValueType::kString;
  }

  int64_t AsInt64() const {
    AUTOSTATS_DCHECK(type() == ValueType::kInt64);
    return std::get<int64_t>(value_);
  }
  double AsDouble() const {
    AUTOSTATS_DCHECK(type() == ValueType::kDouble);
    return std::get<double>(value_);
  }
  const std::string& AsString() const {
    AUTOSTATS_DCHECK(type() == ValueType::kString);
    return std::get<std::string>(value_);
  }

  // A total order within one type; comparing Datums of different types is a
  // programmer error.
  bool operator==(const Datum& other) const { return value_ == other.value_; }
  bool operator<(const Datum& other) const;
  bool operator<=(const Datum& other) const {
    return *this < other || *this == other;
  }

  // Numeric view of the value for histogram bucketing; strings are mapped
  // by a stable prefix encoding so range estimation over strings works.
  double NumericKey() const;

  // SQL-literal rendering ("42", "3.5", "'EUROPE'").
  std::string ToString() const;

 private:
  std::variant<int64_t, double, std::string> value_;
};

}  // namespace autostats

#endif  // AUTOSTATS_CATALOG_VALUE_H_
