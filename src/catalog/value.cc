#include "catalog/value.h"

#include "common/str_util.h"

namespace autostats {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return "BIGINT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "VARCHAR";
  }
  return "UNKNOWN";
}

double StringPrefixKey(std::string_view s) {
  double key = 0.0;
  double scale = 1.0;
  for (size_t i = 0; i < 8 && i < s.size(); ++i) {
    scale /= 256.0;
    key += static_cast<double>(static_cast<unsigned char>(s[i])) * scale;
  }
  return key;
}

bool Datum::operator<(const Datum& other) const {
  AUTOSTATS_DCHECK(type() == other.type());
  return value_ < other.value_;
}

double Datum::NumericKey() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(AsInt64());
    case ValueType::kDouble:
      return AsDouble();
    case ValueType::kString:
      return StringPrefixKey(AsString());
  }
  return 0.0;
}

std::string Datum::ToString() const {
  switch (type()) {
    case ValueType::kInt64:
      return StrFormat("%lld", static_cast<long long>(AsInt64()));
    case ValueType::kDouble:
      return FormatDouble(AsDouble(), 4);
    case ValueType::kString:
      return "'" + AsString() + "'";
  }
  return "?";
}

}  // namespace autostats
