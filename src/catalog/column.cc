#include "catalog/column.h"

namespace autostats {

Column::Column(ValueType type) : type_(type) {
  switch (type) {
    case ValueType::kInt64:
      data_ = std::vector<int64_t>();
      break;
    case ValueType::kDouble:
      data_ = std::vector<double>();
      break;
    case ValueType::kString:
      data_ = std::vector<std::string>();
      break;
  }
}

size_t Column::size() const {
  return std::visit([](const auto& v) { return v.size(); }, data_);
}

void Column::Append(const Datum& v) {
  AUTOSTATS_DCHECK(v.type() == type_);
  switch (type_) {
    case ValueType::kInt64:
      AppendInt64(v.AsInt64());
      break;
    case ValueType::kDouble:
      AppendDouble(v.AsDouble());
      break;
    case ValueType::kString:
      AppendString(v.AsString());
      break;
  }
}

void Column::AppendInt64(int64_t v) {
  std::get<std::vector<int64_t>>(data_).push_back(v);
}
void Column::AppendDouble(double v) {
  std::get<std::vector<double>>(data_).push_back(v);
}
void Column::AppendString(std::string v) {
  std::get<std::vector<std::string>>(data_).push_back(std::move(v));
}

Datum Column::Get(size_t row) const {
  AUTOSTATS_DCHECK(row < size());
  switch (type_) {
    case ValueType::kInt64:
      return Datum(std::get<std::vector<int64_t>>(data_)[row]);
    case ValueType::kDouble:
      return Datum(std::get<std::vector<double>>(data_)[row]);
    case ValueType::kString:
      return Datum(std::get<std::vector<std::string>>(data_)[row]);
  }
  return Datum();
}

void Column::Set(size_t row, const Datum& v) {
  AUTOSTATS_DCHECK(row < size());
  AUTOSTATS_DCHECK(v.type() == type_);
  switch (type_) {
    case ValueType::kInt64:
      std::get<std::vector<int64_t>>(data_)[row] = v.AsInt64();
      break;
    case ValueType::kDouble:
      std::get<std::vector<double>>(data_)[row] = v.AsDouble();
      break;
    case ValueType::kString:
      std::get<std::vector<std::string>>(data_)[row] = v.AsString();
      break;
  }
}

void Column::AppendCopyOf(size_t row) {
  AUTOSTATS_DCHECK(row < size());
  // push_back of an element of the same vector is safe: the new element is
  // constructed before any reallocation moves the old ones.
  std::visit([row](auto& v) { v.push_back(v[row]); }, data_);
}

void Column::CopyValue(size_t from, size_t to) {
  AUTOSTATS_DCHECK(from < size() && to < size());
  std::visit([from, to](auto& v) { v[to] = v[from]; }, data_);
}

void Column::SwapRemove(size_t row) {
  AUTOSTATS_DCHECK(row < size());
  std::visit(
      [row](auto& v) {
        v[row] = std::move(v.back());
        v.pop_back();
      },
      data_);
}

}  // namespace autostats
