#include "storage/value.h"

#include <cmath>
#include <cstdio>

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace fabric::storage {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kBool:
      return "BOOLEAN";
    case DataType::kInt64:
      return "INTEGER";
    case DataType::kFloat64:
      return "FLOAT";
    case DataType::kVarchar:
      return "VARCHAR";
  }
  return "?";
}

namespace {

// Indexed by CompareOp.
constexpr const char* kCompareOpNames[] = {
    "=", "<>", "<", "<=", ">", ">=", "IS NULL", "IS NOT NULL"};

}  // namespace

// The interpreter parses its operator once per evaluated row, so this
// dispatches on the characters instead of comparing whole strings.
std::optional<CompareOp> ParseCompareOp(std::string_view symbol) {
  if (symbol.size() == 1) {
    switch (symbol[0]) {
      case '=':
        return CompareOp::kEq;
      case '<':
        return CompareOp::kLt;
      case '>':
        return CompareOp::kGt;
    }
  } else if (symbol.size() == 2 && symbol[1] == '=') {
    switch (symbol[0]) {
      case '<':
        return CompareOp::kLe;
      case '>':
        return CompareOp::kGe;
      case '!':
        return CompareOp::kNe;
    }
  } else if (symbol == "<>") {
    return CompareOp::kNe;
  }
  return std::nullopt;
}

CompareOp FlipCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;
  }
}

const char* CompareOpName(CompareOp op) {
  return kCompareOpNames[static_cast<int>(op)];
}

Result<DataType> ParseDataType(std::string_view name) {
  std::string lower = ToLower(name);
  // Strip a VARCHAR(n) length suffix if present.
  if (size_t paren = lower.find('('); paren != std::string::npos) {
    lower = lower.substr(0, paren);
  }
  if (lower == "bool" || lower == "boolean") return DataType::kBool;
  if (lower == "int" || lower == "integer" || lower == "bigint" ||
      lower == "long") {
    return DataType::kInt64;
  }
  if (lower == "float" || lower == "double" || lower == "real") {
    return DataType::kFloat64;
  }
  if (lower == "varchar" || lower == "string" || lower == "text" ||
      lower == "char") {
    return DataType::kVarchar;
  }
  return InvalidArgumentError(StrCat("unknown data type '", name, "'"));
}

DataType Value::type() const {
  FABRIC_CHECK(!is_null()) << "type() of NULL value";
  switch (data_.index()) {
    case 1:
      return DataType::kBool;
    case 2:
      return DataType::kInt64;
    case 3:
      return DataType::kFloat64;
    case 4:
      return DataType::kVarchar;
    default:
      break;
  }
  FABRIC_CHECK(false) << "corrupt value";
  return DataType::kBool;
}

Result<double> Value::AsDouble() const {
  if (is_null()) return InvalidArgumentError("NULL has no numeric value");
  switch (type()) {
    case DataType::kInt64:
      return static_cast<double>(int64_value());
    case DataType::kFloat64:
      return float64_value();
    case DataType::kBool:
      return bool_value() ? 1.0 : 0.0;
    case DataType::kVarchar:
      return InvalidArgumentError("VARCHAR is not numeric");
  }
  return InternalError("corrupt value");
}

bool Value::Equals(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (type() != other.type()) {
    // Numeric cross-type equality (1 == 1.0).
    auto a = AsDouble();
    auto b = other.AsDouble();
    if (a.ok() && b.ok()) return *a == *b;
    return false;
  }
  return data_ == other.data_;
}

Result<int> Value::Compare(const Value& other) const {
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  if (type() == DataType::kVarchar && other.type() == DataType::kVarchar) {
    int c = varchar_value().compare(other.varchar_value());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (type() == DataType::kInt64 && other.type() == DataType::kInt64) {
    // Through double, distinct integers beyond 2^53 would compare equal.
    return CompareIntegers(int64_value(), other.int64_value());
  }
  auto a = AsDouble();
  auto b = other.AsDouble();
  if (a.ok() && b.ok()) return CompareNumbers(*a, *b);
  return InvalidArgumentError(
      StrCat("cannot compare ", DataTypeName(type()), " with ",
             DataTypeName(other.type())));
}

uint64_t Value::SegmentationHash() const {
  if (is_null()) return Mix64(0xdeadULL);
  switch (type()) {
    case DataType::kBool:
      return HashBool(bool_value());
    case DataType::kInt64:
      return HashInt64(int64_value());
    case DataType::kFloat64:
      return HashDouble(float64_value());
    case DataType::kVarchar:
      return HashBytes(varchar_value());
  }
  return 0;
}

uint64_t Value::DistinctHash() const {
  return Mix64(SegmentationHash() ^ 0xc2b2ae3d27d4eb4fULL);
}

double Value::RawSize() const {
  if (is_null()) return 0;
  switch (type()) {
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kFloat64:
      return 8;
    case DataType::kVarchar:
      return static_cast<double>(varchar_value().size());
  }
  return 0;
}

std::string Value::ToSqlLiteral() const {
  if (is_null()) return "NULL";
  switch (type()) {
    case DataType::kBool:
      return bool_value() ? "TRUE" : "FALSE";
    case DataType::kInt64:
      return StrCat(int64_value());
    case DataType::kFloat64: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", float64_value());
      std::string out = buf;
      // %.17g drops the point for integral values ("2", not "2.0") and
      // the lexer would hand that back as an Int64 literal; force a
      // float marker when the rendering is digits-only (inf/nan
      // spellings are left alone).
      if (out.find_first_not_of("-0123456789") == std::string::npos) {
        out += ".0";
      }
      return out;
    }
    case DataType::kVarchar: {
      std::string out = "'";
      for (char c : varchar_value()) {
        if (c == '\'') out += "''";
        else out.push_back(c);
      }
      out += "'";
      return out;
    }
  }
  return "NULL";
}

std::string Value::ToDisplayString() const {
  if (is_null()) return "NULL";
  switch (type()) {
    case DataType::kBool:
      return bool_value() ? "true" : "false";
    case DataType::kInt64:
      return StrCat(int64_value());
    case DataType::kFloat64: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", float64_value());
      return buf;
    }
    case DataType::kVarchar:
      return varchar_value();
  }
  return "NULL";
}

Result<Value> Value::ParseAs(DataType type, std::string_view text) {
  switch (type) {
    case DataType::kBool: {
      if (EqualsIgnoreCase(text, "true") || text == "1") return Bool(true);
      if (EqualsIgnoreCase(text, "false") || text == "0") return Bool(false);
      return InvalidArgumentError(StrCat("bad BOOLEAN literal '", text, "'"));
    }
    case DataType::kInt64: {
      int64_t v = 0;
      if (!ParseInt64(text, &v)) {
        return InvalidArgumentError(
            StrCat("bad INTEGER literal '", text, "'"));
      }
      return Int64(v);
    }
    case DataType::kFloat64: {
      double v = 0;
      if (!ParseDouble(text, &v)) {
        return InvalidArgumentError(StrCat("bad FLOAT literal '", text, "'"));
      }
      return Float64(v);
    }
    case DataType::kVarchar:
      return Varchar(std::string(text));
  }
  return InternalError("corrupt type");
}

}  // namespace fabric::storage
