#include "spark/types.h"

#include <cmath>

#include "common/string_util.h"

namespace fabric::spark {

SourceOptions& SourceOptions::Set(const std::string& key,
                                  const std::string& value) {
  entries_[ToLower(key)] = value;
  return *this;
}

SourceOptions& SourceOptions::Set(const std::string& key, int64_t value) {
  return Set(key, StrCat(value));
}

bool SourceOptions::Has(const std::string& key) const {
  return entries_.count(ToLower(key)) > 0;
}

Result<std::string> SourceOptions::Get(const std::string& key) const {
  auto it = entries_.find(ToLower(key));
  if (it == entries_.end()) {
    return NotFoundError(StrCat("missing option '", key, "'"));
  }
  return it->second;
}

std::string SourceOptions::GetOr(const std::string& key,
                                 const std::string& fallback) const {
  auto it = entries_.find(ToLower(key));
  return it == entries_.end() ? fallback : it->second;
}

Result<int64_t> SourceOptions::GetInt(const std::string& key) const {
  FABRIC_ASSIGN_OR_RETURN(std::string text, Get(key));
  int64_t value = 0;
  if (!ParseInt64(text, &value)) {
    return InvalidArgumentError(
        StrCat("option '", key, "' is not an integer: '", text, "'"));
  }
  return value;
}

int64_t SourceOptions::GetIntOr(const std::string& key,
                                int64_t fallback) const {
  auto value = GetInt(key);
  return value.ok() ? *value : fallback;
}

double SourceOptions::GetDoubleOr(const std::string& key,
                                  double fallback) const {
  auto it = entries_.find(ToLower(key));
  if (it == entries_.end()) return fallback;
  double value = 0;
  if (!ParseDouble(it->second, &value)) return fallback;
  return value;
}

Result<bool> ColumnPredicate::Matches(const storage::Schema& schema,
                                      const storage::Row& row) const {
  FABRIC_ASSIGN_OR_RETURN(int idx, schema.IndexOf(column));
  const storage::Value& v = row[idx];
  if (op == Op::kIsNull) return v.is_null();
  if (op == Op::kIsNotNull) return !v.is_null();
  if (v.is_null() || literal.is_null()) return false;
  FABRIC_ASSIGN_OR_RETURN(int c, v.Compare(literal));
  return storage::ComparePasses(op, c);
}

std::string ColumnPredicate::ToSqlCondition() const {
  std::string condition = StrCat(column, " ", storage::CompareOpName(op));
  if (!storage::IsNullTest(op)) {
    condition += StrCat(" ", literal.ToSqlLiteral());
  }
  return condition;
}

bool ColumnPredicate::RoundTripsThroughSql() const {
  return storage::IsNullTest(op) || literal.is_null() ||
         literal.type() != storage::DataType::kFloat64 ||
         std::isfinite(literal.float64_value());
}

const char* AggregateFnName(AggregateFn fn) {
  switch (fn) {
    case AggregateFn::kCount:
      return "COUNT";
    case AggregateFn::kSum:
      return "SUM";
    case AggregateFn::kAvg:
      return "AVG";
    case AggregateFn::kMin:
      return "MIN";
    case AggregateFn::kMax:
      return "MAX";
    case AggregateFn::kApproxCountDistinct:
      return "APPROXIMATE_COUNT_DISTINCT";
    case AggregateFn::kHllSketch:
      return "HLL_SKETCH";
  }
  return "?";
}

bool IsSketchFn(AggregateFn fn) {
  return fn == AggregateFn::kApproxCountDistinct ||
         fn == AggregateFn::kHllSketch;
}

std::string AggregateCall::ToSqlExpr() const {
  if (IsSketchFn(fn)) {
    // Render the precision explicitly so the pushed query sketches with
    // exactly the registers the Spark-side combine would build.
    return StrCat(AggregateFnName(fn), "(", column, ", ", precision, ")");
  }
  return StrCat(AggregateFnName(fn), "(", column.empty() ? "*" : column,
                ")");
}

const char* SaveModeName(SaveMode mode) {
  switch (mode) {
    case SaveMode::kOverwrite:
      return "Overwrite";
    case SaveMode::kAppend:
      return "Append";
    case SaveMode::kErrorIfExists:
      return "ErrorIfExists";
  }
  return "?";
}

}  // namespace fabric::spark
