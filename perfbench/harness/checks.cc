#include "harness/checks.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/string_util.h"

namespace perfbench {

namespace {

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  // Final avalanche so that sums of hashes do not cancel structurally.
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  return hash;
}

std::string CanonicalValue(const fabric::storage::Value& value) {
  using fabric::storage::DataType;
  if (value.is_null()) return "N";
  switch (value.type()) {
    case DataType::kBool:
      return value.bool_value() ? "B1" : "B0";
    case DataType::kInt64:
      return fabric::StrCat("I", value.int64_value());
    case DataType::kFloat64: {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "F%a", value.float64_value());
      return buffer;
    }
    case DataType::kVarchar:
      return fabric::StrCat("S", value.varchar_value().size(), ":",
                            value.varchar_value());
  }
  return "?";
}

std::map<std::string, int64_t> Multiset(const std::vector<Row>& rows) {
  std::map<std::string, int64_t> counts;
  for (const Row& row : rows) ++counts[CanonicalRow(row)];
  return counts;
}

}  // namespace

std::string CanonicalRow(const Row& row) {
  std::string text = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) text += ",";
    text += CanonicalValue(row[i]);
  }
  return text + ")";
}

void RowDigest::Add(const Row& row) {
  uint64_t hash = Fnv1a(CanonicalRow(row));
  ++rows;
  sum += hash;
  xor_all ^= hash;
}

std::string RowDigest::ToString() const {
  return fabric::StrCat(rows, " rows, sum ", sum, ", xor ", xor_all);
}

RowDigest DigestOf(const std::vector<Row>& rows) {
  RowDigest digest;
  for (const Row& row : rows) digest.Add(row);
  return digest;
}

std::string CompareRowSets(const std::vector<Row>& expected,
                           const std::vector<Row>& actual) {
  if (expected.size() != actual.size()) {
    return fabric::StrCat("expected ", expected.size(), " rows, got ",
                          actual.size());
  }
  std::map<std::string, int64_t> want = Multiset(expected);
  std::map<std::string, int64_t> got = Multiset(actual);
  for (const auto& [row, count] : want) {
    auto it = got.find(row);
    int64_t have = it == got.end() ? 0 : it->second;
    if (have != count) {
      return fabric::StrCat("row ", row, " expected ", count, "x, got ",
                            have, "x");
    }
  }
  return "";
}

std::string CheckSubset(const std::vector<Row>& universe,
                        const std::vector<Row>& actual,
                        int64_t expected_count) {
  if (static_cast<int64_t>(actual.size()) != expected_count) {
    return fabric::StrCat("expected ", expected_count, " rows, got ",
                          actual.size());
  }
  std::map<std::string, int64_t> available = Multiset(universe);
  for (const Row& row : actual) {
    std::string key = CanonicalRow(row);
    auto it = available.find(key);
    if (it == available.end() || it->second == 0) {
      return fabric::StrCat("row ", key, " is not in the source data");
    }
    --it->second;
  }
  return "";
}

}  // namespace perfbench
