#ifndef PERFBENCH_HARNESS_CHECKS_H_
#define PERFBENCH_HARNESS_CHECKS_H_

// Answer checks. Every op's output is compared against a reference the
// harness computes from its own generated data; any difference makes
// the op count as failed.

#include <cstdint>
#include <string>
#include <vector>

#include "storage/schema.h"

namespace perfbench {

using fabric::storage::Row;

// Exact, type-tagged text form of a row (doubles in hex-float notation),
// so that two rows render alike only when every value is identical.
std::string CanonicalRow(const Row& row);

// Order-independent digest of a row multiset: row count plus the wrapping
// sum and the xor of per-row hashes.
struct RowDigest {
  int64_t rows = 0;
  uint64_t sum = 0;
  uint64_t xor_all = 0;

  void Add(const Row& row);
  bool operator==(const RowDigest& other) const = default;
  std::string ToString() const;
};

RowDigest DigestOf(const std::vector<Row>& rows);

// Empty when `actual` holds exactly the rows of `expected` in any order;
// otherwise a one-line description of the first difference.
std::string CompareRowSets(const std::vector<Row>& expected,
                           const std::vector<Row>& actual);

// Empty when every row of `actual` occurs in `universe` (as a multiset,
// so no row is returned more often than it exists) and there are exactly
// `expected_count` of them.
std::string CheckSubset(const std::vector<Row>& universe,
                        const std::vector<Row>& actual,
                        int64_t expected_count);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_CHECKS_H_
