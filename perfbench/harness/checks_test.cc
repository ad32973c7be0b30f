// Tests of the harness's answer checks: they must accept a correct answer
// in any row order and reject a deliberately wrong one.

#include "harness/checks.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

using fabric::storage::Value;

std::vector<Row> Answer() {
  return {{Value::Int64(1), Value::Float64(0.25), Value::Varchar("east")},
          {Value::Int64(2), Value::Float64(0.5), Value::Varchar("west")},
          {Value::Int64(2), Value::Float64(0.5), Value::Varchar("west")},
          {Value::Int64(3), Value::Null(), Value::Varchar("north")}};
}

TEST(ChecksTest, AcceptsTheSameRowsInAnyOrder) {
  std::vector<Row> shuffled = Answer();
  std::swap(shuffled[0], shuffled[3]);
  EXPECT_EQ(CompareRowSets(Answer(), shuffled), "");
  EXPECT_EQ(DigestOf(Answer()), DigestOf(shuffled));
}

TEST(ChecksTest, RejectsAChangedValue) {
  std::vector<Row> wrong = Answer();
  wrong[1][1] = Value::Float64(0.5000000000000001);
  EXPECT_NE(CompareRowSets(Answer(), wrong), "");
  EXPECT_NE(DigestOf(Answer()), DigestOf(wrong));
}

TEST(ChecksTest, RejectsAMissingOrDuplicatedRow) {
  std::vector<Row> missing = Answer();
  missing.pop_back();
  EXPECT_NE(CompareRowSets(Answer(), missing), "");
  EXPECT_NE(DigestOf(Answer()), DigestOf(missing));

  // Same size, but one duplicate replaces a distinct row.
  std::vector<Row> duplicated = Answer();
  duplicated[0] = duplicated[3];
  EXPECT_NE(CompareRowSets(Answer(), duplicated), "");
  EXPECT_NE(DigestOf(Answer()), DigestOf(duplicated));
}

TEST(ChecksTest, RejectsATypeChange) {
  std::vector<Row> wrong = Answer();
  wrong[0][0] = Value::Float64(1.0);
  EXPECT_NE(CompareRowSets(Answer(), wrong), "");
}

TEST(ChecksTest, SubsetCheckBoundsMultiplicity) {
  std::vector<Row> universe = Answer();
  EXPECT_EQ(CheckSubset(universe, {universe[1], universe[2]}, 2), "");
  // Row 0 exists once; returning it twice is wrong.
  EXPECT_NE(CheckSubset(universe, {universe[0], universe[0]}, 2), "");
  // A row that is not in the source data.
  EXPECT_NE(CheckSubset(universe, {{Value::Int64(9)}}, 1), "");
  // The right rows but the wrong count.
  EXPECT_NE(CheckSubset(universe, {universe[1]}, 2), "");
}

}  // namespace
}  // namespace perfbench
