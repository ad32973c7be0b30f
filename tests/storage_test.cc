#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/encoding.h"
#include "storage/schema.h"
#include "storage/segment_store.h"
#include "storage/value.h"

namespace fabric::storage {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"score", DataType::kFloat64},
                 {"name", DataType::kVarchar},
                 {"flag", DataType::kBool}});
}

Row MakeRow(int64_t id, double score, const std::string& name, bool flag) {
  return {Value::Int64(id), Value::Float64(score), Value::Varchar(name),
          Value::Bool(flag)};
}

TEST(ValueTest, NullSemantics) {
  Value null = Value::Null();
  EXPECT_TRUE(null.is_null());
  EXPECT_TRUE(null.Equals(Value::Null()));
  EXPECT_FALSE(null.Equals(Value::Int64(0)));
  EXPECT_EQ(null.RawSize(), 0);
  EXPECT_EQ(null.ToSqlLiteral(), "NULL");
}

TEST(ValueTest, TypedAccessorsAndSizes) {
  EXPECT_EQ(Value::Int64(7).int64_value(), 7);
  EXPECT_EQ(Value::Float64(2.5).float64_value(), 2.5);
  EXPECT_EQ(Value::Varchar("abc").varchar_value(), "abc");
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Int64(7).RawSize(), 8);
  EXPECT_EQ(Value::Float64(1.0).RawSize(), 8);
  EXPECT_EQ(Value::Varchar("abcd").RawSize(), 4);
  EXPECT_EQ(Value::Bool(false).RawSize(), 1);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_TRUE(Value::Int64(1).Equals(Value::Float64(1.0)));
  EXPECT_EQ(Value::Int64(1).Compare(Value::Float64(1.5)).value(), -1);
  EXPECT_EQ(Value::Float64(2.0).Compare(Value::Int64(2)).value(), 0);
}

TEST(ValueTest, IntegersCompareExactlyAndNaNHasOnePlace) {
  const int64_t big = int64_t{1} << 53;  // big + 1 has no double
  EXPECT_EQ(Value::Int64(big).Compare(Value::Int64(big + 1)).value(), -1);
  EXPECT_EQ(Value::Int64(big + 1).Compare(Value::Int64(big)).value(), 1);
  // Across types both sides go through double, as SQL coercion does.
  EXPECT_EQ(Value::Int64(big + 1)
                .Compare(Value::Float64(static_cast<double>(big)))
                .value(),
            0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Value::Float64(nan).Compare(Value::Float64(-nan)).value(), 0);
  EXPECT_EQ(Value::Float64(nan).Compare(Value::Float64(1e308)).value(), 1);
  EXPECT_EQ(Value::Int64(big).Compare(Value::Float64(nan)).value(), -1);
  EXPECT_EQ(Value::Float64(-0.0).Compare(Value::Float64(0.0)).value(), 0);
  EXPECT_EQ(Value::Float64(nan).SegmentationHash(),
            Value::Float64(-nan).SegmentationHash());
}

TEST(ValueTest, VarcharComparison) {
  EXPECT_EQ(Value::Varchar("a").Compare(Value::Varchar("b")).value(), -1);
  EXPECT_FALSE(Value::Varchar("1").Compare(Value::Int64(1)).ok());
}

TEST(ValueTest, NullsSortFirst) {
  EXPECT_EQ(Value::Null().Compare(Value::Int64(-100)).value(), -1);
  EXPECT_EQ(Value::Int64(-100).Compare(Value::Null()).value(), 1);
  EXPECT_EQ(Value::Null().Compare(Value::Null()).value(), 0);
}

TEST(ValueTest, SqlLiteralQuoting) {
  EXPECT_EQ(Value::Varchar("it's").ToSqlLiteral(), "'it''s'");
  EXPECT_EQ(Value::Int64(-3).ToSqlLiteral(), "-3");
  EXPECT_EQ(Value::Bool(true).ToSqlLiteral(), "TRUE");
}

TEST(ValueTest, ParseAsRoundTrip) {
  EXPECT_EQ(Value::ParseAs(DataType::kInt64, "42")->int64_value(), 42);
  EXPECT_EQ(Value::ParseAs(DataType::kFloat64, "2.5")->float64_value(), 2.5);
  EXPECT_EQ(Value::ParseAs(DataType::kVarchar, "hi")->varchar_value(), "hi");
  EXPECT_TRUE(Value::ParseAs(DataType::kBool, "TRUE")->bool_value());
  EXPECT_FALSE(Value::ParseAs(DataType::kInt64, "4x").ok());
}

TEST(ValueTest, ParseDataTypeNames) {
  EXPECT_EQ(*ParseDataType("INTEGER"), DataType::kInt64);
  EXPECT_EQ(*ParseDataType("varchar(80)"), DataType::kVarchar);
  EXPECT_EQ(*ParseDataType("Double"), DataType::kFloat64);
  EXPECT_EQ(*ParseDataType("BOOLEAN"), DataType::kBool);
  EXPECT_FALSE(ParseDataType("blob").ok());
}

TEST(SchemaTest, LookupIsCaseInsensitive) {
  Schema schema = TestSchema();
  EXPECT_EQ(*schema.IndexOf("ID"), 0);
  EXPECT_EQ(*schema.IndexOf("Name"), 2);
  EXPECT_FALSE(schema.IndexOf("missing").ok());
  EXPECT_TRUE(schema.Contains("flag"));
}

TEST(SchemaTest, ProjectionPreservesOrder) {
  Schema projected = TestSchema().Project({2, 0});
  ASSERT_EQ(projected.num_columns(), 2);
  EXPECT_EQ(projected.column(0).name, "name");
  EXPECT_EQ(projected.column(1).name, "id");
}

TEST(SchemaTest, DdlBody) {
  EXPECT_EQ(TestSchema().ToDdlBody(),
            "id INTEGER, score FLOAT, name VARCHAR, flag BOOLEAN");
}

TEST(SchemaTest, ValidateRow) {
  Schema schema = TestSchema();
  EXPECT_TRUE(ValidateRow(schema, MakeRow(1, 2.0, "x", true)).ok());
  // Int into float column widens.
  Row widened = {Value::Int64(1), Value::Int64(2), Value::Varchar("x"),
                 Value::Bool(true)};
  EXPECT_TRUE(ValidateRow(schema, widened).ok());
  // Nulls pass.
  Row nulls = {Value::Null(), Value::Null(), Value::Null(), Value::Null()};
  EXPECT_TRUE(ValidateRow(schema, nulls).ok());
  // Type mismatch fails.
  Row bad = {Value::Varchar("1"), Value::Float64(2), Value::Varchar("x"),
             Value::Bool(true)};
  EXPECT_FALSE(ValidateRow(schema, bad).ok());
  // Arity mismatch fails.
  EXPECT_FALSE(ValidateRow(schema, {Value::Int64(1)}).ok());
}

TEST(SchemaTest, SegmentationHashIsOrderSensitive) {
  Row row = MakeRow(1, 2.0, "x", true);
  EXPECT_NE(RowSegmentationHash(row, {0, 1}), RowSegmentationHash(row, {1, 0}));
  EXPECT_EQ(RowSegmentationHash(row, {0, 1}), RowSegmentationHash(row, {0, 1}));
}

std::vector<Value> Int64Column(const std::vector<int64_t>& v) {
  std::vector<Value> out;
  for (int64_t x : v) out.push_back(Value::Int64(x));
  return out;
}

TEST(EncodingTest, PlainRoundTripAllTypes) {
  for (DataType type : {DataType::kBool, DataType::kInt64,
                        DataType::kFloat64, DataType::kVarchar}) {
    std::vector<Value> values;
    for (int i = 0; i < 10; ++i) {
      switch (type) {
        case DataType::kBool:
          values.push_back(Value::Bool(i % 2 == 0));
          break;
        case DataType::kInt64:
          values.push_back(Value::Int64(i * 1000 - 5));
          break;
        case DataType::kFloat64:
          values.push_back(Value::Float64(i * 0.125));
          break;
        case DataType::kVarchar:
          values.push_back(Value::Varchar(std::string(i, 'x')));
          break;
      }
    }
    values.push_back(Value::Null());
    auto chunk = EncodeColumnAs(type, Encoding::kPlain, values);
    ASSERT_TRUE(chunk.ok());
    auto decoded = DecodeColumn(*chunk);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded->size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_TRUE((*decoded)[i].Equals(values[i]));
    }
  }
}

TEST(EncodingTest, RleCompressesRuns) {
  std::vector<Value> values;
  for (int run = 0; run < 5; ++run) {
    for (int i = 0; i < 100; ++i) values.push_back(Value::Int64(run));
  }
  auto plain = EncodeColumnAs(DataType::kInt64, Encoding::kPlain, values);
  auto rle = EncodeColumnAs(DataType::kInt64, Encoding::kRle, values);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(rle.ok());
  EXPECT_LT(rle->data.size() * 10, plain->data.size());
  auto decoded = DecodeColumn(*rle);
  ASSERT_TRUE(decoded.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE((*decoded)[i].Equals(values[i]));
  }
}

TEST(EncodingTest, DictionaryCompressesLowCardinalityStrings) {
  std::vector<Value> values;
  const std::vector<std::string> words = {"alpha", "beta", "gamma"};
  for (int i = 0; i < 300; ++i) {
    values.push_back(Value::Varchar(words[i % words.size()]));
  }
  auto plain = EncodeColumnAs(DataType::kVarchar, Encoding::kPlain, values);
  auto dict =
      EncodeColumnAs(DataType::kVarchar, Encoding::kDictionary, values);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(dict.ok());
  EXPECT_LT(dict->data.size(), plain->data.size());
  auto decoded = DecodeColumn(*dict);
  ASSERT_TRUE(decoded.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE((*decoded)[i].Equals(values[i]));
  }
}

TEST(EncodingTest, AutoPickerNeverWorseThanPlain) {
  Rng rng(42);
  std::vector<Value> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(Value::Int64(static_cast<int64_t>(rng.NextUint64(4))));
  }
  auto chosen = EncodeColumn(DataType::kInt64, values);
  auto plain = EncodeColumnAs(DataType::kInt64, Encoding::kPlain, values);
  ASSERT_TRUE(chosen.ok());
  EXPECT_LE(chosen->data.size(), plain->data.size());
}

TEST(EncodingTest, RejectsMixedTypes) {
  std::vector<Value> values = {Value::Int64(1), Value::Varchar("x")};
  EXPECT_FALSE(EncodeColumn(DataType::kInt64, values).ok());
}

TEST(EncodingTest, NullRunsRoundTrip) {
  std::vector<Value> values;
  for (int i = 0; i < 20; ++i) values.push_back(Value::Null());
  values.push_back(Value::Int64(1));
  for (Encoding e :
       {Encoding::kPlain, Encoding::kRle, Encoding::kDictionary}) {
    auto chunk = EncodeColumnAs(DataType::kInt64, e, values);
    ASSERT_TRUE(chunk.ok()) << EncodingName(e);
    auto decoded = DecodeColumn(*chunk);
    ASSERT_TRUE(decoded.ok()) << EncodingName(e);
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_TRUE((*decoded)[i].Equals(values[i])) << EncodingName(e);
    }
  }
}

// Property sweep: random typed columns round-trip through every encoding.
class EncodingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncodingPropertyTest, RandomColumnsRoundTrip) {
  Rng rng(GetParam());
  for (DataType type : {DataType::kBool, DataType::kInt64,
                        DataType::kFloat64, DataType::kVarchar}) {
    std::vector<Value> values;
    int n = 1 + static_cast<int>(rng.NextUint64(300));
    for (int i = 0; i < n; ++i) {
      if (rng.NextBool(0.1)) {
        values.push_back(Value::Null());
        continue;
      }
      switch (type) {
        case DataType::kBool:
          values.push_back(Value::Bool(rng.NextBool(0.5)));
          break;
        case DataType::kInt64:
          values.push_back(Value::Int64(rng.NextInt64(-5, 5)));
          break;
        case DataType::kFloat64:
          values.push_back(Value::Float64(rng.NextDouble()));
          break;
        case DataType::kVarchar:
          values.push_back(
              Value::Varchar(rng.NextString(static_cast<int>(rng.NextUint64(12)))));
          break;
      }
    }
    for (Encoding e :
         {Encoding::kPlain, Encoding::kRle, Encoding::kDictionary}) {
      auto chunk = EncodeColumnAs(type, e, values);
      ASSERT_TRUE(chunk.ok());
      auto decoded = DecodeColumn(*chunk);
      ASSERT_TRUE(decoded.ok());
      ASSERT_EQ(decoded->size(), values.size());
      for (size_t i = 0; i < values.size(); ++i) {
        ASSERT_TRUE((*decoded)[i].Equals(values[i]))
            << EncodingName(e) << " row " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingPropertyTest,
                         ::testing::Values(7, 17, 27, 37, 47));

TEST(RosContainerTest, CreateComputesStats) {
  Schema schema = TestSchema();
  std::vector<Row> rows = {MakeRow(3, 1.0, "abc", true),
                           MakeRow(1, 2.0, "zz", false),
                           MakeRow(2, -1.0, "m", true)};
  auto ros = RosContainer::Create(schema, rows, /*txn=*/1);
  ASSERT_TRUE(ros.ok());
  EXPECT_EQ(ros->num_rows(), 3u);
  EXPECT_FALSE(ros->committed());
  EXPECT_EQ(ros->min_value(0).int64_value(), 1);
  EXPECT_EQ(ros->max_value(0).int64_value(), 3);
  EXPECT_EQ(ros->min_value(1).float64_value(), -1.0);
  EXPECT_EQ(ros->min_value(2).varchar_value(), "abc");
  // raw: 3 rows * (8 + 8 + len + 1)
  EXPECT_DOUBLE_EQ(ros->raw_bytes(), (17 + 3) + (17 + 2) + (17 + 1));
  auto decoded = ros->DecodeRows();
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(RowsEqual((*decoded)[1], rows[1]));
}

class SegmentStoreTest : public ::testing::Test {
 protected:
  SegmentStoreTest() : store_(TestSchema()) {}
  SegmentStore store_;
};

TEST_F(SegmentStoreTest, PendingRowsInvisibleToOthers) {
  ASSERT_TRUE(store_.InsertPending(10, {MakeRow(1, 1.0, "a", true)}).ok());
  EXPECT_EQ(store_.CountVisible(100, /*txn=*/0).value(), 0);
  EXPECT_EQ(store_.CountVisible(100, /*txn=*/10).value(), 1);
  EXPECT_EQ(store_.CountVisible(100, /*txn=*/11).value(), 0);
}

TEST_F(SegmentStoreTest, CommitMakesRowsVisibleAtEpoch) {
  ASSERT_TRUE(store_.InsertPending(10, {MakeRow(1, 1.0, "a", true)}).ok());
  store_.CommitTxn(10, /*epoch=*/5);
  EXPECT_EQ(store_.CountVisible(4).value(), 0);   // before commit epoch
  EXPECT_EQ(store_.CountVisible(5).value(), 1);   // at commit epoch
  EXPECT_EQ(store_.CountVisible(99).value(), 1);  // after
}

TEST_F(SegmentStoreTest, AbortDiscardsPendingRows) {
  ASSERT_TRUE(store_.InsertPending(10, {MakeRow(1, 1.0, "a", true)}).ok());
  ASSERT_TRUE(store_.InsertPendingDirect(10, {MakeRow(2, 2.0, "b", false)})
                  .ok());
  store_.AbortTxn(10);
  EXPECT_EQ(store_.CountVisible(100, 10).value(), 0);
  EXPECT_EQ(store_.num_wos_batches(), 0);
  EXPECT_EQ(store_.num_ros_containers(), 0);
}

TEST_F(SegmentStoreTest, DeleteRespectsEpochSnapshots) {
  ASSERT_TRUE(store_.InsertPending(10, {MakeRow(1, 1.0, "a", true),
                                        MakeRow(2, 2.0, "b", false)})
                  .ok());
  store_.CommitTxn(10, 5);
  // Delete id=1 in txn 11, committed at epoch 7.
  auto deleted = store_.DeletePending(11, 6, [](const Row& row) {
    return row[0].int64_value() == 1;
  });
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1);
  // Before txn 11 commits, other readers still see both rows.
  EXPECT_EQ(store_.CountVisible(6).value(), 2);
  // The deleting txn no longer sees the row.
  EXPECT_EQ(store_.CountVisible(6, 11).value(), 1);
  store_.CommitTxn(11, 7);
  EXPECT_EQ(store_.CountVisible(6).value(), 2);  // old epoch: still there
  EXPECT_EQ(store_.CountVisible(7).value(), 1);  // new epoch: gone
}

TEST_F(SegmentStoreTest, DeleteAbortRestoresRow) {
  ASSERT_TRUE(store_.InsertPending(10, {MakeRow(1, 1.0, "a", true)}).ok());
  store_.CommitTxn(10, 5);
  ASSERT_TRUE(store_.DeletePending(11, 5, [](const Row&) { return true; })
                  .ok());
  store_.AbortTxn(11);
  EXPECT_EQ(store_.CountVisible(5).value(), 1);
}

TEST_F(SegmentStoreTest, MoveoutPreservesEpochVisibility) {
  ASSERT_TRUE(store_.InsertPending(10, {MakeRow(1, 1.0, "a", true)}).ok());
  store_.CommitTxn(10, 5);
  ASSERT_TRUE(store_.InsertPending(11, {MakeRow(2, 2.0, "b", false)}).ok());
  store_.CommitTxn(11, 8);
  ASSERT_TRUE(store_.InsertPending(12, {MakeRow(3, 3.0, "c", true)}).ok());
  // txn 12 still pending through moveout.
  ASSERT_TRUE(store_.Moveout().ok());
  EXPECT_EQ(store_.num_wos_batches(), 1);      // the pending batch stays
  // Both committed batches fold into one container; per-row epochs keep
  // AT EPOCH visibility exact.
  EXPECT_EQ(store_.num_ros_containers(), 1);
  EXPECT_EQ(store_.CountVisible(5).value(), 1);
  EXPECT_EQ(store_.CountVisible(8).value(), 2);
  EXPECT_EQ(store_.CountVisible(8, 12).value(), 3);
  store_.CommitTxn(12, 9);
  EXPECT_EQ(store_.CountVisible(9).value(), 3);
}

TEST_F(SegmentStoreTest, MoveoutKeepsDeleteMarks) {
  ASSERT_TRUE(store_.InsertPending(10, {MakeRow(1, 1.0, "a", true),
                                        MakeRow(2, 2.0, "b", false)})
                  .ok());
  store_.CommitTxn(10, 5);
  ASSERT_TRUE(store_.DeletePending(11, 5, [](const Row& row) {
                     return row[0].int64_value() == 2;
                   }).ok());
  store_.CommitTxn(11, 6);
  ASSERT_TRUE(store_.Moveout().ok());
  EXPECT_EQ(store_.CountVisible(5).value(), 2);
  EXPECT_EQ(store_.CountVisible(6).value(), 1);
}

TEST_F(SegmentStoreTest, MergeRosContainersPreservesEpochVisibility) {
  // Two DIRECT loads committed at different epochs, one later delete.
  ASSERT_TRUE(
      store_.InsertPendingDirect(10, {MakeRow(1, 1.0, "a", true)}).ok());
  store_.CommitTxn(10, 5);
  ASSERT_TRUE(
      store_.InsertPendingDirect(11, {MakeRow(2, 2.0, "b", false)}).ok());
  store_.CommitTxn(11, 8);
  ASSERT_TRUE(store_.DeletePending(12, 8, [](const Row& row) {
                     return row[0].int64_value() == 1;
                   }).ok());
  store_.CommitTxn(12, 9);
  uint64_t fingerprint = store_.ContentFingerprint();
  auto merged = store_.MergeRosContainers({0, 1});
  ASSERT_TRUE(merged.ok());
  EXPECT_GT(*merged, 0.0);
  EXPECT_EQ(store_.num_ros_containers(), 1);
  // Mergeout is content-preserving: the layout-blind fingerprint and all
  // AT EPOCH reads are unchanged.
  EXPECT_EQ(store_.ContentFingerprint(), fingerprint);
  EXPECT_EQ(store_.CountVisible(5).value(), 1);
  EXPECT_EQ(store_.CountVisible(8).value(), 2);
  EXPECT_EQ(store_.CountVisible(9).value(), 1);
}

TEST_F(SegmentStoreTest, MergeRejectsUncommittedContainers) {
  ASSERT_TRUE(
      store_.InsertPendingDirect(10, {MakeRow(1, 1.0, "a", true)}).ok());
  store_.CommitTxn(10, 5);
  ASSERT_TRUE(
      store_.InsertPendingDirect(11, {MakeRow(2, 2.0, "b", false)}).ok());
  EXPECT_FALSE(store_.MergeRosContainers({0, 1}).ok());
}

TEST_F(SegmentStoreTest, PurgeDropsOnlyAncientDeletes) {
  ASSERT_TRUE(store_.InsertPending(10, {MakeRow(1, 1.0, "a", true),
                                        MakeRow(2, 2.0, "b", false)})
                  .ok());
  store_.CommitTxn(10, 5);
  ASSERT_TRUE(store_.Moveout().ok());
  ASSERT_TRUE(store_.DeletePending(11, 5, [](const Row& row) {
                     return row[0].int64_value() == 1;
                   }).ok());
  store_.CommitTxn(11, 6);
  ASSERT_TRUE(store_.DeletePending(12, 8, [](const Row& row) {
                     return row[0].int64_value() == 2;
                   }).ok());
  store_.CommitTxn(12, 9);
  // AHM = 7: only the delete committed at epoch 6 is ancient history.
  auto purged = store_.PurgeDeletedRows(7);
  ASSERT_TRUE(purged.ok());
  EXPECT_EQ(*purged, 1);
  // Every read at or above the AHM is unchanged by the purge.
  EXPECT_EQ(store_.CountVisible(7).value(), 1);
  EXPECT_EQ(store_.CountVisible(8).value(), 1);
  EXPECT_EQ(store_.CountVisible(9).value(), 0);
  // Raising the AHM past the second delete reclaims the last row; the
  // empty container is dropped.
  purged = store_.PurgeDeletedRows(9);
  ASSERT_TRUE(purged.ok());
  EXPECT_EQ(*purged, 1);
  EXPECT_EQ(store_.num_ros_containers(), 0);
}

TEST_F(SegmentStoreTest, SnapshotRowsMaterializesVisibleRows) {
  ASSERT_TRUE(store_.InsertPending(10, {MakeRow(1, 1.0, "a", true)}).ok());
  store_.CommitTxn(10, 5);
  auto rows = store_.SnapshotRows(5);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_TRUE(RowsEqual((*rows)[0], MakeRow(1, 1.0, "a", true)));
}

TEST_F(SegmentStoreTest, StatsTrackBytes) {
  ASSERT_TRUE(store_.InsertPending(10, {MakeRow(1, 1.0, "abc", true)}).ok());
  store_.CommitTxn(10, 1);
  EXPECT_DOUBLE_EQ(store_.TotalRawBytes(), 8 + 8 + 3 + 1);
  EXPECT_GT(store_.TotalEncodedBytes(), 0);
}

}  // namespace
}  // namespace fabric::storage
