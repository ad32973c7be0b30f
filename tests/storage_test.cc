#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "seed_env.h"

#include "common/random.h"
#include "common/string_util.h"
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

// Bit-level identity: null matches null, and a FLOAT matches only its own
// bit pattern (-0.0 is not 0.0, and a NaN keeps its sign).
bool SameBits(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() != b.type()) return false;
  if (a.type() != DataType::kFloat64) return a.Equals(b);
  const double x = a.float64_value();
  const double y = b.float64_value();
  return std::memcmp(&x, &y, sizeof(x)) == 0;
}

void ExpectRoundTrip(const ColumnChunk& chunk,
                     const std::vector<Value>& values) {
  auto decoded = DecodeColumn(chunk);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(SameBits((*decoded)[i], values[i]))
        << EncodingName(chunk.encoding) << " row " << i << ": "
        << (*decoded)[i].ToDisplayString() << " vs "
        << values[i].ToDisplayString();
  }
}

constexpr Encoding kEncodings[] = {Encoding::kPlain, Encoding::kRle,
                                   Encoding::kDictionary};

// -0.0 and 0.0, and NaN of either sign, are four values to the encoder:
// RLE must not fold -0.0 into a run of 0.0 (`==` would), and the
// dictionary keeps one entry each.
TEST(EncodingTest, SignedZerosAndNaNsRoundTripBitForBit) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Value> values;
  for (double d : {0.0, -0.0, 0.0, 0.0, nan, -nan, -nan, nan, -0.0, -0.0}) {
    values.push_back(Value::Float64(d));
  }
  values.push_back(Value::Null());
  for (Encoding e : kEncodings) {
    auto chunk = EncodeColumnAs(DataType::kFloat64, e, values);
    ASSERT_TRUE(chunk.ok()) << EncodingName(e);
    ExpectRoundTrip(*chunk, values);
  }
  auto chosen = EncodeColumn(DataType::kFloat64, values);
  ASSERT_TRUE(chosen.ok());
  ExpectRoundTrip(*chosen, values);

  // The run count and the dictionary size follow right after the null
  // bitmap: 0 | -0 | 0 0 | nan | -nan -nan | nan | -0 -0 | NULL, and
  // {0, -0, nan, -nan}.
  auto count_after_bitmap = [&](Encoding e) {
    auto chunk = EncodeColumnAs(DataType::kFloat64, e, values);
    uint32_t count = 0;
    std::memcpy(&count, chunk->data.data() + NullBitmapBytes(11),
                sizeof(count));
    return count;
  };
  EXPECT_EQ(count_after_bitmap(Encoding::kRle), 8u);
  EXPECT_EQ(count_after_bitmap(Encoding::kDictionary), 4u);
}

// Exact ties keep the three-way trial's order: PLAIN over RLE and
// DICTIONARY, RLE over DICTIONARY.
TEST(EncodingTest, TiesKeepTheTrialOrder) {
  const std::string b8(8, 'b');
  struct Case {
    DataType type;
    std::vector<Value> values;
    Encoding tied_with;
    Encoding expected;
  };
  const std::vector<Case> cases = {
      {DataType::kInt64, Int64Column({5, 5}), Encoding::kRle,
       Encoding::kPlain},
      {DataType::kInt64, Int64Column({1, 2, 1, 2, 1}),
       Encoding::kDictionary, Encoding::kPlain},
      {DataType::kVarchar,
       {Value::Varchar(""), Value::Varchar(b8), Value::Varchar(b8),
        Value::Varchar(b8), Value::Varchar(""), Value::Varchar(b8),
        Value::Varchar(b8), Value::Varchar(b8)},
       Encoding::kDictionary, Encoding::kRle},
  };
  for (const Case& c : cases) {
    auto expected = EncodeColumnAs(c.type, c.expected, c.values);
    auto tied = EncodeColumnAs(c.type, c.tied_with, c.values);
    ASSERT_TRUE(expected.ok() && tied.ok());
    ASSERT_EQ(expected->data.size(), tied->data.size());
    auto chosen = EncodeColumn(c.type, c.values);
    ASSERT_TRUE(chosen.ok());
    EXPECT_EQ(chosen->encoding, c.expected)
        << EncodingName(chosen->encoding) << " vs "
        << EncodingName(c.expected);
  }
}

// A random column of `type` with nulls, ±0.0, NaN of both signs,
// infinities, integer extremes, empty strings, runs, and low or high
// cardinality, mixed in proportions drawn per column.
std::vector<Value> RandomColumn(Rng& rng, DataType type, size_t n) {
  const double null_p = std::vector<double>{0, 0.05, 0.3, 1}[rng.NextUint64(4)];
  const size_t cardinality =
      std::vector<size_t>{1, 3, 16, 0}[rng.NextUint64(4)];  // 0: high
  const size_t run = std::vector<size_t>{1, 1, 4, 32}[rng.NextUint64(4)];
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto fresh = [&]() -> Value {
    switch (type) {
      case DataType::kBool:
        return Value::Bool(rng.NextBool(0.5));
      case DataType::kInt64:
        if (rng.NextBool(0.1)) {
          return Value::Int64(std::vector<int64_t>{
              0, -1, std::numeric_limits<int64_t>::min(),
              std::numeric_limits<int64_t>::max()}[rng.NextUint64(4)]);
        }
        return Value::Int64(rng.NextInt64(-1000, 1000));
      case DataType::kFloat64:
        if (rng.NextBool(0.3)) {
          return Value::Float64(std::vector<double>{
              0.0, -0.0, nan, -nan, inf, -inf}[rng.NextUint64(6)]);
        }
        return Value::Float64(rng.NextDouble() * 200 - 100);
      case DataType::kVarchar:
        if (rng.NextBool(0.2)) return Value::Varchar("");
        return Value::Varchar(
            rng.NextString(static_cast<int>(rng.NextUint64(9))));
    }
    return Value::Null();
  };
  std::vector<Value> pool;
  for (size_t i = 0; i < cardinality; ++i) pool.push_back(fresh());
  std::vector<Value> out;
  while (out.size() < n) {
    Value v = rng.NextBool(null_p) ? Value::Null()
              : pool.empty()       ? fresh()
                                   : pool[rng.NextUint64(pool.size())];
    for (size_t k = 0; k < run && out.size() < n; ++k) out.push_back(v);
  }
  return out;
}

constexpr DataType kTypes[] = {DataType::kBool, DataType::kInt64,
                               DataType::kFloat64, DataType::kVarchar};

// EncodeColumn measures every encoding in one pass and writes only the
// winner; that winner must be exactly the chunk the three-way trial
// would keep (smallest, ties to PLAIN then RLE), and every encoding must
// decode back to the input bit for bit.
TEST(EncodingTest, OnePassChoiceMatchesSmallestForcedEncoding) {
  for (uint64_t seed : fabric::testing::PropertySeeds("TM_SEED")) {
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed);
    for (int trial = 0; trial < 300; ++trial) {
      const DataType type = kTypes[rng.NextUint64(4)];
      const std::vector<Value> values =
          RandomColumn(rng, type, rng.NextUint64(600));
      SCOPED_TRACE(StrCat("trial ", trial, " ", DataTypeName(type), " x",
                          values.size()));
      std::vector<ColumnChunk> forced;
      for (Encoding e : kEncodings) {
        auto chunk = EncodeColumnAs(type, e, values);
        ASSERT_TRUE(chunk.ok()) << chunk.status();
        ExpectRoundTrip(*chunk, values);
        forced.push_back(std::move(*chunk));
      }
      const ColumnChunk* best = &forced[0];
      for (const ColumnChunk& chunk : forced) {
        if (chunk.data.size() < best->data.size()) best = &chunk;
      }
      auto chosen = EncodeColumn(type, values);
      ASSERT_TRUE(chosen.ok()) << chosen.status();
      EXPECT_EQ(chosen->encoding, best->encoding);
      EXPECT_EQ(chosen->num_rows, best->num_rows);
      EXPECT_TRUE(chosen->data == best->data);
    }
  }
}

// ---------------------------------------- column-wise mergeout and purge

Schema MixedSchema() {
  return Schema({{"k", DataType::kInt64},
                 {"x", DataType::kFloat64},
                 {"s", DataType::kVarchar},
                 {"b", DataType::kBool}});
}

std::vector<Row> RandomRows(Rng& rng, const Schema& schema, size_t n) {
  std::vector<Row> rows(n);
  for (int c = 0; c < schema.num_columns(); ++c) {
    std::vector<Value> column = RandomColumn(rng, schema.column(c).type, n);
    for (size_t i = 0; i < n; ++i) rows[i].push_back(std::move(column[i]));
  }
  return rows;
}

// A container's rows with what travels beside them.
struct Contents {
  std::vector<Row> rows;
  std::vector<DeleteMark> marks;
  std::vector<Epoch> epochs;
};

void AppendContents(const RosContainer& c, Contents* out) {
  auto rows = c.DecodeRows();
  ASSERT_TRUE(rows.ok()) << rows.status();
  for (uint32_t i = 0; i < c.num_rows(); ++i) {
    out->rows.push_back((*rows)[i]);
    out->marks.push_back(c.delete_marks()[i]);
    out->epochs.push_back(c.row_epoch(i));
  }
}

// The row-at-a-time reference: RosContainer::Create over the rows, with
// their epochs and delete marks adopted.
RosContainer ReferenceContainer(const Schema& schema,
                                const PhysicalDesign& design,
                                Contents contents) {
  auto ref = RosContainer::Create(
      schema, contents.rows, /*txn=*/1,
      design.encodings.empty() ? nullptr : &design.encodings);
  EXPECT_TRUE(ref.ok()) << ref.status();
  ref->AdoptRowEpochs(std::move(contents.epochs));
  ref->mutable_delete_marks() = std::move(contents.marks);
  return std::move(*ref);
}

void ExpectSameContainer(const RosContainer& got, const RosContainer& want,
                         int num_columns) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  EXPECT_EQ(got.committed(), want.committed());
  EXPECT_EQ(got.raw_bytes(), want.raw_bytes());
  EXPECT_EQ(got.commit_epoch(), want.commit_epoch());
  EXPECT_EQ(got.min_epoch(), want.min_epoch());
  for (int c = 0; c < num_columns; ++c) {
    SCOPED_TRACE(StrCat("column ", c));
    EXPECT_EQ(got.column(c).type, want.column(c).type);
    EXPECT_EQ(got.column(c).encoding, want.column(c).encoding);
    EXPECT_EQ(got.column(c).num_rows, want.column(c).num_rows);
    EXPECT_TRUE(got.column(c).data == want.column(c).data);
    EXPECT_TRUE(SameBits(got.min_value(c), want.min_value(c)));
    EXPECT_TRUE(SameBits(got.max_value(c), want.max_value(c)));
  }
  for (uint32_t i = 0; i < got.num_rows(); ++i) {
    EXPECT_EQ(got.row_epoch(i), want.row_epoch(i)) << "row " << i;
    const DeleteMark& a = got.delete_marks()[i];
    const DeleteMark& b = want.delete_marks()[i];
    EXPECT_TRUE(a.state == b.state && a.epoch == b.epoch && a.txn == b.txn)
        << "row " << i;
  }
}

// Mergeout and purge rewrite containers column by column; the result must
// be byte-identical to RosContainer::Create over the decoded rows —
// every chunk, min/max, raw bytes, row epochs and delete marks — for
// unsorted, sorted and force-encoded designs, with mixed-epoch inputs
// and committed and pending deletes.
TEST(ColumnwiseRewriteTest, MergeAndPurgeMatchCreateOverDecodedRows) {
  const Schema schema = MixedSchema();
  std::vector<PhysicalDesign> designs(4);
  designs[1].sort_columns = {2, 0};
  designs[2].sort_columns = {1};
  designs[3].sort_columns = {3, 1};
  designs[3].encodings = {Encoding::kRle, Encoding::kPlain,
                          Encoding::kDictionary, Encoding::kRle};
  for (uint64_t seed : fabric::testing::PropertySeeds("TM_SEED")) {
    for (size_t d = 0; d < designs.size(); ++d) {
      SCOPED_TRACE(StrCat("seed ", seed, " design ", d));
      const PhysicalDesign& design = designs[d];
      Rng rng(seed * 31 + d);
      SegmentStore store(schema, design);
      Epoch epoch = 1;
      TxnId txn = 10;
      auto rows = [&] {
        return RandomRows(rng, schema, 1 + rng.NextUint64(200));
      };
      for (int j = 0; j < 4; ++j) {
        ASSERT_TRUE(store.InsertPendingDirect(txn, rows()).ok());
        store.CommitTxn(txn++, ++epoch);
      }
      // A mixed-epoch container: two WOS batches moved out together.
      for (int j = 0; j < 2; ++j) {
        ASSERT_TRUE(store.InsertPending(txn, rows()).ok());
        store.CommitTxn(txn++, ++epoch);
      }
      ASSERT_TRUE(store.Moveout().ok());
      auto some = [&](double p) {
        return [&rng, p](const Row&) { return rng.NextBool(p); };
      };
      // Deletes committed at or below the AHM, one committed above it,
      // and one still pending.
      ASSERT_TRUE(store.DeletePending(txn, epoch, some(0.2)).ok());
      store.CommitTxn(txn++, ++epoch);
      const Epoch ahm = epoch;
      ASSERT_TRUE(store.DeletePending(txn, epoch, some(0.2)).ok());
      store.CommitTxn(txn++, ++epoch);
      ASSERT_TRUE(store.DeletePending(txn, epoch, some(0.1)).ok());
      ASSERT_EQ(store.num_ros_containers(), 5);

      // Merge a subset; the result lands at the lowest merged index.
      const std::vector<int> merged = {4, 1, 2};
      Contents inputs;
      for (int idx : {1, 2, 4}) {
        AppendContents(store.ros_container(idx), &inputs);
      }
      if (design.sorted()) {
        std::vector<uint32_t> order(inputs.rows.size());
        for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
        std::stable_sort(order.begin(), order.end(), [&](uint32_t a,
                                                          uint32_t b) {
          for (int c : design.sort_columns) {
            const Value& va = inputs.rows[a][c];
            const Value& vb = inputs.rows[b][c];
            if (va.is_null() != vb.is_null()) return va.is_null();
            if (va.is_null()) continue;
            int cmp = va.Compare(vb).value();
            if (cmp != 0) return cmp < 0;
          }
          return false;
        });
        Contents sorted;
        for (uint32_t i : order) {
          sorted.rows.push_back(inputs.rows[i]);
          sorted.marks.push_back(inputs.marks[i]);
          sorted.epochs.push_back(inputs.epochs[i]);
        }
        inputs = std::move(sorted);
      }
      double input_bytes = 0;
      for (int idx : merged) {
        input_bytes += store.ros_container(idx).raw_bytes();
      }
      RosContainer want = ReferenceContainer(schema, design, inputs);
      auto bytes = store.MergeRosContainers(merged);
      ASSERT_TRUE(bytes.ok()) << bytes.status();
      EXPECT_EQ(*bytes, input_bytes);
      ASSERT_EQ(store.num_ros_containers(), 3);
      {
        SCOPED_TRACE("merge");
        ExpectSameContainer(store.ros_container(1), want, schema.num_columns());
        EXPECT_EQ(store.ros_container(1).raw_bytes(), input_bytes);
      }

      // Purge: every container keeps its surviving rows in place.
      std::vector<RosContainer> expected;
      int64_t dropped = 0;
      for (int i = 0; i < store.num_ros_containers(); ++i) {
        Contents all;
        AppendContents(store.ros_container(i), &all);
        Contents kept;
        for (size_t r = 0; r < all.rows.size(); ++r) {
          const DeleteMark& m = all.marks[r];
          if (m.state == DeleteMark::State::kCommitted && m.epoch <= ahm) {
            ++dropped;
            continue;
          }
          kept.rows.push_back(all.rows[r]);
          kept.marks.push_back(m);
          kept.epochs.push_back(all.epochs[r]);
        }
        if (!kept.rows.empty()) {
          expected.push_back(ReferenceContainer(schema, design, kept));
        }
      }
      auto purged = store.PurgeDeletedRows(ahm);
      ASSERT_TRUE(purged.ok()) << purged.status();
      EXPECT_EQ(*purged, dropped);
      EXPECT_GT(dropped, 0);
      ASSERT_EQ(store.num_ros_containers(),
                static_cast<int>(expected.size()));
      for (size_t i = 0; i < expected.size(); ++i) {
        SCOPED_TRACE(StrCat("purge, container ", i));
        ExpectSameContainer(store.ros_container(static_cast<int>(i)),
                            expected[i], schema.num_columns());
      }
    }
  }
}

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

// Among values equal under Value::Compare, a container's min/max is the
// first one: 0.0 before -0.0, and the first NaN (NaN sorts last).
TEST(RosContainerTest, MinMaxKeepTheFirstOfEqualValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema schema({{"x", DataType::kFloat64}});
  std::vector<Row> rows;
  for (double x : {0.0, -0.0, nan, -nan}) rows.push_back({Value::Float64(x)});
  auto ros = RosContainer::Create(schema, rows, /*txn=*/1);
  ASSERT_TRUE(ros.ok());
  EXPECT_TRUE(SameBits(ros->min_value(0), Value::Float64(0.0)));
  EXPECT_TRUE(SameBits(ros->max_value(0), Value::Float64(nan)));
  std::reverse(rows.begin(), rows.end());
  ros = RosContainer::Create(schema, rows, /*txn=*/1);
  ASSERT_TRUE(ros.ok());
  EXPECT_TRUE(SameBits(ros->min_value(0), Value::Float64(-0.0)));
  EXPECT_TRUE(SameBits(ros->max_value(0), Value::Float64(-nan)));
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
