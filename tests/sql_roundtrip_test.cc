// Property test: Expr::ToSql and ParseExpression are mutual inverses up
// to one canonicalization round. For a generated expression e:
//
//   s1 = e.ToSql();  e2 = Parse(s1);  s2 = e2.ToSql();
//   e3 = Parse(s2);  s3 = e3.ToSql();
//
// s1 may differ from s2 (the parser folds "-5" into a negative integer
// literal and re-wraps "-2.5" as a unary minus), but s2 must be a fixed
// point (s2 == s3), and e, e2, e3 must all evaluate identically under
// SQL three-valued logic. This is the property that keeps pushed-down
// predicates — which cross the connector wire as SQL text — semantically
// identical to the DataFrame filters they came from.
//
// Targeted regressions cover the holes this property shook out:
// integral FLOAT literals rendering as INTEGER text, COUNT(*) rendering
// as "COUNT()", and unary minus against a negative literal rendering as
// a "--" line comment.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "vertica/sql_ast.h"
#include "vertica/sql_eval.h"
#include "vertica/sql_parser.h"

namespace fabric::vertica::sql {
namespace {

using storage::DataType;
using storage::Row;
using storage::Schema;
using storage::Value;

// ------------------------------------------------------------ generator

const Schema& TestSchema() {
  static const Schema* schema = new Schema({{"a", DataType::kInt64},
                                            {"b", DataType::kFloat64},
                                            {"s", DataType::kVarchar},
                                            {"flag", DataType::kBool},
                                            {"hole", DataType::kInt64}});
  return *schema;
}

const Row& TestRow() {
  static const Row* row =
      new Row({Value::Int64(7), Value::Float64(-2.5),
               Value::Varchar("it's"), Value::Bool(true), Value::Null()});
  return *row;
}

Value RandomLiteral(Rng& rng) {
  switch (rng.NextInt64(0, 4)) {
    case 0: {
      static const int64_t kInts[] = {0,  1,  -1, 42, -17, 1000000007,
                                      INT64_MAX, INT64_MIN};
      return Value::Int64(kInts[rng.NextInt64(0, 7)]);
    }
    case 1: {
      // Finite doubles only: "inf"/"nan" spellings do not re-lex. The
      // integral ones (2.0, -7.0) are the ToSqlLiteral regression case.
      static const double kDoubles[] = {0.0,  2.0,    -7.0,  0.1,
                                        -2.5, 1.5e300, 1e-7, 123.456};
      return Value::Float64(kDoubles[rng.NextInt64(0, 7)]);
    }
    case 2: {
      static const char* kStrings[] = {"",          "plain",    "it's",
                                       "a'b''c",    "'leading", "trailing'",
                                       "-- not a comment", "sp ace"};
      return Value::Varchar(kStrings[rng.NextInt64(0, 7)]);
    }
    case 3:
      return Value::Bool(rng.NextBool(0.5));
    default:
      return Value::Null();
  }
}

ExprPtr RandomExpr(Rng& rng, int depth) {
  if (depth <= 0 || rng.NextBool(0.3)) {
    if (rng.NextBool(0.4)) {
      static const char* kColumns[] = {"a", "b", "s", "flag", "hole"};
      return Expr::ColumnRef(kColumns[rng.NextInt64(0, 4)]);
    }
    return Expr::Literal(RandomLiteral(rng));
  }
  switch (rng.NextInt64(0, 2)) {
    case 0: {
      const char* op = rng.NextBool(0.5) ? "-" : "NOT";
      return Expr::Unary(op, RandomExpr(rng, depth - 1));
    }
    case 1: {
      static const char* kOps[] = {"OR", "AND", "=",  "<>", "<", "<=", ">",
                                   ">=", "+",   "-",  "*",  "/", "%",  "||"};
      const char* op = kOps[rng.NextInt64(0, 13)];
      return Expr::Binary(op, RandomExpr(rng, depth - 1),
                          RandomExpr(rng, depth - 1));
    }
    default:
      return Expr::IsNull(RandomExpr(rng, depth - 1), rng.NextBool(0.5));
  }
}

// ------------------------------------------------------------ properties

// Two expressions are eval-equivalent when both error, or both succeed
// with the same (possibly NULL) value of the same type.
void ExpectSameEval(const Expr& want, const Expr& got,
                    const std::string& label) {
  EvalContext context;
  context.schema = &TestSchema();
  const Row& row = TestRow();
  context.row = &row;
  Result<Value> a = Eval(want, context);
  Result<Value> b = Eval(got, context);
  ASSERT_EQ(a.ok(), b.ok()) << label;
  if (!a.ok()) return;
  ASSERT_EQ(a->is_null(), b->is_null()) << label;
  if (a->is_null()) return;
  EXPECT_EQ(static_cast<int>(a->type()), static_cast<int>(b->type())) << label;
  EXPECT_EQ(a->ToDisplayString(), b->ToDisplayString()) << label;
}

void ExpectStableRoundTrip(const Expr& e) {
  const std::string s1 = e.ToSql();
  SCOPED_TRACE(testing::Message() << "sql " << s1);

  Result<ExprPtr> e2 = ParseExpression(s1);
  ASSERT_TRUE(e2.ok()) << e2.status().ToString();
  const std::string s2 = (*e2)->ToSql();

  Result<ExprPtr> e3 = ParseExpression(s2);
  ASSERT_TRUE(e3.ok()) << e3.status().ToString();
  const std::string s3 = (*e3)->ToSql();

  // One parse round canonicalizes; after that, rendering is a fixed
  // point.
  EXPECT_EQ(s2, s3);

  ExpectSameEval(e, **e2, "original vs first reparse");
  ExpectSameEval(e, **e3, "original vs second reparse");
}

TEST(SqlRoundTripTest, GeneratedExpressionsStabilizeAfterOneRoundTrip) {
  // INTEGER edge cases first, with their expected values: x % -1 is 0
  // (INT64_MIN % -1 traps in hardware), and a negate, ABS, +, - or *
  // whose result does not fit in 64 bits is an "integer out of range"
  // error rather than signed overflow.
  const std::string kOutOfRange = "integer out of range";
  const std::vector<std::pair<std::string, std::string>> kIntegerEdges = {
      {"(-9223372036854775807 - 1) % -1", "0"},
      {"a % -1", "0"},
      {"-9223372036854775807 - 1", "-9223372036854775808"},
      {"9223372036854775807 * -1", "-9223372036854775807"},
      {"-(-9223372036854775807 - 1)", kOutOfRange},
      {"ABS(-9223372036854775807 - 1)", kOutOfRange},
      {"9223372036854775807 + a", kOutOfRange},
      {"(-9223372036854775807 - 1) - a", kOutOfRange},
      {"4611686018427387904 * 2", kOutOfRange},
      {"(-9223372036854775807 - 1) * -1", kOutOfRange},
  };
  EvalContext context;
  context.schema = &TestSchema();
  context.row = &TestRow();
  for (const auto& [sql, want] : kIntegerEdges) {
    SCOPED_TRACE(sql);
    Result<ExprPtr> e = ParseExpression(sql);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    Result<Value> got = Eval(**e, context);
    if (want == kOutOfRange) {
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status().message(), kOutOfRange);
    } else {
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->ToDisplayString(), want);
    }
    ExpectStableRoundTrip(**e);
  }

  for (uint64_t seed : {11u, 23u, 47u}) {
    Rng rng(seed);
    for (int i = 0; i < 400; ++i) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " iter " << i);
      ExpectStableRoundTrip(*RandomExpr(rng, 4));
    }
  }
}

TEST(SqlRoundTripTest, IntegralFloatLiteralsKeepTheirType) {
  // %.17g renders 2.0 as "2"; without the ".0" suffix the round trip
  // would silently retype the literal as INTEGER.
  EXPECT_EQ(Value::Float64(2.0).ToSqlLiteral(), "2.0");
  EXPECT_EQ(Value::Float64(-7.0).ToSqlLiteral(), "-7.0");
  EXPECT_EQ(Value::Float64(0.0).ToSqlLiteral(), "0.0");

  Result<ExprPtr> parsed = ParseExpression("2.0");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ((*parsed)->kind, Expr::Kind::kLiteral);
  ASSERT_FALSE((*parsed)->literal.is_null());
  EXPECT_EQ((*parsed)->literal.type(), DataType::kFloat64);

  ExprPtr e = Expr::Literal(Value::Float64(-7.0));
  Result<ExprPtr> back = ParseExpression(e->ToSql());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameEval(*e, **back, "Float64(-7.0)");
}

TEST(SqlRoundTripTest, CountStarRendersAndReparses) {
  ExprPtr call = Expr::Call("COUNT", {});
  call->op = "*";
  EXPECT_EQ(call->ToSql(), "COUNT(*)");

  Result<ExprPtr> parsed = ParseExpression("COUNT(*)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ((*parsed)->kind, Expr::Kind::kCall);
  EXPECT_EQ((*parsed)->function, "COUNT");
  EXPECT_EQ((*parsed)->op, "*");
  // Eval rejects aggregates, so the property here is ToSql fixpoint only.
  EXPECT_EQ((*parsed)->ToSql(), "COUNT(*)");
}

TEST(SqlRoundTripTest, EmbeddedQuotesRoundTrip) {
  for (const char* raw : {"", "it's", "a'b''c", "'", "''", "don''t '"}) {
    ExprPtr e = Expr::Literal(Value::Varchar(raw));
    const std::string sql = e->ToSql();
    SCOPED_TRACE(sql);
    Result<ExprPtr> parsed = ParseExpression(sql);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ((*parsed)->kind, Expr::Kind::kLiteral);
    EXPECT_TRUE((*parsed)->literal.Equals(Value::Varchar(raw)))
        << (*parsed)->literal.ToDisplayString();
  }
}

TEST(SqlRoundTripTest, NegativeIntegerExtremesRoundTrip) {
  for (int64_t v : {INT64_MIN, INT64_MIN + 1, int64_t{-1}, INT64_MAX}) {
    ExprPtr e = Expr::Literal(Value::Int64(v));
    SCOPED_TRACE(v);
    Result<ExprPtr> parsed = ParseExpression(e->ToSql());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ((*parsed)->kind, Expr::Kind::kLiteral);
    EXPECT_TRUE((*parsed)->literal.Equals(Value::Int64(v)));
  }
}

TEST(SqlRoundTripTest, CreateProjectionRendersAndReparses) {
  // Rendering is a parse fixed point for every segmentation spelling.
  for (const char* sql :
       {"CREATE PROJECTION p AS SELECT a, b FROM t ORDER BY b, a "
        "SEGMENTED BY HASH(a)",
        "CREATE PROJECTION p AS SELECT a FROM t UNSEGMENTED",
        "CREATE PROJECTION p AS SELECT * FROM t ORDER BY a"}) {
    SCOPED_TRACE(sql);
    Result<Statement> parsed = Parse(sql);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto* stmt = std::get_if<CreateProjectionStmt>(&*parsed);
    ASSERT_NE(stmt, nullptr);
    EXPECT_EQ(stmt->ToSql(), sql);
    Result<Statement> again = Parse(stmt->ToSql());
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(std::get<CreateProjectionStmt>(*again).ToSql(), sql);
  }

  Result<Statement> parsed = Parse(
      "CREATE PROJECTION sales_by_region AS SELECT region, amount "
      "FROM sales ORDER BY region SEGMENTED BY HASH(region)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& stmt = std::get<CreateProjectionStmt>(*parsed);
  EXPECT_EQ(stmt.name, "sales_by_region");
  EXPECT_EQ(stmt.anchor, "sales");
  EXPECT_EQ(stmt.columns, (std::vector<std::string>{"region", "amount"}));
  EXPECT_EQ(stmt.order_by, (std::vector<std::string>{"region"}));
  EXPECT_EQ(stmt.segmentation_columns,
            (std::vector<std::string>{"region"}));
  EXPECT_FALSE(stmt.unsegmented);
  EXPECT_FALSE(stmt.star);
}

TEST(SqlRoundTripTest, JoinSelectsStabilizeAfterOneRoundTrip) {
  // INNER JOIN statements: parse -> ToSql -> parse must reach a render
  // fixed point, for hand-written spellings (INNER JOIN vs JOIN, either
  // key order, compound ON) and for generated ON expressions.
  for (const char* sql :
       {"SELECT * FROM t JOIN u ON a = x",
        "SELECT * FROM t INNER JOIN u ON x = a",
        "SELECT a, s FROM t JOIN u ON a = x WHERE b > 1.5 "
        "GROUP BY a, s ORDER BY a LIMIT 10",
        "SELECT COUNT(*) FROM t JOIN u ON a = x AND b < 2.0",
        "SELECT * FROM t JOIN u ON a = x AT EPOCH 3"}) {
    SCOPED_TRACE(sql);
    Result<Statement> parsed = Parse(sql);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto* stmt = std::get_if<SelectStmt>(&*parsed);
    ASSERT_NE(stmt, nullptr);
    EXPECT_EQ(stmt->join, "u");
    ASSERT_NE(stmt->join_on, nullptr);
    const std::string s1 = stmt->ToSql();
    Result<Statement> again = Parse(s1);
    ASSERT_TRUE(again.ok()) << s1 << ": " << again.status().ToString();
    const std::string s2 = std::get<SelectStmt>(*again).ToSql();
    EXPECT_EQ(s1, s2) << "render is not a parse fixed point";
  }
  for (uint64_t seed : {11u, 23u, 47u}) {
    Rng rng(seed);
    for (int i = 0; i < 100; ++i) {
      SelectStmt select;
      SelectItem star;
      star.star = true;
      select.items.push_back(std::move(star));
      select.from = "t";
      select.join = "u";
      select.join_on = RandomExpr(rng, 3);
      const std::string s1 = select.ToSql();
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << " iter " << i << " sql " << s1);
      Result<Statement> parsed = Parse(s1);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      auto& reparsed = std::get<SelectStmt>(*parsed);
      ASSERT_NE(reparsed.join_on, nullptr);
      const std::string s2 = reparsed.ToSql();
      Result<Statement> again = Parse(s2);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(s2, std::get<SelectStmt>(*again).ToSql());
      // The ON condition must survive the trip semantically: parse
      // canonicalization may re-wrap literals, so compare by eval.
      ExpectSameEval(*select.join_on, *reparsed.join_on, "join ON");
    }
  }
}

TEST(SqlRoundTripTest, JoinWithoutOnRendersParseableSql) {
  // The regression this pins: a programmatically built join with no ON
  // expression used to dereference null in ToSql. It now renders an
  // always-true condition that parses back cleanly.
  SelectStmt select;
  SelectItem star;
  star.star = true;
  select.items.push_back(std::move(star));
  select.from = "t";
  select.join = "u";
  const std::string sql = select.ToSql();
  EXPECT_NE(sql.find("JOIN u ON"), std::string::npos) << sql;
  Result<Statement> parsed = Parse(sql);
  ASSERT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
  EXPECT_NE(std::get<SelectStmt>(*parsed).join_on, nullptr);
}

TEST(SqlRoundTripTest, DropProjectionParses) {
  Result<Statement> parsed = Parse("DROP PROJECTION IF EXISTS p");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& stmt = std::get<DropStmt>(*parsed);
  EXPECT_TRUE(stmt.is_projection);
  EXPECT_TRUE(stmt.if_exists);
  EXPECT_EQ(stmt.name, "p");

  Result<Statement> plain = Parse("DROP PROJECTION p");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_FALSE(std::get<DropStmt>(*plain).if_exists);
}

TEST(SqlRoundTripTest, UnaryMinusBeforeNegativeLiteralIsNotAComment) {
  // "(-" immediately against "-5" would render "(--5)": a line comment
  // that swallows the rest of the expression.
  ExprPtr e = Expr::Unary("-", Expr::Literal(Value::Int64(-5)));
  const std::string sql = e->ToSql();
  Result<ExprPtr> parsed = ParseExpression(sql);
  ASSERT_TRUE(parsed.ok()) << "sql was: " << sql << " — "
                           << parsed.status().ToString();
  EvalContext context;
  Result<Value> v = Eval(**parsed, context);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_TRUE(v->Equals(Value::Int64(5))) << v->ToDisplayString();
}

}  // namespace
}  // namespace fabric::vertica::sql
