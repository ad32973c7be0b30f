#include "vertica/sql_analyzer.h"

#include <algorithm>

#include "common/string_util.h"
#include "vertica/sql_eval.h"

namespace fabric::vertica::sql {
namespace {

constexpr unsigned __int128 kRingEnd = (static_cast<unsigned __int128>(1))
                                       << 64;

}  // namespace

RingRangeSet RingRangeSet::Full() { return Of(0, kRingEnd); }

RingRangeSet RingRangeSet::Empty() { return RingRangeSet(); }

RingRangeSet RingRangeSet::Of(unsigned __int128 lower,
                              unsigned __int128 upper) {
  RingRangeSet set;
  if (upper > kRingEnd) upper = kRingEnd;
  if (lower < upper) set.ranges_.emplace_back(lower, upper);
  return set;
}

RingRangeSet RingRangeSet::OfHashRange(const HashRange& range) {
  unsigned __int128 upper =
      range.upper == 0 ? kRingEnd
                       : static_cast<unsigned __int128>(range.upper);
  return Of(range.lower, upper);
}

void RingRangeSet::Normalize() {
  std::sort(ranges_.begin(), ranges_.end());
  std::vector<std::pair<unsigned __int128, unsigned __int128>> merged;
  for (const auto& [lo, hi] : ranges_) {
    if (lo >= hi) continue;
    if (!merged.empty() && lo <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, hi);
    } else {
      merged.emplace_back(lo, hi);
    }
  }
  ranges_ = std::move(merged);
}

RingRangeSet RingRangeSet::Union(const RingRangeSet& other) const {
  RingRangeSet out;
  out.ranges_ = ranges_;
  out.ranges_.insert(out.ranges_.end(), other.ranges_.begin(),
                     other.ranges_.end());
  out.Normalize();
  return out;
}

RingRangeSet RingRangeSet::Intersect(const RingRangeSet& other) const {
  RingRangeSet out;
  for (const auto& [alo, ahi] : ranges_) {
    for (const auto& [blo, bhi] : other.ranges_) {
      unsigned __int128 lo = std::max(alo, blo);
      unsigned __int128 hi = std::min(ahi, bhi);
      if (lo < hi) out.ranges_.emplace_back(lo, hi);
    }
  }
  out.Normalize();
  return out;
}

bool RingRangeSet::IsFull() const {
  return ranges_.size() == 1 && ranges_[0].first == 0 &&
         ranges_[0].second == kRingEnd;
}

bool RingRangeSet::Contains(uint64_t hash) const {
  unsigned __int128 h = hash;
  for (const auto& [lo, hi] : ranges_) {
    if (h >= lo && h < hi) return true;
  }
  return false;
}

bool RingRangeSet::Intersects(const HashRange& range) const {
  return !Intersect(OfHashRange(range)).IsEmpty();
}

unsigned __int128 RingRangeSet::TotalWidth() const {
  unsigned __int128 width = 0;
  for (const auto& [lo, hi] : ranges_) width += hi - lo;
  return width;
}

namespace {

using storage::CompareOp;
using storage::CompareTerm;
using storage::HashRangeTerm;
using storage::NullTestTerm;

// Extracts a non-null literal, folding a unary minus over a numeric one.
std::optional<storage::Value> LiteralOf(const Expr& expr) {
  if (expr.kind == Expr::Kind::kLiteral) {
    if (expr.literal.is_null()) return std::nullopt;
    return expr.literal;
  }
  if (expr.kind == Expr::Kind::kUnary && expr.op == "-" &&
      expr.args[0]->kind == Expr::Kind::kLiteral &&
      !expr.args[0]->literal.is_null()) {
    const storage::Value& v = expr.args[0]->literal;
    if (v.type() == storage::DataType::kInt64) {
      // -INT64_MIN overflows: leave it to evaluation, which reports it.
      int64_t negated = 0;
      if (__builtin_sub_overflow(int64_t{0}, v.int64_value(), &negated)) {
        return std::nullopt;
      }
      return storage::Value::Int64(negated);
    }
    if (v.type() == storage::DataType::kFloat64) {
      return storage::Value::Float64(-v.float64_value());
    }
  }
  return std::nullopt;
}

bool IsHashOfColumns(const Expr& expr) {
  if (expr.kind != Expr::Kind::kCall || expr.function != "HASH" ||
      expr.args.empty()) {
    return false;
  }
  for (const ExprPtr& arg : expr.args) {
    if (arg->kind != Expr::Kind::kColumnRef) return false;
  }
  return true;
}

// `HASH(columns...) <op> integer-literal`, in either operand order, with
// the op flipped into HASH-first form and the literal in the signed SQL
// domain. `<>` is not a range.
struct HashComparison {
  const Expr* call = nullptr;
  CompareOp op = CompareOp::kEq;
  int64_t bound = 0;
};

std::optional<HashComparison> MatchHashComparison(const Expr& expr) {
  if (expr.kind != Expr::Kind::kBinary) return std::nullopt;
  auto op = storage::ParseCompareOp(expr.op);
  if (!op || *op == CompareOp::kNe) return std::nullopt;
  const Expr* call = expr.args[0].get();
  const Expr* literal = expr.args[1].get();
  if (!IsHashOfColumns(*call)) {
    std::swap(call, literal);
    if (!IsHashOfColumns(*call)) return std::nullopt;
    *op = storage::FlipCompareOp(*op);
  }
  auto value = LiteralOf(*literal);
  if (!value || value->type() != storage::DataType::kInt64) {
    return std::nullopt;
  }
  return HashComparison{call, *op, value->int64_value()};
}

// The ring range of a HASH comparison whose columns are the
// segmentation columns, in order.
std::optional<RingRangeSet> RangeOfComparison(
    const Expr& expr, const std::vector<std::string>& seg_columns) {
  auto match = MatchHashComparison(expr);
  if (!match || match->call->args.size() != seg_columns.size()) {
    return std::nullopt;
  }
  for (size_t i = 0; i < seg_columns.size(); ++i) {
    if (!EqualsIgnoreCase(match->call->args[i]->column, seg_columns[i])) {
      return std::nullopt;
    }
  }
  const unsigned __int128 ring = SignedToRingHash(match->bound);
  switch (match->op) {
    case CompareOp::kEq:
      return RingRangeSet::Of(ring, ring + 1);
    case CompareOp::kLt:
      return RingRangeSet::Of(0, ring);
    case CompareOp::kLe:
      return RingRangeSet::Of(0, ring + 1);
    case CompareOp::kGt:
      return RingRangeSet::Of(ring + 1, kRingEnd);
    default:  // >=
      return RingRangeSet::Of(ring, kRingEnd);
  }
}

// Splits an AND tree into conjuncts, left to right.
void SplitConjuncts(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == Expr::Kind::kBinary && expr.op == "AND") {
    SplitConjuncts(*expr.args[0], out);
    SplitConjuncts(*expr.args[1], out);
    return;
  }
  out->push_back(&expr);
}

// column <op> literal (either order) with matching types.
bool CompileCompare(const Expr& expr, const storage::Schema& schema,
                    storage::ScanPredicate* pred) {
  if (expr.kind != Expr::Kind::kBinary) return false;
  auto op = storage::ParseCompareOp(expr.op);
  if (!op) return false;
  const Expr* col = expr.args[0].get();
  const Expr* lit = expr.args[1].get();
  if (col->kind != Expr::Kind::kColumnRef) {
    std::swap(col, lit);
    if (col->kind != Expr::Kind::kColumnRef) return false;
    *op = storage::FlipCompareOp(*op);
  }
  auto idx = schema.IndexOf(col->column);
  if (!idx.ok()) return false;
  auto literal = LiteralOf(*lit);
  if (!literal) return false;

  storage::DataType column_type = schema.column(*idx).type;
  bool column_is_string = column_type == storage::DataType::kVarchar;
  bool literal_is_string = literal->type() == storage::DataType::kVarchar;
  // Mixed string/numeric comparisons are interpreter errors; leave them
  // to the residual so the error surfaces identically.
  if (column_is_string != literal_is_string) return false;
  // Kernels compare numbers through double, exact for an INTEGER column
  // only while the INTEGER literal is below 2^53 in magnitude; a larger
  // one stays in the residual, which compares two INTEGERs exactly.
  constexpr int64_t kExactInDouble = int64_t{1} << 53;
  if (column_type == storage::DataType::kInt64 &&
      literal->type() == storage::DataType::kInt64 &&
      (literal->int64_value() >= kExactInDouble ||
       literal->int64_value() <= -kExactInDouble)) {
    return false;
  }

  CompareTerm term;
  term.column = *idx;
  term.op = *op;
  term.is_string = column_is_string;
  if (column_is_string) {
    term.text = literal->varchar_value();
  } else {
    term.number = literal->NumericValue();
  }
  pred->compares.push_back(std::move(term));
  return true;
}

bool CompileNullTest(const Expr& expr, const storage::Schema& schema,
                     storage::ScanPredicate* pred) {
  if (expr.kind != Expr::Kind::kIsNull) return false;
  if (expr.args[0]->kind != Expr::Kind::kColumnRef) return false;
  auto idx = schema.IndexOf(expr.args[0]->column);
  if (!idx.ok()) return false;
  pred->null_tests.push_back(NullTestTerm{*idx, expr.negated});
  return true;
}

// A HASH comparison folded into the inclusive unsigned ring bounds of a
// HashRangeTerm. Terms over the same column list merge by bound
// intersection.
bool CompileHashRange(const Expr& expr, const storage::Schema& schema,
                      storage::ScanPredicate* pred) {
  auto match = MatchHashComparison(expr);
  if (!match) return false;
  std::vector<int> columns;
  for (const ExprPtr& arg : match->call->args) {
    auto idx = schema.IndexOf(arg->column);
    if (!idx.ok()) return false;
    columns.push_back(*idx);
  }
  const uint64_t ring = SignedToRingHash(match->bound);
  uint64_t lower = 0;
  uint64_t upper = ~0ull;
  bool empty = false;
  switch (match->op) {
    case CompareOp::kEq:
      lower = upper = ring;
      break;
    case CompareOp::kLt:
      if (ring == 0) empty = true;
      else upper = ring - 1;
      break;
    case CompareOp::kLe:
      upper = ring;
      break;
    case CompareOp::kGt:
      if (ring == ~0ull) empty = true;
      else lower = ring + 1;
      break;
    default:  // >=
      lower = ring;
      break;
  }
  if (empty) {
    pred->always_false = true;
    return true;
  }
  for (HashRangeTerm& existing : pred->hash_ranges) {
    if (existing.columns == columns) {
      existing.lower = std::max(existing.lower, lower);
      existing.upper = std::min(existing.upper, upper);
      if (existing.lower > existing.upper) pred->always_false = true;
      return true;
    }
  }
  HashRangeTerm term;
  term.columns = std::move(columns);
  term.lower = lower;
  term.upper = upper;
  pred->hash_ranges.push_back(std::move(term));
  return true;
}

}  // namespace

CompiledScan CompileScanPredicate(const Expr& where,
                                  const storage::Schema& schema) {
  CompiledScan out;
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(where, &conjuncts);
  std::vector<const Expr*> leftovers;
  for (const Expr* conjunct : conjuncts) {
    if (CompileCompare(*conjunct, schema, &out.predicate)) continue;
    if (CompileNullTest(*conjunct, schema, &out.predicate)) continue;
    if (CompileHashRange(*conjunct, schema, &out.predicate)) continue;
    leftovers.push_back(conjunct);
  }
  for (const Expr* leftover : leftovers) {
    out.residual = out.residual == nullptr
                       ? leftover->Clone()
                       : Expr::Binary("AND", std::move(out.residual),
                                      leftover->Clone());
  }
  return out;
}

RingRangeSet ExtractHashRanges(
    const Expr& where,
    const std::vector<std::string>& segmentation_column_names) {
  if (segmentation_column_names.empty()) return RingRangeSet::Full();
  if (where.kind == Expr::Kind::kBinary) {
    if (where.op == "AND") {
      return ExtractHashRanges(*where.args[0], segmentation_column_names)
          .Intersect(
              ExtractHashRanges(*where.args[1], segmentation_column_names));
    }
    if (where.op == "OR") {
      RingRangeSet lhs =
          ExtractHashRanges(*where.args[0], segmentation_column_names);
      RingRangeSet rhs =
          ExtractHashRanges(*where.args[1], segmentation_column_names);
      // OR weakens: if either side is unconstrained the whole is.
      if (lhs.IsFull() || rhs.IsFull()) return RingRangeSet::Full();
      return lhs.Union(rhs);
    }
    if (auto range = RangeOfComparison(where, segmentation_column_names)) {
      return *range;
    }
    return RingRangeSet::Full();
  }
  return RingRangeSet::Full();
}

}  // namespace fabric::vertica::sql
