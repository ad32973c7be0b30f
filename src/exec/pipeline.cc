#include "exec/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/string_util.h"

namespace fabric::exec {

using storage::DataType;
using storage::Row;
using storage::Value;

void Lanes::Reset(size_t n, DataType t) {
  type = t;
  nulls.assign(n, 0);
  switch (t) {
    case DataType::kBool:
      bools.assign(n, 0);
      break;
    case DataType::kInt64:
      ints.assign(n, 0);
      break;
    case DataType::kFloat64:
      doubles.assign(n, 0.0);
      break;
    case DataType::kVarchar:
      if (strings.size() < n) strings.resize(n);
      break;
  }
}

Value Lanes::Box(uint32_t i) const {
  if (nulls[i]) return Value::Null();
  switch (type) {
    case DataType::kBool:
      return Value::Bool(bools[i] != 0);
    case DataType::kInt64:
      return Value::Int64(ints[i]);
    case DataType::kFloat64:
      return Value::Float64(doubles[i]);
    case DataType::kVarchar:
      return Value::Varchar(strings[i]);
  }
  return Value::Null();
}

double Lanes::Number(uint32_t i) const {
  switch (type) {
    case DataType::kBool:
      return bools[i] ? 1.0 : 0.0;
    case DataType::kInt64:
      return static_cast<double>(ints[i]);
    default:
      return doubles[i];
  }
}

namespace {

bool KnownFalse(const Lanes& l, uint32_t i) {
  return !l.nulls[i] && !l.bools[i];
}

bool KnownTrue(const Lanes& l, uint32_t i) {
  return !l.nulls[i] && l.bools[i];
}

// Recursive masked evaluation over the flat node vector. Each node gets
// its own lane frame; AND/OR nodes additionally own a sub-selection in
// state->masks so their right child evaluates only where the left child
// left the answer undecided — exactly the (row, node) pairs the
// interpreter's short-circuit touches, which is what makes divide-by-zero
// and UDx-error behavior identical between the two paths.
class Evaluator {
 public:
  Evaluator(const Program& program, const Row* rows, size_t block_rows,
            EvalState* state)
      : nodes_(program.nodes),
        rows_(rows),
        block_rows_(block_rows),
        state_(state) {}

  bool EvalNode(int id, const std::vector<uint32_t>& active) {
    const Node& n = nodes_[id];
    Lanes& out = state_->frames[id];
    out.Reset(block_rows_, n.type);
    switch (n.op) {
      case Node::Op::kConst:
        return EvalConst(n, active, &out);
      case Node::Op::kColumn:
        return EvalColumn(n, active, &out);
      case Node::Op::kNot: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = state_->frames[n.a];
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else {
            out.bools[i] = a.bools[i] ? 0 : 1;
          }
        }
        return true;
      }
      case Node::Op::kNegate: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = state_->frames[n.a];
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else if (n.type == DataType::kInt64) {
            // Overflow: the interpreter reports "integer out of range".
            if (__builtin_sub_overflow(int64_t{0}, a.ints[i], &out.ints[i])) {
              return false;
            }
          } else {
            out.doubles[i] = -a.Number(i);
          }
        }
        return true;
      }
      case Node::Op::kIsNull: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = state_->frames[n.a];
        for (uint32_t i : active) {
          const bool is_null = a.nulls[i] != 0;
          out.bools[i] = is_null == (n.cmp == storage::CompareOp::kIsNull);
        }
        return true;
      }
      case Node::Op::kAnd:
        return EvalAndOr(n, id, active, /*is_and=*/true, &out);
      case Node::Op::kOr:
        return EvalAndOr(n, id, active, /*is_and=*/false, &out);
      case Node::Op::kCompare:
        return EvalCompare(n, active, &out);
      case Node::Op::kConcat: {
        if (!EvalNode(n.a, active) || !EvalNode(n.b, active)) return false;
        const Lanes& a = state_->frames[n.a];
        const Lanes& b = state_->frames[n.b];
        for (uint32_t i : active) {
          if (a.nulls[i] || b.nulls[i]) {
            out.nulls[i] = 1;
          } else {
            out.strings[i] = StrCat(a.strings[i], b.strings[i]);
          }
        }
        return true;
      }
      case Node::Op::kAdd:
      case Node::Op::kSub:
      case Node::Op::kMul:
      case Node::Op::kDiv:
      case Node::Op::kMod:
        return EvalArith(n, active, &out);
      case Node::Op::kAbs: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = state_->frames[n.a];
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else if (n.type == DataType::kInt64) {
            if (a.ints[i] == std::numeric_limits<int64_t>::min()) {
              return false;  // interpreter: integer out of range
            }
            out.ints[i] = std::abs(a.ints[i]);
          } else {
            out.doubles[i] = std::fabs(a.Number(i));
          }
        }
        return true;
      }
      case Node::Op::kFloor:
      case Node::Op::kCeil: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = state_->frames[n.a];
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else {
            double d = a.Number(i);
            out.doubles[i] =
                n.op == Node::Op::kFloor ? std::floor(d) : std::ceil(d);
          }
        }
        return true;
      }
      case Node::Op::kLength: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = state_->frames[n.a];
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else {
            out.ints[i] = static_cast<int64_t>(a.strings[i].size());
          }
        }
        return true;
      }
      case Node::Op::kUpper:
      case Node::Op::kLower: {
        if (!EvalNode(n.a, active)) return false;
        const Lanes& a = state_->frames[n.a];
        for (uint32_t i : active) {
          if (a.nulls[i]) {
            out.nulls[i] = 1;
          } else {
            out.strings[i] = n.op == Node::Op::kUpper ? ToUpper(a.strings[i])
                                                      : ToLower(a.strings[i]);
          }
        }
        return true;
      }
    }
    return false;
  }

 private:
  bool EvalConst(const Node& n, const std::vector<uint32_t>& active,
                 Lanes* out) {
    const Value& c = n.constant;
    if (c.is_null()) return false;  // NULL literals are rejected at compile
    switch (n.type) {
      case DataType::kBool: {
        uint8_t v = c.bool_value() ? 1 : 0;
        for (uint32_t i : active) out->bools[i] = v;
        return true;
      }
      case DataType::kInt64: {
        int64_t v = c.int64_value();
        for (uint32_t i : active) out->ints[i] = v;
        return true;
      }
      case DataType::kFloat64: {
        double v = c.float64_value();
        for (uint32_t i : active) out->doubles[i] = v;
        return true;
      }
      case DataType::kVarchar: {
        for (uint32_t i : active) out->strings[i] = c.varchar_value();
        return true;
      }
    }
    return false;
  }

  bool EvalColumn(const Node& n, const std::vector<uint32_t>& active,
                  Lanes* out) {
    for (uint32_t i : active) {
      const Row& row = rows_[i];
      if (n.column >= static_cast<int>(row.size())) return false;
      const Value& v = row[n.column];
      if (v.is_null()) {
        out->nulls[i] = 1;
        continue;
      }
      // The declared type is the compiled static type; any drift between
      // a row value and its schema column is a bail, never a coercion.
      if (v.type() != n.type) return false;
      switch (n.type) {
        case DataType::kBool:
          out->bools[i] = v.bool_value() ? 1 : 0;
          break;
        case DataType::kInt64:
          out->ints[i] = v.int64_value();
          break;
        case DataType::kFloat64:
          out->doubles[i] = v.float64_value();
          break;
        case DataType::kVarchar:
          out->strings[i] = v.varchar_value();
          break;
      }
    }
    return true;
  }

  bool EvalAndOr(const Node& n, int id, const std::vector<uint32_t>& active,
                 bool is_and, Lanes* out) {
    if (!EvalNode(n.a, active)) return false;
    const Lanes& a = state_->frames[n.a];
    // The right child runs only where the left child did not decide the
    // answer (AND: left is true-or-null; OR: left is false-or-null).
    std::vector<uint32_t>& mask = state_->masks[id];
    mask.clear();
    for (uint32_t i : active) {
      bool decided = is_and ? KnownFalse(a, i) : KnownTrue(a, i);
      if (!decided) mask.push_back(i);
    }
    if (!EvalNode(n.b, mask)) return false;
    const Lanes& b = state_->frames[n.b];
    for (uint32_t i : active) {
      if (is_and) {
        if (KnownFalse(a, i)) {
          out->bools[i] = 0;
        } else if (KnownFalse(b, i)) {
          out->bools[i] = 0;
        } else if (!a.nulls[i] && !b.nulls[i]) {
          out->bools[i] = 1;
        } else {
          out->nulls[i] = 1;
        }
      } else {
        if (KnownTrue(a, i)) {
          out->bools[i] = 1;
        } else if (KnownTrue(b, i)) {
          out->bools[i] = 1;
        } else if (!a.nulls[i] && !b.nulls[i]) {
          out->bools[i] = 0;
        } else {
          out->nulls[i] = 1;
        }
      }
    }
    return true;
  }

  bool EvalCompare(const Node& n, const std::vector<uint32_t>& active,
                   Lanes* out) {
    if (!EvalNode(n.a, active) || !EvalNode(n.b, active)) return false;
    const Lanes& a = state_->frames[n.a];
    const Lanes& b = state_->frames[n.b];
    for (uint32_t i : active) {
      if (a.nulls[i] || b.nulls[i]) {
        out->nulls[i] = 1;
        continue;
      }
      int c;
      if (n.string_compare) {
        int r = a.strings[i].compare(b.strings[i]);
        c = r < 0 ? -1 : (r > 0 ? 1 : 0);
      } else if (a.type == DataType::kInt64 && b.type == DataType::kInt64) {
        // Value::Compare: two INTEGERs compare exactly ...
        c = storage::CompareIntegers(a.ints[i], b.ints[i]);
      } else {
        // ... any other numeric pair by value through double.
        c = storage::CompareNumbers(a.Number(i), b.Number(i));
      }
      out->bools[i] = storage::ComparePasses(n.cmp, c);
    }
    return true;
  }

  bool EvalArith(const Node& n, const std::vector<uint32_t>& active,
                 Lanes* out) {
    if (!EvalNode(n.a, active) || !EvalNode(n.b, active)) return false;
    const Lanes& a = state_->frames[n.a];
    const Lanes& b = state_->frames[n.b];
    for (uint32_t i : active) {
      if (a.nulls[i] || b.nulls[i]) {
        out->nulls[i] = 1;
        continue;
      }
      if (n.op == Node::Op::kMod) {
        if (b.ints[i] == 0) return false;  // interpreter: division by zero
        // INT64_MIN % -1 traps in hardware; the remainder is 0 for any x.
        out->ints[i] = b.ints[i] == -1 ? 0 : a.ints[i] % b.ints[i];
        continue;
      }
      if (n.op == Node::Op::kDiv) {
        double y = b.Number(i);
        if (y == 0) return false;  // interpreter: division by zero
        out->doubles[i] = a.Number(i) / y;
        continue;
      }
      if (n.int_arith) {
        int64_t x = a.ints[i];
        int64_t y = b.ints[i];
        bool overflow = false;
        switch (n.op) {
          case Node::Op::kAdd:
            overflow = __builtin_add_overflow(x, y, &out->ints[i]);
            break;
          case Node::Op::kSub:
            overflow = __builtin_sub_overflow(x, y, &out->ints[i]);
            break;
          default:
            overflow = __builtin_mul_overflow(x, y, &out->ints[i]);
            break;
        }
        if (overflow) return false;  // interpreter: integer out of range
      } else {
        double x = a.Number(i);
        double y = b.Number(i);
        switch (n.op) {
          case Node::Op::kAdd:
            out->doubles[i] = x + y;
            break;
          case Node::Op::kSub:
            out->doubles[i] = x - y;
            break;
          default:
            out->doubles[i] = x * y;
            break;
        }
      }
    }
    return true;
  }

  const std::vector<Node>& nodes_;
  const Row* rows_;
  size_t block_rows_;
  EvalState* state_;
};

}  // namespace

int AppendComparison(std::vector<Node>* nodes, storage::CompareOp op, int a,
                     int b) {
  const bool null_test = storage::IsNullTest(op);
  const bool a_str = (*nodes)[a].type == DataType::kVarchar;
  if (!null_test && a_str != ((*nodes)[b].type == DataType::kVarchar)) {
    return -1;
  }
  Node& n = nodes->emplace_back();
  n.op = null_test ? Node::Op::kIsNull : Node::Op::kCompare;
  n.type = DataType::kBool;
  n.cmp = op;
  n.a = a;
  if (!null_test) {
    n.b = b;
    n.string_compare = a_str;
  }
  return static_cast<int>(nodes->size()) - 1;
}

bool Program::Eval(const Row* rows, size_t block_rows,
                   const std::vector<uint32_t>& active,
                   EvalState* state) const {
  state->frames.resize(nodes.size());
  state->masks.resize(nodes.size());
  Evaluator evaluator(*this, rows, block_rows, state);
  return evaluator.EvalNode(static_cast<int>(nodes.size()) - 1, active);
}

bool RunFilter(const Program& program, const Row* rows, size_t block_rows,
               const std::vector<uint32_t>& active, EvalState* state,
               std::vector<uint32_t>* out) {
  if (!program.Eval(rows, block_rows, active, state)) return false;
  const Lanes& root = program.root(*state);
  for (uint32_t i : active) {
    if (!root.nulls[i] && root.bools[i]) out->push_back(i);
  }
  return true;
}

namespace {

// The typed-lane entry into the shared partial: exactly UpdateAgg on the
// boxed lane value, without boxing numbers.
bool FoldRow(const CompiledSelect& select, uint32_t i,
             const std::vector<EvalState>& states,
             std::vector<AggState>* partials) {
  static const Value kOne = Value::Int64(1);
  for (size_t k = 0; k < select.agg_calls.size(); ++k) {
    const AggFunc& func = select.agg_calls[k];
    AggState& p = (*partials)[k];
    const int arg = select.agg_args[k];
    if (arg < 0) {
      // Argless calls fold the interpreter's synthetic non-null Int64(1).
      if (!UpdateAgg(func, kOne, &p).ok()) return false;
      continue;
    }
    const Lanes& lanes = select.programs[arg].root(states[arg]);
    if (lanes.nulls[i]) continue;
    switch (func.fn) {
      case AggFn::kCount:
        ++p.count;
        break;
      case AggFn::kSum:
      case AggFn::kAvg:
        ++p.count;
        p.sum += lanes.Number(i);
        break;
      case AggFn::kMin:
      case AggFn::kMax: {
        ++p.count;
        Value& best = func.fn == AggFn::kMin ? p.min : p.max;
        bool take = best.is_null();
        if (!take) {
          int c;
          if (lanes.type == DataType::kVarchar) {
            c = lanes.strings[i].compare(best.varchar_value());
          } else if (lanes.type == DataType::kInt64) {
            c = storage::CompareIntegers(lanes.ints[i], best.int64_value());
          } else {
            c = storage::CompareNumbers(lanes.Number(i), best.NumericValue());
          }
          take = func.fn == AggFn::kMin ? c < 0 : c > 0;
        }
        if (take) best = lanes.Box(i);
        break;
      }
      case AggFn::kUdx:
        if (!UpdateAgg(func, lanes.Box(i), &p).ok()) return false;
        break;
    }
  }
  return true;
}

}  // namespace

std::optional<std::vector<Row>> RunCompiledSelect(
    const CompiledSelect& select, const std::vector<Row>& rows,
    const SpillPolicy* spill) {
  std::vector<Row> out;
  EvalState filter_state;
  std::vector<EvalState> states(select.programs.size());
  Aggregator aggregator(select.agg_calls, select.group_cols, spill);

  int min_width = 0;
  for (int c : select.group_cols) min_width = std::max(min_width, c + 1);
  for (const CompiledSelect::Output& o : select.outputs) {
    if (o.passthrough >= 0) min_width = std::max(min_width, o.passthrough + 1);
  }

  std::vector<uint32_t> all;
  std::vector<uint32_t> filtered;
  const size_t n = rows.size();
  for (size_t base = 0; base < n; base += kBlockRows) {
    const size_t len = std::min(kBlockRows, n - base);
    const Row* block = rows.data() + base;
    all.resize(len);
    for (size_t i = 0; i < len; ++i) all[i] = static_cast<uint32_t>(i);
    const std::vector<uint32_t>* active = &all;
    if (select.filter.has_value()) {
      filtered.clear();
      if (!RunFilter(*select.filter, block, len, all, &filter_state,
                     &filtered)) {
        return std::nullopt;
      }
      active = &filtered;
    }

    if (!select.aggregate) {
      for (const CompiledSelect::Output& o : select.outputs) {
        if (o.program >= 0 &&
            !select.programs[o.program].Eval(block, len, *active,
                                             &states[o.program])) {
          return std::nullopt;
        }
      }
      for (uint32_t i : *active) {
        const Row& row = block[i];
        if (static_cast<int>(row.size()) < min_width) return std::nullopt;
        Row r;
        r.reserve(select.outputs.size());
        for (const CompiledSelect::Output& o : select.outputs) {
          if (o.passthrough >= 0) {
            r.push_back(row[o.passthrough]);
          } else {
            r.push_back(select.programs[o.program].root(states[o.program])
                            .Box(i));
          }
        }
        out.push_back(std::move(r));
      }
      continue;
    }

    for (int arg : select.agg_args) {
      if (arg >= 0 &&
          !select.programs[arg].Eval(block, len, *active, &states[arg])) {
        return std::nullopt;
      }
    }
    for (uint32_t i : *active) {
      const Row& row = block[i];
      if (static_cast<int>(row.size()) < min_width) return std::nullopt;
      Aggregator::Group& group = aggregator.Find(row);
      if (!FoldRow(select, i, states, &group.states) ||
          !aggregator.Admit().ok()) {
        return std::nullopt;
      }
    }
  }

  if (!select.aggregate) return out;
  if (!aggregator.Finish(/*global_row=*/true).ok()) return std::nullopt;
  auto grouped = aggregator.Finalize(select.agg_columns);
  if (!grouped.ok()) return std::nullopt;
  return std::move(*grouped);
}

}  // namespace fabric::exec
