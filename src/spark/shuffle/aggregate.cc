#include "spark/shuffle/aggregate.h"

#include <numeric>
#include <utility>

#include "common/hll.h"
#include "common/string_util.h"

namespace fabric::spark::shuffle {
namespace {

using storage::Row;
using storage::Value;

// The core aggregate function of one call. Sketch calls are raw-state
// HLL UDx calls whose init state is the empty sketch of the call's
// precision (validated when the plan was built).
exec::AggFunc FuncOf(const AggCall& call) {
  exec::AggFunc func;
  switch (call.fn) {
    case AggregateFn::kCount:
      func.fn = exec::AggFn::kCount;
      break;
    case AggregateFn::kSum:
      func.fn = exec::AggFn::kSum;
      break;
    case AggregateFn::kAvg:
      func.fn = exec::AggFn::kAvg;
      break;
    case AggregateFn::kMin:
      func.fn = exec::AggFn::kMin;
      break;
    case AggregateFn::kMax:
      func.fn = exec::AggFn::kMax;
      break;
    case AggregateFn::kApproxCountDistinct:
    case AggregateFn::kHllSketch:
      func.fn = exec::AggFn::kUdx;
      func.hooks = exec::SketchHooks(call.fn ==
                                     AggregateFn::kApproxCountDistinct);
      func.init_state =
          hll::Sketch::Create(call.precision).value().ToRawState();
      break;
  }
  return func;
}

std::vector<exec::AggFunc> FuncsOf(const AggPlan& plan) {
  std::vector<exec::AggFunc> funcs;
  funcs.reserve(plan.calls.size());
  for (const AggCall& call : plan.calls) funcs.push_back(FuncOf(call));
  return funcs;
}

}  // namespace

storage::Schema PartialSchema(const AggPlan& plan) {
  std::vector<storage::ColumnDef> defs;
  for (int k : plan.keys) defs.push_back(plan.in_schema.column(k));
  for (size_t i = 0; i < plan.calls.size(); ++i) {
    const AggCall& call = plan.calls[i];
    if (IsSketchFn(call.fn)) {
      defs.push_back({StrCat("p", i, "_sketch"),
                      storage::DataType::kVarchar});
      continue;
    }
    storage::DataType arg_type =
        call.column < 0 ? storage::DataType::kInt64
                        : plan.in_schema.column(call.column).type;
    defs.push_back({StrCat("p", i, "_count"), storage::DataType::kInt64});
    defs.push_back({StrCat("p", i, "_sum"), storage::DataType::kFloat64});
    defs.push_back({StrCat("p", i, "_min"), arg_type});
    defs.push_back({StrCat("p", i, "_max"), arg_type});
  }
  return storage::Schema(std::move(defs));
}

int PartialWidth(const AggCall& call) { return IsSketchFn(call.fn) ? 1 : 4; }

struct Combiner::Impl {
  explicit Impl(const AggPlan* plan, const exec::SpillPolicy* spill)
      : plan(plan),
        funcs(FuncsOf(*plan)),
        aggregator(funcs, plan->keys, spill) {}

  const AggPlan* plan;
  std::vector<exec::AggFunc> funcs;
  exec::Aggregator aggregator;
};

Combiner::Combiner(const AggPlan* plan, const exec::SpillPolicy* spill)
    : impl_(new Impl(plan, spill)) {}
Combiner::~Combiner() = default;
Combiner::Combiner(Combiner&&) noexcept = default;
Combiner& Combiner::operator=(Combiner&&) noexcept = default;

Status Combiner::Add(const Row& row) {
  static const Value kOne = Value::Int64(1);  // COUNT(*) counts rows
  const std::vector<AggCall>& calls = impl_->plan->calls;
  exec::Aggregator::Group& group = impl_->aggregator.Find(row);
  for (size_t i = 0; i < calls.size(); ++i) {
    const Value& v = calls[i].column < 0 ? kOne : row[calls[i].column];
    FABRIC_RETURN_IF_ERROR(
        exec::UpdateAgg(impl_->funcs[i], v, &group.states[i]));
  }
  return impl_->aggregator.Admit();
}

Result<std::vector<Row>> Combiner::Finish() {
  FABRIC_RETURN_IF_ERROR(impl_->aggregator.Finish(/*global_row=*/false));
  const std::vector<AggCall>& calls = impl_->plan->calls;
  std::vector<Row> out;
  out.reserve(impl_->aggregator.groups().size());
  for (auto& [key, group] : impl_->aggregator.groups()) {
    Row row = std::move(group.keys);
    for (size_t i = 0; i < calls.size(); ++i) {
      exec::AggState& p = group.states[i];
      if (IsSketchFn(calls[i].fn)) {
        // Empty states ship as the empty sketch so the reduce side can
        // always deserialize.
        const std::string& raw =
            p.state.empty() ? impl_->funcs[i].init_state : p.state;
        FABRIC_ASSIGN_OR_RETURN(hll::Sketch sketch,
                                hll::Sketch::FromRawState(raw));
        row.push_back(Value::Varchar(sketch.Serialize()));
        continue;
      }
      row.push_back(Value::Int64(p.count));
      row.push_back(Value::Float64(p.sum));
      row.push_back(std::move(p.min));
      row.push_back(std::move(p.max));
    }
    out.push_back(std::move(row));
  }
  return out;
}

Result<std::vector<Row>> MergePartials(const std::vector<Row>& partials,
                                       const AggPlan& plan,
                                       const exec::SpillPolicy* spill) {
  const int k = static_cast<int>(plan.keys.size());
  std::vector<int> key_positions(k);
  std::iota(key_positions.begin(), key_positions.end(), 0);
  const std::vector<exec::AggFunc> funcs = FuncsOf(plan);
  exec::Aggregator aggregator(funcs, key_positions, spill);
  for (const Row& prow : partials) {
    exec::Aggregator::Group& group = aggregator.Find(prow);
    // Partial rows have a variable per-call width (sketch calls carry a
    // single serialized-register field); walk the layout, never stride.
    int base = k;
    for (size_t i = 0; i < plan.calls.size(); ++i) {
      exec::AggState in;
      if (IsSketchFn(plan.calls[i].fn)) {
        if (prow[base].type() != storage::DataType::kVarchar) {
          return InvalidArgumentError(
              "sketch partial field is not a serialized sketch");
        }
        FABRIC_ASSIGN_OR_RETURN(
            hll::Sketch sketch,
            hll::Sketch::Deserialize(prow[base].varchar_value()));
        in.state = sketch.ToRawState();
      } else {
        in.count = prow[base].int64_value();
        in.sum = prow[base + 1].float64_value();
        in.min = prow[base + 2];
        in.max = prow[base + 3];
      }
      FABRIC_RETURN_IF_ERROR(exec::MergeAgg(funcs[i], in, &group.states[i]));
      base += PartialWidth(plan.calls[i]);
    }
    FABRIC_RETURN_IF_ERROR(aggregator.Admit());
  }
  FABRIC_RETURN_IF_ERROR(aggregator.Finish(/*global_row=*/true));
  // Output rows: the key columns, then one finalized value per call.
  std::vector<exec::AggColumn> columns;
  for (int i = 0; i < k; ++i) columns.push_back({true, i});
  for (size_t i = 0; i < funcs.size(); ++i) {
    columns.push_back({false, static_cast<int>(i)});
  }
  return aggregator.Finalize(columns);
}

int PartitionOf(const Row& row, const std::vector<int>& keys,
                int num_partitions) {
  uint64_t hash;
  if (keys.empty()) {
    std::vector<int> all(row.size());
    std::iota(all.begin(), all.end(), 0);
    hash = storage::RowSegmentationHash(row, all);
  } else {
    hash = storage::RowSegmentationHash(row, keys);
  }
  return static_cast<int>(hash % static_cast<uint64_t>(num_partitions));
}

}  // namespace fabric::spark::shuffle
