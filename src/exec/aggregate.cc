#include "exec/aggregate.h"

#include <cmath>

#include "common/hll.h"

namespace fabric::exec {

using storage::DataType;
using storage::Row;
using storage::Value;

namespace {

// Replaces `*best` with `v` when `v` lies strictly beyond it in direction
// `sign` (-1 for MIN, +1 for MAX); ties keep the value seen first.
Status KeepExtreme(const Value& v, int sign, Value* best) {
  if (v.is_null()) return Status::OK();
  if (!best->is_null()) {
    FABRIC_ASSIGN_OR_RETURN(int c, v.Compare(*best));
    if (c * sign <= 0) return Status::OK();
  }
  *best = v;
  return Status::OK();
}

// FNV-1a over the encoded group key.
int SpillPartition(const std::string& key) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return static_cast<int>(h % kSpillPartitions);
}

}  // namespace

Status UpdateAgg(const AggFunc& func, const Value& input, AggState* state) {
  if (input.is_null()) return Status::OK();
  ++state->count;
  switch (func.fn) {
    case AggFn::kCount:
      break;
    case AggFn::kSum:
    case AggFn::kAvg: {
      FABRIC_ASSIGN_OR_RETURN(double d, input.AsDouble());
      state->sum += d;
      break;
    }
    case AggFn::kMin:
      return KeepExtreme(input, -1, &state->min);
    case AggFn::kMax:
      return KeepExtreme(input, 1, &state->max);
    case AggFn::kUdx:
      if (state->state.empty()) state->state = func.init_state;
      return func.hooks.update(input, &state->state);
  }
  return Status::OK();
}

Status MergeAgg(const AggFunc& func, const AggState& src, AggState* dst) {
  dst->count += src.count;
  dst->sum += src.sum;
  FABRIC_RETURN_IF_ERROR(KeepExtreme(src.min, -1, &dst->min));
  FABRIC_RETURN_IF_ERROR(KeepExtreme(src.max, 1, &dst->max));
  if (src.state.empty()) return Status::OK();
  if (dst->state.empty()) {
    dst->state = src.state;
    return Status::OK();
  }
  return func.hooks.merge(src.state, &dst->state);
}

Result<Value> FinalizeAgg(const AggFunc& func, const AggState& state) {
  switch (func.fn) {
    case AggFn::kCount:
      return Value::Int64(state.count);
    case AggFn::kSum:
      return state.count > 0 ? Value::Float64(state.sum) : Value::Null();
    case AggFn::kAvg:
      return state.count > 0 ? Value::Float64(state.sum / state.count)
                             : Value::Null();
    case AggFn::kMin:
      return state.min;
    case AggFn::kMax:
      return state.max;
    case AggFn::kUdx:
      return func.hooks.finalize(state.state.empty() ? func.init_state
                                                     : state.state);
  }
  return Value::Null();
}

AggHooks SketchHooks(bool estimate) {
  AggHooks hooks;
  hooks.update = [](const Value& input, std::string* state) {
    return hll::AddHashToRawState(input.DistinctHash(), state);
  };
  hooks.merge = hll::MergeRawStates;
  hooks.finalize = [estimate](const std::string& state) -> Result<Value> {
    FABRIC_ASSIGN_OR_RETURN(hll::Sketch sketch,
                            hll::Sketch::FromRawState(state));
    if (estimate) return Value::Int64(sketch.Estimate());
    return Value::Varchar(sketch.Serialize());
  };
  return hooks;
}

std::string EncodeGroupKey(const Row& row, const std::vector<int>& cols) {
  std::string key;
  for (int c : cols) {
    const Value& v = row[c];
    if (v.is_null()) {
      key.push_back('\x01');
    } else if (v.type() == DataType::kFloat64 &&
               (v.float64_value() == 0 || std::isnan(v.float64_value()))) {
      // SQL `=` (CompareNumbers) equates -0.0 with 0.0 and NaN with NaN:
      // they take 0.0's and the positive NaN's display strings.
      key += v.float64_value() == 0 ? "0" : "nan";
    } else {
      key += v.ToDisplayString();
    }
    key.push_back('\x02');
  }
  return key;
}

Aggregator::Aggregator(const std::vector<AggFunc>& calls,
                       std::vector<int> key_cols, const SpillPolicy* spill)
    : calls_(calls),
      key_cols_(std::move(key_cols)),
      spill_(spill != nullptr && spill->budget_bytes > 0 ? spill : nullptr) {}

Aggregator::Group& Aggregator::Find(const Row& row) {
  auto [it, inserted] = groups_.try_emplace(EncodeGroupKey(row, key_cols_));
  created_ = nullptr;
  if (inserted) {
    it->second.keys.reserve(key_cols_.size());
    for (int c : key_cols_) it->second.keys.push_back(row[c]);
    it->second.states.resize(calls_.size());
    created_ = &*it;
  }
  return it->second;
}

// Estimated resident bytes of one group; coarse on purpose (the budget is
// a simulation knob, not a malloc audit).
double Aggregator::GroupBytes(const std::string& key,
                              const Group& group) const {
  double bytes = static_cast<double>(key.size()) + 48;
  for (const AggState& s : group.states) {
    bytes += 56 + static_cast<double>(s.state.size());
  }
  return bytes;
}

Status Aggregator::Admit() {
  if (spill_ == nullptr || created_ == nullptr) return Status::OK();
  resident_bytes_ += GroupBytes(created_->first, created_->second);
  created_ = nullptr;
  if (resident_bytes_ <= spill_->budget_bytes) return Status::OK();
  return SpillResident();
}

Status Aggregator::SpillResident() {
  if (groups_.empty()) return Status::OK();
  if (runs_.empty()) runs_.resize(kSpillPartitions);
  double bytes = 0;
  const int64_t spilled = static_cast<int64_t>(groups_.size());
  for (auto& [key, group] : groups_) {
    bytes += GroupBytes(key, group);
    runs_[SpillPartition(key)].emplace_back(key, std::move(group));
  }
  groups_.clear();
  resident_bytes_ = 0;
  if (spill_->charge_write) {
    FABRIC_RETURN_IF_ERROR(spill_->charge_write(bytes));
  }
  if (spill_->on_spill) spill_->on_spill(bytes, spilled);
  return Status::OK();
}

Status Aggregator::Finish(bool global_row) {
  if (!runs_.empty()) {
    // Push the resident remainder out too, then merge the runs back one
    // partition at a time. Runs hold disjoint key sets in fold order, so
    // the merged table equals the unbudgeted one.
    FABRIC_RETURN_IF_ERROR(SpillResident());
    for (auto& run : runs_) {
      if (run.empty()) continue;
      double bytes = 0;
      for (auto& [key, group] : run) {
        bytes += GroupBytes(key, group);
        auto [it, inserted] = groups_.try_emplace(key);
        if (inserted) {
          it->second = std::move(group);
          continue;
        }
        for (size_t i = 0; i < calls_.size(); ++i) {
          FABRIC_RETURN_IF_ERROR(MergeAgg(calls_[i], group.states[i],
                                          &it->second.states[i]));
        }
      }
      run.clear();
      if (spill_->charge_read) {
        FABRIC_RETURN_IF_ERROR(spill_->charge_read(bytes));
      }
    }
  }
  if (global_row && key_cols_.empty() && groups_.empty()) {
    groups_[""].states.resize(calls_.size());
  }
  return Status::OK();
}

Result<std::vector<Row>> Aggregator::Finalize(
    const std::vector<AggColumn>& columns) const {
  std::vector<Row> out;
  out.reserve(groups_.size());
  for (const auto& [key, group] : groups_) {
    Row row;
    row.reserve(columns.size());
    for (const AggColumn& c : columns) {
      if (c.is_group) {
        row.push_back(group.keys[c.index]);
        continue;
      }
      FABRIC_ASSIGN_OR_RETURN(
          Value v, FinalizeAgg(calls_[c.index], group.states[c.index]));
      row.push_back(std::move(v));
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace fabric::exec
