#ifndef FABRIC_EXEC_AGGREGATE_H_
#define FABRIC_EXEC_AGGREGATE_H_

// The aggregation core every engine folds through: the Vertica SQL
// executor's GROUP BY (interpreted and compiled, exec/pipeline.h) and the
// Spark shuffle's map-side combine and reduce-side merge
// (spark/shuffle/aggregate.h). It owns the partial state of one call in
// one group, its update/merge/finalize rules, the group-key encoding, the
// ordered group table and grace-hash spilling. V2S aggregate pushdown is
// correct because a plan aggregated by either engine, spilled or not,
// returns byte-identical rows — which holds by construction when there is
// only one set of rules.
//
// The rules are SQL's: NULL inputs are skipped, COUNT(*) folds a
// synthetic non-null Int64(1) per row, SUM/AVG accumulate through double
// in fold order and are NULL over zero inputs, MIN/MAX keep the first of
// equal values, groups are emitted sorted by encoded key.

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace fabric::exec {

enum class AggFn { kCount, kSum, kAvg, kMin, kMax, kUdx };

// Raw-state lifecycle of a kUdx call: the SQL engine's registered
// aggregate UDx, or a Spark sketch call (SketchHooks). `merge` must be
// commutative, associative and idempotent.
struct AggHooks {
  std::function<Status(const storage::Value& input, std::string* state)>
      update;
  std::function<Status(const std::string& other, std::string* state)> merge;
  std::function<Result<storage::Value>(const std::string& state)> finalize;
};

// One aggregate call. A kUdx call also carries its hooks and the state
// its init built from the call's constant arguments.
struct AggFunc {
  AggFn fn = AggFn::kCount;
  AggHooks hooks;
  std::string init_state;
};

// Partial state of one call in one group. `count` is the number of
// non-null inputs, so "any input seen" is count > 0. `state` holds a
// kUdx raw state and stays empty until the first input.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  storage::Value min;
  storage::Value max;
  std::string state;
};

Status UpdateAgg(const AggFunc& func, const storage::Value& input,
                 AggState* state);
Status MergeAgg(const AggFunc& func, const AggState& src, AggState* dst);
Result<storage::Value> FinalizeAgg(const AggFunc& func,
                                   const AggState& state);

// HyperLogLog hooks over the hll raw state (precision byte + registers):
// values hash through Value::DistinctHash, so every engine builds
// register-identical sketches. Finalizes to the estimate (INTEGER) or to
// the serialized "HLL1:" sketch (VARCHAR).
AggHooks SketchHooks(bool estimate);

// The group-key encoding: display string per key column, \x01 for NULL
// (distinct from any display string), \x02 after every column; -0.0 and
// every NaN take the keys of 0.0 and NaN, so groups agree with SQL `=`.
// Sorting by it is the canonical aggregate output order.
std::string EncodeGroupKey(const storage::Row& row,
                           const std::vector<int>& cols);

// Grace-hash spilling is on when `budget_bytes` > 0: once the resident
// group table's estimated bytes exceed it, the table is pushed out into
// kSpillPartitions runs (partitioned by a hash of the encoded key) and
// the runs merge back at the end. `charge_write`/`charge_read` bill the
// simulated disk; `on_spill` reports each push-out. Output is
// byte-identical to the unbudgeted run: partials are mergeable and the
// merged table is key-ordered.
inline constexpr int kSpillPartitions = 8;
struct SpillPolicy {
  double budget_bytes = 0;
  std::function<Status(double bytes)> charge_write;
  std::function<Status(double bytes)> charge_read;
  std::function<void(double bytes, int64_t groups)> on_spill;
};

// Where an output column of a grouped aggregation comes from: one of the
// group's key values, or one finalized call.
struct AggColumn {
  bool is_group = false;
  int index = 0;
};

// The ordered group table, keyed by EncodeGroupKey over `key_cols`.
// Callers fold each row into the group Find returns, then call Admit.
class Aggregator {
 public:
  struct Group {
    storage::Row keys;             // key column values of the first row
    std::vector<AggState> states;  // one per call
  };
  using Groups = std::map<std::string, Group>;

  // `calls` and `spill` (may be null) are borrowed and must outlive the
  // aggregator.
  Aggregator(const std::vector<AggFunc>& calls, std::vector<int> key_cols,
             const SpillPolicy* spill = nullptr);

  // The group `row` belongs to, created with fresh states when new.
  Group& Find(const storage::Row& row);
  // Charges a group the last Find created against the budget, spilling
  // the resident table once it is over.
  Status Admit();
  // Merges the spilled runs back, after which groups() holds every
  // group. With `global_row`, an aggregation without keys over no input
  // still gets its one SQL row.
  Status Finish(bool global_row);

  Groups& groups() { return groups_; }
  // One row per group, in key order.
  Result<std::vector<storage::Row>> Finalize(
      const std::vector<AggColumn>& columns) const;

 private:
  double GroupBytes(const std::string& key, const Group& group) const;
  Status SpillResident();

  const std::vector<AggFunc>& calls_;
  std::vector<int> key_cols_;
  const SpillPolicy* spill_;
  Groups groups_;
  Groups::value_type* created_ = nullptr;
  std::vector<std::vector<std::pair<std::string, Group>>> runs_;
  double resident_bytes_ = 0;
};

}  // namespace fabric::exec

#endif  // FABRIC_EXEC_AGGREGATE_H_
