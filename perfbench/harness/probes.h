#ifndef PERFBENCH_HARNESS_PROBES_H_
#define PERFBENCH_HARNESS_PROBES_H_

// Unit-cost probes for traced runs: each times calls into one layer's
// public functions on the workload's own inputs, so that a per-op count
// times its unit cost estimates that layer's share of an op's host time.

#include <string>
#include <vector>

#include "harness/harness.h"
#include "storage/schema.h"

namespace perfbench {

struct ProbeInputs {
  // Rows of the workload's tables; every column is encoded and decoded.
  fabric::storage::Schema schema;
  std::vector<fabric::storage::Row> rows;
  // One Spark partition's rows, for the Avro codec.
  std::vector<fabric::storage::Row> partition_rows;
  // SQL text the workload issues, for the parser.
  std::vector<std::string> statements;
  // Concurrent flows the workload opens (its partition or client count).
  int flows = 1;
  // The workload's fabric after the timed phase, for RosStats.
  fabric::vertica::Database* db = nullptr;
};

// Runs every probe and stores its results in ctx.result.probes, each
// under a "probe.<name>" span.
void RunProbes(Context& ctx, const ProbeInputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_PROBES_H_
