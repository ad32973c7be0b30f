// s2v_save: repeated S2V saves of dataset D1 (100 FLOAT columns) at 128
// partitions, the best setting of the paper's Fig. 6 and Tab. 4, in
// overwrite mode with the Tuple Mover on. This is the write path: the
// five-phase protocol and its bookkeeping SQL, Avro encoding, COPY
// parsing, column encoding, mergeout, 128 concurrent flows and hundreds
// of sim processes.
//
// Every save runs on a freshly built fabric whose target table already
// exists, so a save's virtual seconds and counter deltas depend only on
// its input rows; saves cycle through kVariants datasets drawn from the
// seed, and each repetition must reproduce the first exactly.

#include "harness/checks.h"
#include "harness/harness.h"
#include "harness/probes.h"

namespace perfbench {

namespace {

using fabric::Status;
using fabric::StrCat;
using fabric::bench::Fabric;
using fabric::storage::Row;

// 128 real rows stand in for the paper's 100M (one row per partition):
// small enough for tens of saves per run, so the save is dominated by the
// per-task protocol rather than by row volume. Virtual seconds depend on
// this down-scaling (see perfbench/README.md).
constexpr int kRealRows = 128;
constexpr double kPaperRows = 100e6;
constexpr int kPartitions = 128;
constexpr int kColumns = 100;
constexpr int kVariants = 4;
constexpr int kMinOps = 40;
constexpr const char* kTable = "d1";

fabric::bench::FabricOptions Options() {
  fabric::bench::FabricOptions options;
  options.real_rows = kRealRows;
  options.paper_rows = kPaperRows;
  return options;
}

Status Execute(Fabric& fabric, const std::string& sql,
               fabric::vertica::QueryResult* out = nullptr) {
  Status status;
  fabric.RunTimed([&](fabric::sim::Process& driver) {
    status = [&]() -> Status {
      FABRIC_ASSIGN_OR_RETURN(auto session,
                              fabric.db()->Connect(driver, 0, nullptr));
      FABRIC_ASSIGN_OR_RETURN(auto result, session->Execute(driver, sql));
      if (out != nullptr) *out = std::move(result);
      return session->Close(driver);
    }();
  });
  return status;
}

std::string CreateTableSql() {
  return StrCat("CREATE TABLE ", kTable, " (",
                fabric::bench::D1Schema(kColumns).ToDdlBody(), ")");
}

}  // namespace

void RunS2vSave(Context& ctx) {
  RunResult& r = ctx.result;
  r.min_ops = kMinOps;
  r.inputs["real_rows"] = kRealRows;
  r.inputs["paper_rows"] = kPaperRows;
  r.inputs["data_scale"] = kPaperRows / kRealRows;
  r.inputs["partitions"] = kPartitions;
  r.inputs["columns"] = kColumns;
  r.inputs["variants"] = kVariants;
  r.inputs["clients"] = 1;
  r.inputs["tuple_mover"] = Options().tuple_mover.enabled ? 1 : 0;
  r.input_labels["save_mode"] = "overwrite";
  r.input_labels["wm"] = "off (flat admission)";
  r.data_scale = kPaperRows / kRealRows;
  r.written_columns = kColumns;

  const fabric::storage::Schema schema = fabric::bench::D1Schema(kColumns);
  std::vector<std::vector<Row>> variants;
  std::vector<RowDigest> digests;
  for (int v = 0; v < kVariants; ++v) {
    variants.push_back(fabric::bench::D1Rows(kRealRows, kColumns,
                                             ctx.config.seed * kVariants + v));
    digests.push_back(DigestOf(variants.back()));
  }

  std::unique_ptr<Fabric> fabric;
  DeterminismLog determinism;
  ctx.RunTimedPhase([&] {
    const int64_t op_id = ctx.next_op++;
    const bool traced = ctx.Traced(op_id);
    const int variant = static_cast<int>(op_id % kVariants);

    // Set-up: destroy the previous fabric first (its tracer scope must
    // close before the next one opens), then build one holding the empty
    // target table.
    fabric.reset();
    Clock::time_point setup_start = Clock::now();
    fabric = std::make_unique<Fabric>(Options());
    Status created = Execute(*fabric, CreateTableSql());
    r.setup_s.push_back(MsSince(setup_start) / 1000);
    FABRIC_CHECK_OK(created);
    std::vector<Row> rows = variants[variant];

    ScopedSpan op_span(ctx.spans, "op.s2v_save", 0, op_id, traced);
    std::vector<double> before = BeginCounting(*fabric);
    Status saved;
    Clock::time_point start = Clock::now();
    double virtual_s = fabric->RunTimed([&](fabric::sim::Process& driver) {
      std::optional<fabric::spark::DataFrame> df;
      {
        ScopedSpan span(ctx.spans, "spark.create_dataframe", op_span.id(),
                        op_id, traced);
        auto created_df = fabric->spark()->CreateDataFrame(
            schema, std::move(rows), kPartitions);
        if (!created_df.ok()) {
          saved = created_df.status();
          return;
        }
        df = std::move(*created_df);
      }
      ScopedSpan span(ctx.spans, "connector.s2v_save", op_span.id(), op_id,
                      traced);
      saved = df->Write()
                  .Format(fabric::connector::kVerticaSourceName)
                  .Option("table", kTable)
                  .Option("numpartitions", kPartitions)
                  .Mode(fabric::spark::SaveMode::kOverwrite)
                  .Save(driver);
    });
    OpRecord op{"save", MsSince(start), virtual_s, saved.ok(), traced};
    std::vector<double> deltas =
        r.AddTotals(before, SnapshotCounters(*fabric));
    r.timed_host_s += op.host_ms / 1000;

    // Exactly-once check: the target holds the saved rows, each once.
    std::string problem;
    if (!saved.ok()) {
      problem = saved.ToString();
    } else {
      ScopedSpan span(ctx.spans, "check.s2v_target", 0, op_id, traced);
      fabric::vertica::QueryResult target;
      Status read = Execute(*fabric, StrCat("SELECT * FROM ", kTable),
                            &target);
      if (!read.ok()) {
        problem = read.ToString();
      } else if (!(DigestOf(target.rows) == digests[variant])) {
        problem = StrCat("target holds ", DigestOf(target.rows).ToString(),
                         "; saved ", digests[variant].ToString());
      }
    }
    if (problem.empty()) {
      problem = determinism.Check(StrCat("save of variant ", variant),
                                  virtual_s, deltas);
    }
    if (!problem.empty()) {
      op.ok = false;
      r.Fail(StrCat("op ", op_id, " save: ", problem));
    }
    op.ref_ms = ReferenceSampleMs();
    r.ops.push_back(op);
  });
  r.determinism_checked = determinism.checked();
  AddStorageTotals(fabric->db(), r);

  if (ctx.config.trace) {
    ProbeInputs inputs;
    inputs.schema = schema;
    inputs.rows = variants[0];
    for (size_t i = 0; i < variants[0].size(); i += kPartitions) {
      inputs.partition_rows.push_back(variants[0][i]);
    }
    inputs.statements = {CreateTableSql(), StrCat("SELECT * FROM ", kTable)};
    inputs.flows = kPartitions;
    inputs.db = fabric->db();
    RunProbes(ctx, inputs);
  }
}

}  // namespace perfbench
