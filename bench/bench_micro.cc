// Microbenchmarks (google-benchmark) for the fabric's hot paths: ring
// hashing, columnar encodings, the Avro batch codec, SQL parsing, the
// flow simulator's re-rating step, and the vectorized scan engine
// (predicate kernels on encoded data vs the decode-then-filter
// baseline). These measure real host CPU (not virtual time) — the code
// the simulation actually executes.

#include <algorithm>
#include <chrono>
#include <variant>

#include <benchmark/benchmark.h>

#include "common/hash.h"
#include "exec/pipeline.h"
#include "vertica/pipeline.h"
#include "vertica/sql_eval.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "connector/avro.h"
#include "net/network.h"
#include "sim/engine.h"
#include "storage/column_cursor.h"
#include "storage/encoding.h"
#include "storage/scan_kernels.h"
#include "storage/schema.h"
#include "storage/segment_store.h"
#include "vertica/sql_parser.h"

namespace fabric {
namespace {

void BM_RingHashRow(benchmark::State& state) {
  int cols = static_cast<int>(state.range(0));
  Rng rng(1);
  storage::Row row;
  std::vector<int> indices;
  for (int c = 0; c < cols; ++c) {
    row.push_back(storage::Value::Float64(rng.NextDouble()));
    indices.push_back(c);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::RowSegmentationHash(row, indices));
  }
}
BENCHMARK(BM_RingHashRow)->Arg(2)->Arg(10)->Arg(100);

void BM_EncodeColumn(benchmark::State& state) {
  auto encoding = static_cast<storage::Encoding>(state.range(0));
  Rng rng(2);
  std::vector<storage::Value> values;
  for (int i = 0; i < 4096; ++i) {
    values.push_back(storage::Value::Int64(rng.NextInt64(0, 15)));
  }
  for (auto _ : state) {
    auto chunk =
        storage::EncodeColumnAs(storage::DataType::kInt64, encoding,
                                values);
    benchmark::DoNotOptimize(chunk);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EncodeColumn)
    ->Arg(static_cast<int>(storage::Encoding::kPlain))
    ->Arg(static_cast<int>(storage::Encoding::kRle))
    ->Arg(static_cast<int>(storage::Encoding::kDictionary));

void BM_DecodeColumn(benchmark::State& state) {
  Rng rng(3);
  std::vector<storage::Value> values;
  for (int i = 0; i < 4096; ++i) {
    values.push_back(storage::Value::Float64(rng.NextDouble()));
  }
  auto chunk = storage::EncodeColumn(storage::DataType::kFloat64, values);
  for (auto _ : state) {
    auto decoded = storage::DecodeColumn(*chunk);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_DecodeColumn);

// EncodeColumn's automatic choice (one measuring pass, then the winner
// only). Arg 0: a D1-like FLOAT column of uniform [0, 1) values (PLAIN
// wins) of 128 or 4 096 rows; arg 1: a 4 096-row VARCHAR column over 12
// short words (DICTIONARY wins).
void BM_EncodeColumnAuto(benchmark::State& state) {
  const bool text = state.range(0) == 1;
  const int rows = static_cast<int>(state.range(1));
  Rng rng(5);
  std::vector<storage::Value> values;
  values.reserve(rows);
  for (int i = 0; i < rows; ++i) {
    values.push_back(text ? storage::Value::Varchar(
                                StrCat("word", rng.NextInt64(0, 11)))
                          : storage::Value::Float64(rng.NextDouble()));
  }
  const storage::DataType type =
      text ? storage::DataType::kVarchar : storage::DataType::kFloat64;
  for (auto _ : state) {
    auto chunk = storage::EncodeColumn(type, values);
    benchmark::DoNotOptimize(chunk);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_EncodeColumnAuto)
    ->Args({0, 128})
    ->Args({0, 4096})
    ->Args({1, 4096});

void BM_AvroBatchRoundTrip(benchmark::State& state) {
  int cols = static_cast<int>(state.range(0));
  std::vector<storage::ColumnDef> defs;
  for (int c = 0; c < cols; ++c) {
    defs.push_back({StrCat("c", c), storage::DataType::kFloat64});
  }
  storage::Schema schema(std::move(defs));
  Rng rng(4);
  std::vector<storage::Row> rows;
  for (int i = 0; i < 256; ++i) {
    storage::Row row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(storage::Value::Float64(rng.NextDouble()));
    }
    rows.push_back(std::move(row));
  }
  for (auto _ : state) {
    std::string encoded = connector::AvroEncodeBatch(schema, rows);
    auto decoded = connector::AvroDecodeBatch(schema, encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_AvroBatchRoundTrip)->Arg(2)->Arg(100);

void BM_SqlParse(benchmark::State& state) {
  const char* sql =
      "SELECT c0, c1, COUNT(*) AS n FROM d1 WHERE HASH(c0, c1) >= "
      "-9223372036854775808 AND HASH(c0, c1) < 42 AND c5 > 0.5 "
      "GROUP BY c0, c1 ORDER BY n DESC LIMIT 100 AT EPOCH 7";
  for (auto _ : state) {
    auto statement = vertica::sql::Parse(sql);
    benchmark::DoNotOptimize(statement);
  }
}
BENCHMARK(BM_SqlParse);

// ------------------------------------------------ vectorized scan engine

// Column data shaped for the requested encoding: long runs for RLE,
// shuffled low-cardinality for dictionary, full-range random for plain
// (so the auto-chooser in EncodeColumn would pick the same encoding).
std::vector<storage::Value> ScanBenchValues(storage::Encoding encoding,
                                            int rows) {
  Rng rng(7);
  std::vector<storage::Value> values;
  values.reserve(rows);
  for (int i = 0; i < rows; ++i) {
    int64_t v;
    switch (encoding) {
      case storage::Encoding::kRle:
        v = (i / 256) % 16;
        break;
      case storage::Encoding::kDictionary:
        v = rng.NextInt64(0, 15);
        break;
      default:
        v = rng.NextInt64(0, int64_t{1} << 30);
        break;
    }
    values.push_back(storage::Value::Int64(v));
  }
  return values;
}

constexpr int kScanRows = 4096;

// `c < 8` evaluated by the predicate kernels on the encoded form: once
// per run (RLE), once per distinct value (dictionary), tight loop
// (plain). Compare with BM_FilterDecodeBaseline on the same chunk.
void BM_FilterEncodedKernel(benchmark::State& state) {
  auto encoding = static_cast<storage::Encoding>(state.range(0));
  auto chunk =
      storage::EncodeColumnAs(storage::DataType::kInt64, encoding,
                              ScanBenchValues(encoding, kScanRows));
  FABRIC_CHECK_OK(chunk.status());
  storage::CompareTerm term;
  term.op = storage::CompareOp::kLt;
  term.number = 8;
  for (auto _ : state) {
    storage::ColumnCursor cursor;
    FABRIC_CHECK_OK(cursor.Open(&*chunk));
    storage::ColumnBatch batch;
    storage::SelectionVector sel;
    size_t matched = 0;
    while (true) {
      auto more = cursor.Next(&batch);
      FABRIC_CHECK_OK(more.status());
      if (!*more) break;
      sel.resize(batch.length);
      for (uint32_t i = 0; i < batch.length; ++i) sel[i] = batch.base + i;
      storage::FilterCompare(term, cursor, batch, &sel);
      matched += sel.size();
    }
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() * kScanRows);
}
BENCHMARK(BM_FilterEncodedKernel)
    ->Arg(static_cast<int>(storage::Encoding::kPlain))
    ->Arg(static_cast<int>(storage::Encoding::kRle))
    ->Arg(static_cast<int>(storage::Encoding::kDictionary));

// The pre-engine scan path: decode every row to a boxed Value, then
// filter with Value::Compare. Kept compiled as the baseline the engine's
// >= 3x throughput claim is measured against.
void BM_FilterDecodeBaseline(benchmark::State& state) {
  auto encoding = static_cast<storage::Encoding>(state.range(0));
  auto chunk =
      storage::EncodeColumnAs(storage::DataType::kInt64, encoding,
                              ScanBenchValues(encoding, kScanRows));
  FABRIC_CHECK_OK(chunk.status());
  storage::Value literal = storage::Value::Int64(8);
  for (auto _ : state) {
    auto decoded = storage::DecodeColumn(*chunk);
    FABRIC_CHECK_OK(decoded.status());
    size_t matched = 0;
    for (const storage::Value& v : *decoded) {
      if (v.is_null()) continue;
      auto c = v.Compare(literal);
      if (c.ok() && *c < 0) ++matched;
    }
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() * kScanRows);
}
BENCHMARK(BM_FilterDecodeBaseline)
    ->Arg(static_cast<int>(storage::Encoding::kPlain))
    ->Arg(static_cast<int>(storage::Encoding::kRle))
    ->Arg(static_cast<int>(storage::Encoding::kDictionary));

// Late materialization: filter to ~1/16 of an RLE column, then gather
// only the survivors into rows (boxing once per run).
void BM_GatherSelected(benchmark::State& state) {
  auto chunk = storage::EncodeColumnAs(
      storage::DataType::kInt64, storage::Encoding::kRle,
      ScanBenchValues(storage::Encoding::kRle, kScanRows));
  FABRIC_CHECK_OK(chunk.status());
  storage::CompareTerm term;
  term.op = storage::CompareOp::kEq;
  term.number = 3;
  for (auto _ : state) {
    storage::ColumnCursor cursor;
    FABRIC_CHECK_OK(cursor.Open(&*chunk));
    storage::ColumnBatch batch;
    storage::SelectionVector sel;
    std::vector<storage::Row> out;
    while (true) {
      auto more = cursor.Next(&batch);
      FABRIC_CHECK_OK(more.status());
      if (!*more) break;
      sel.resize(batch.length);
      for (uint32_t i = 0; i < batch.length; ++i) sel[i] = batch.base + i;
      storage::FilterCompare(term, cursor, batch, &sel);
      size_t out_base = out.size();
      out.resize(out_base + sel.size(), storage::Row(1));
      storage::GatherColumn(cursor, batch, sel, 0, &out, out_base);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kScanRows);
}
BENCHMARK(BM_GatherSelected);

// Whole-store filtered scan (SegmentStore::Scan): container pruning,
// kernels, selection-vector materialization — per column encoding.
void BM_SegmentStoreScan(benchmark::State& state) {
  auto encoding = static_cast<storage::Encoding>(state.range(0));
  storage::Schema schema({{"c0", storage::DataType::kInt64},
                          {"c1", storage::DataType::kFloat64}});
  std::vector<storage::Value> keys = ScanBenchValues(encoding, kScanRows);
  Rng rng(8);
  std::vector<storage::Row> rows;
  rows.reserve(kScanRows);
  for (int i = 0; i < kScanRows; ++i) {
    rows.push_back({keys[i], storage::Value::Float64(rng.NextDouble())});
  }
  storage::SegmentStore store(schema);
  FABRIC_CHECK_OK(store.InsertPendingDirect(1, std::move(rows)));
  store.CommitTxn(1, 1);
  storage::ScanPredicate predicate;
  predicate.compares.push_back(
      {0, storage::CompareOp::kLt, false, 8, ""});
  storage::ScanSpec spec;
  spec.as_of = 1;
  spec.predicate = &predicate;
  for (auto _ : state) {
    storage::ScanStats stats;
    auto out = store.Scan(spec, &stats);
    FABRIC_CHECK_OK(out.status());
    benchmark::DoNotOptimize(out->size());
  }
  state.SetItemsProcessed(state.iterations() * kScanRows);
}
BENCHMARK(BM_SegmentStoreScan)
    ->Arg(static_cast<int>(storage::Encoding::kPlain))
    ->Arg(static_cast<int>(storage::Encoding::kRle))
    ->Arg(static_cast<int>(storage::Encoding::kDictionary));

void BM_FlowRerate(benchmark::State& state) {
  // Measures the water-filling recompute triggered by flow churn with N
  // concurrent flows across shared links.
  int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    net::Network network(&engine);
    net::LinkId shared = network.AddLink("shared", 1e9);
    for (int i = 0; i < flows; ++i) {
      net::LinkId own = network.AddLink("own", 1e8);
      engine.Spawn("f", [&network, own, shared](sim::Process& self) {
        (void)network.Transfer(self, {own, shared}, 1e6);
      });
    }
    Status status = engine.Run();
    benchmark::DoNotOptimize(status);
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowRerate)->Arg(8)->Arg(64)->Arg(256);

void BM_SimSwitch(benchmark::State& state) {
  // The sim kernel's cost per step: two processes ping-pong with Sleep(0),
  // so every engine step resumes one process and switches back. Reports
  // host ns per step of Engine::Run, excluding engine setup and teardown.
  constexpr int kYields = 10000;
  double run_ns = 0;
  double steps = 0;
  for (auto _ : state) {
    sim::Engine engine;
    for (int p = 0; p < 2; ++p) {
      engine.Spawn("ping", [](sim::Process& self) {
        for (int i = 0; i < kYields; ++i) FABRIC_CHECK_OK(self.Sleep(0));
      });
    }
    auto start = std::chrono::steady_clock::now();
    FABRIC_CHECK_OK(engine.Run());
    run_ns += std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    steps += static_cast<double>(engine.steps());
  }
  state.counters["ns_per_step"] = run_ns / steps;
}
BENCHMARK(BM_SimSwitch)->UseRealTime();

// --------------------------------------------------- pipeline compiler

// The interpreter-residual hot path both ways: a depth-d arithmetic
// predicate evaluated per row through the SQL interpreter vs lowered
// once into exec kernels and run over 1024-row blocks. The arg is the
// expression depth (extra multiply-add levels around the column).
storage::Schema PipelineSchema() {
  return storage::Schema({{"id", storage::DataType::kInt64},
                          {"score", storage::DataType::kFloat64},
                          {"name", storage::DataType::kVarchar}});
}

std::vector<storage::Row> PipelineRows(int n) {
  Rng rng(11);
  std::vector<storage::Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back({storage::Value::Int64(i),
                    storage::Value::Float64(rng.NextDouble()),
                    storage::Value::Varchar(rng.NextString(8))});
  }
  return rows;
}

std::string DeepPredicateSql(int depth) {
  std::string expr = "score";
  for (int d = 0; d < depth; ++d) {
    expr = StrCat("(", expr, " * 1.01 + 0.003)");
  }
  return StrCat(expr, " < 0.7 AND id % 5 <> 0");
}

void BM_PredicateInterpreted(benchmark::State& state) {
  const storage::Schema schema = PipelineSchema();
  const auto rows = PipelineRows(4096);
  auto expr = vertica::sql::ParseExpression(
      DeepPredicateSql(static_cast<int>(state.range(0))));
  FABRIC_CHECK_OK(expr.status());
  for (auto _ : state) {
    size_t kept = 0;
    for (const storage::Row& row : rows) {
      vertica::sql::EvalContext context;
      context.schema = &schema;
      context.row = &row;
      auto match = vertica::sql::EvalPredicate(**expr, context);
      FABRIC_CHECK_OK(match.status());
      kept += *match ? 1 : 0;
    }
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_PredicateInterpreted)->Arg(1)->Arg(4)->Arg(8);

void BM_PredicateCompiled(benchmark::State& state) {
  const storage::Schema schema = PipelineSchema();
  const auto rows = PipelineRows(4096);
  auto expr = vertica::sql::ParseExpression(
      DeepPredicateSql(static_cast<int>(state.range(0))));
  FABRIC_CHECK_OK(expr.status());
  auto program = vertica::LowerExpr(**expr, schema);
  FABRIC_CHECK(program.has_value()) << "predicate did not compile";
  exec::EvalState eval_state;
  std::vector<uint32_t> active(exec::kBlockRows);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    size_t kept = 0;
    for (size_t base = 0; base < rows.size(); base += exec::kBlockRows) {
      size_t block = std::min(rows.size() - base, exec::kBlockRows);
      active.resize(block);
      for (size_t i = 0; i < block; ++i) {
        active[i] = static_cast<uint32_t>(i);
      }
      bool handled =
          exec::RunFilter(*program, rows.data() + base, block, active,
                          &eval_state, &out);
      FABRIC_CHECK(handled) << "compiled predicate bailed";
      kept += out.size();
    }
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_PredicateCompiled)->Arg(1)->Arg(4)->Arg(8);

// A full interpreter-residual SELECT body (filter + projected
// expressions) the two ways the executor runs it.
constexpr const char* kSelectSql =
    "SELECT id * 2 + 1, score / 2.5, UPPER(name), LENGTH(name) "
    "FROM t WHERE score < 0.7 AND id % 5 <> 0";

void BM_SelectInterpreted(benchmark::State& state) {
  const storage::Schema schema = PipelineSchema();
  const auto rows = PipelineRows(4096);
  auto statement = vertica::sql::Parse(kSelectSql);
  FABRIC_CHECK_OK(statement.status());
  const auto& select = std::get<vertica::sql::SelectStmt>(*statement);
  for (auto _ : state) {
    std::vector<storage::Row> out;
    for (const storage::Row& row : rows) {
      vertica::sql::EvalContext context;
      context.schema = &schema;
      context.row = &row;
      auto match = vertica::sql::EvalPredicate(*select.where, context);
      FABRIC_CHECK_OK(match.status());
      if (!*match) continue;
      storage::Row projected;
      for (const auto& item : select.items) {
        auto value = vertica::sql::Eval(*item.expr, context);
        FABRIC_CHECK_OK(value.status());
        projected.push_back(*std::move(value));
      }
      out.push_back(std::move(projected));
    }
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_SelectInterpreted);

void BM_SelectCompiled(benchmark::State& state) {
  const storage::Schema schema = PipelineSchema();
  const auto rows = PipelineRows(4096);
  auto statement = vertica::sql::Parse(kSelectSql);
  FABRIC_CHECK_OK(statement.status());
  const auto& select = std::get<vertica::sql::SelectStmt>(*statement);
  auto compiled =
      vertica::LowerSelect(select, schema, nullptr, nullptr);
  FABRIC_CHECK(compiled.has_value()) << "select did not compile";
  for (auto _ : state) {
    auto out = exec::RunCompiledSelect(compiled->select, rows);
    FABRIC_CHECK(out.has_value()) << "compiled select bailed";
    benchmark::DoNotOptimize(out->size());
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_SelectCompiled);

}  // namespace
}  // namespace fabric

BENCHMARK_MAIN();
