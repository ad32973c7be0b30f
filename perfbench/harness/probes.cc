#include "harness/probes.h"

#include <algorithm>
#include <memory>

#include "connector/avro.h"
#include "net/network.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "storage/encoding.h"
#include "vertica/sql_parser.h"

namespace perfbench {

namespace {

using fabric::storage::Row;
using fabric::storage::Value;

// Each probe repeats its calls until at least this much host time has
// passed, so that timer resolution and one-off cache misses vanish.
constexpr double kProbeMs = 50;

// Repeats `body` (which returns the units of work it did) until kProbeMs
// elapsed; returns host microseconds per unit.
template <typename Body>
double UsPerUnit(Body body) {
  Clock::time_point start = Clock::now();
  double units = 0;
  do {
    units += body();
  } while (MsSince(start) < kProbeMs);
  return units > 0 ? MsSince(start) * 1000 / units : 0;
}

// A metrics-only tracer of its own, so the probes count their own work
// (and pay the same counter updates a workload's fabric pays).
class ProbeTracer {
 public:
  explicit ProbeTracer(fabric::sim::Engine* engine)
      : tracer_([engine] { return engine->now(); },
                fabric::obs::Tracer::Options{.capture_events = false}),
        install_(&tracer_) {}
  double counter(const char* name) const {
    return tracer_.metrics().counter(name);
  }

 private:
  fabric::obs::Tracer tracer_;
  fabric::obs::ScopedTracer install_;
};

// Host microseconds per engine step while two processes hand control to
// each other.
double ProbeSimSwitchUs() {
  constexpr int kRounds = 2000;
  uint64_t steps = 0;
  Clock::time_point start = Clock::now();
  do {
    fabric::sim::Engine engine;
    ProbeTracer tracer(&engine);
    for (const char* name : {"ping", "pong"}) {
      engine.Spawn(name, [](fabric::sim::Process& self) {
        for (int i = 0; i < kRounds; ++i) {
          if (!self.Sleep(0).ok()) return;
        }
      });
    }
    FABRIC_CHECK_OK(engine.Run());
    steps += engine.steps();
  } while (MsSince(start) < kProbeMs);
  return MsSince(start) * 1000 / static_cast<double>(steps);
}

// Host milliseconds to run `flows` processes that each either transfer
// a staggered number of bytes from their own link into one shared link
// (a partition fan-in like the connector's) or, with `transfer` false,
// only sleep. Adds the network's recompute count to *recomputes.
double FanInMs(int flows, bool transfer, double* recomputes) {
  Clock::time_point start = Clock::now();
  fabric::sim::Engine engine;
  ProbeTracer tracer(&engine);
  fabric::net::Network network(&engine);
  fabric::net::LinkId sink = network.AddLink("sink", 250e6);
  for (int i = 0; i < flows; ++i) {
    fabric::net::LinkId own = network.AddLink(fabric::StrCat("src", i), 125e6);
    double bytes = 1e6 * (1 + i % 7);
    engine.Spawn(fabric::StrCat("flow", i),
                 [&network, own, sink, bytes, transfer](
                     fabric::sim::Process& self) {
                   FABRIC_CHECK_OK(transfer
                                       ? network.Transfer(self, {own, sink},
                                                          bytes)
                                       : self.Sleep(bytes / 125e6));
                 });
  }
  FABRIC_CHECK_OK(engine.Run());
  *recomputes += tracer.counter("net.recomputes");
  return MsSince(start);
}

// Host microseconds per max-min recompute with `flows` concurrent
// transfers: the fan-in's host time minus that of the same processes
// sleeping instead (process start and switching are the sim layer's
// cost, not the network's), over the recomputes it triggered.
double ProbeNetRecomputeUs(int flows) {
  double recomputes = 0, transfer_ms = 0, sleep_ms = 0;
  Clock::time_point start = Clock::now();
  do {
    transfer_ms += FanInMs(flows, true, &recomputes);
    double unused = 0;
    sleep_ms += FanInMs(flows, false, &unused);
  } while (MsSince(start) < 2 * kProbeMs);
  return std::max(0.0, transfer_ms - sleep_ms) * 1000 / recomputes;
}

std::vector<std::vector<Value>> Columns(const fabric::storage::Schema& schema,
                                        const std::vector<Row>& rows) {
  std::vector<std::vector<Value>> columns(schema.num_columns());
  for (const Row& row : rows) {
    for (size_t c = 0; c < columns.size(); ++c) columns[c].push_back(row[c]);
  }
  return columns;
}

}  // namespace

void RunProbes(Context& ctx, const ProbeInputs& in) {
  std::map<std::string, double>& probes = ctx.result.probes;
  auto span = [&ctx](const char* name) {
    return std::make_unique<ScopedSpan>(ctx.spans, name, 0, -1);
  };

  {
    auto s = span("probe.sim_switch");
    probes["sim.switch_us"] = ProbeSimSwitchUs();
  }
  {
    auto s = span("probe.net_recompute");
    probes["net.recompute_us"] = ProbeNetRecomputeUs(in.flows);
  }

  std::vector<std::vector<Value>> columns = Columns(in.schema, in.rows);
  double values_per_pass =
      static_cast<double>(in.rows.size()) * columns.size() / 1000.0;
  std::vector<fabric::storage::ColumnChunk> chunks;
  {
    auto s = span("probe.encode");
    probes["storage.encode_us_per_kvalue"] = UsPerUnit([&] {
      chunks.clear();
      for (size_t c = 0; c < columns.size(); ++c) {
        auto chunk =
            fabric::storage::EncodeColumn(in.schema.column(static_cast<int>(c)).type,
                                          columns[c]);
        FABRIC_CHECK_OK(chunk.status());
        chunks.push_back(std::move(*chunk));
      }
      return values_per_pass;
    });
  }
  {
    auto s = span("probe.decode");
    probes["storage.decode_us_per_kvalue"] = UsPerUnit([&] {
      for (const auto& chunk : chunks) {
        FABRIC_CHECK_OK(fabric::storage::DecodeColumn(chunk).status());
      }
      return values_per_pass;
    });
  }

  double krows = static_cast<double>(in.partition_rows.size()) / 1000.0;
  std::string encoded;
  {
    auto s = span("probe.avro_encode");
    probes["connector.avro_encode_us_per_krow"] = UsPerUnit([&] {
      encoded = fabric::connector::AvroEncodeBatch(in.schema,
                                                   in.partition_rows);
      return krows;
    });
  }
  {
    auto s = span("probe.avro_decode");
    probes["connector.avro_decode_us_per_krow"] = UsPerUnit([&] {
      FABRIC_CHECK_OK(
          fabric::connector::AvroDecodeBatch(in.schema, encoded).status());
      return krows;
    });
  }

  {
    auto s = span("probe.parse");
    probes["sql.parse_us"] = UsPerUnit([&] {
      for (const std::string& sql : in.statements) {
        FABRIC_CHECK_OK(fabric::vertica::sql::Parse(sql).status());
      }
      return static_cast<double>(in.statements.size());
    });
  }

  {
    auto s = span("probe.ros_stats");
    std::vector<fabric::storage::SegmentStore*> stores;
    double containers = 0;
    for (int node = 0; node < in.db->num_nodes(); ++node) {
      for (const auto& hosted : in.db->HostedStores(node)) {
        stores.push_back(hosted.store);
        containers += static_cast<double>(hosted.store->RosStats().size());
      }
    }
    probes["storage.ros_containers"] = containers;
    size_t sink = 0;
    probes["storage.ros_stats_us"] = UsPerUnit([&] {
      for (auto* store : stores) sink += store->RosStats().size();
      return static_cast<double>(stores.size());
    });
    FABRIC_CHECK(sink > 0 || containers == 0);
  }
}

}  // namespace perfbench
