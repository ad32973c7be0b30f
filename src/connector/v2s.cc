#include "connector/v2s.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "connector/failover.h"
#include "obs/trace.h"
#include "storage/profile.h"
#include "vertica/session.h"
#include "vertica/sql_eval.h"

namespace fabric::connector {

using spark::PushDown;
using spark::SourceOptions;
using spark::TaskContext;
using storage::Row;
using storage::Schema;
using vertica::HashRange;
using vertica::QueryResult;

namespace {

// Unsigned overlap width between a partition range and a node range.
unsigned __int128 OverlapWidth(const HashRange& a, const HashRange& b) {
  constexpr unsigned __int128 kEnd = (static_cast<unsigned __int128>(1))
                                     << 64;
  unsigned __int128 a_lo = a.lower, a_hi = a.upper == 0 ? kEnd : a.upper;
  unsigned __int128 b_lo = b.lower, b_hi = b.upper == 0 ? kEnd : b.upper;
  unsigned __int128 lo = std::max(a_lo, b_lo);
  unsigned __int128 hi = std::min(a_hi, b_hi);
  return lo < hi ? hi - lo : 0;
}

}  // namespace

Result<std::shared_ptr<V2SRelation>> V2SRelation::Create(
    sim::Process& driver, vertica::Database* db,
    spark::SparkCluster* cluster, const SourceOptions& options) {
  auto relation = std::shared_ptr<V2SRelation>(new V2SRelation());
  relation->db_ = db;
  relation->cluster_ = cluster;
  FABRIC_ASSIGN_OR_RETURN(relation->table_, options.Get("table"));
  relation->aggregate_pushdown_enabled_ = !EqualsIgnoreCase(
      options.GetOr("aggregate_pushdown", "true"), "false");
  relation->resource_pool_ = options.GetOr("resource_pool", "");
  relation->num_partitions_ = static_cast<int>(
      options.GetIntOr("numpartitions", 4 * db->num_nodes()));
  if (relation->num_partitions_ <= 0) {
    return InvalidArgumentError("numpartitions must be positive");
  }

  // Driver-side catalog lookups over one short-lived session.
  int entry_node = 0;
  if (options.Has("host")) {
    FABRIC_ASSIGN_OR_RETURN(std::string host, options.Get("host"));
    FABRIC_ASSIGN_OR_RETURN(entry_node, db->ResolveNode(host));
  }
  FABRIC_ASSIGN_OR_RETURN(
      std::unique_ptr<vertica::Session> session,
      ConnectWithFailover(driver, db, entry_node,
                          &cluster->driver_host()));
  session->set_resource_pool(relation->resource_pool_);

  // One snapshot epoch for every partition query: the heart of V2S's
  // consistent parallel load (Section 3.1.2).
  if (options.Has("at_epoch")) {
    FABRIC_ASSIGN_OR_RETURN(relation->snapshot_epoch_,
                            options.GetInt("at_epoch"));
  } else {
    FABRIC_ASSIGN_OR_RETURN(
        QueryResult epochs,
        session->Execute(driver,
                         "SELECT current_epoch FROM v_catalog.epochs"));
    relation->snapshot_epoch_ = epochs.rows[0][0].int64_value();
  }

  relation->is_view_ = db->catalog().HasView(relation->table_);
  if (relation->is_view_) {
    // Views: schema via a zero-row probe; parallelism via synthetic hash
    // ranges over all output columns (Section 3.1.1).
    FABRIC_ASSIGN_OR_RETURN(
        QueryResult probe,
        session->Execute(driver, StrCat("SELECT * FROM ", relation->table_,
                                        " LIMIT 0 AT EPOCH ",
                                        relation->snapshot_epoch_)));
    relation->schema_ = probe.schema;
    for (int c = 0; c < relation->schema_.num_columns(); ++c) {
      relation->segmentation_columns_.push_back(
          relation->schema_.column(c).name);
    }
    relation->partition_ranges_ =
        vertica::EvenRingPartition(relation->num_partitions_);
    for (int p = 0; p < relation->num_partitions_; ++p) {
      relation->partition_nodes_.push_back(p % db->num_nodes());
    }
    FABRIC_RETURN_IF_ERROR(session->Close(driver));
    return relation;
  }

  FABRIC_ASSIGN_OR_RETURN(const vertica::TableDef* def,
                          db->catalog().GetTable(relation->table_));
  relation->schema_ = def->schema;

  // Segment layout from the system catalog (the connector's only source
  // of truth about data placement).
  FABRIC_ASSIGN_OR_RETURN(
      QueryResult segments,
      session->Execute(
          driver, StrCat("SELECT node_id, segment_lower, segment_upper "
                         "FROM v_catalog.segments WHERE table_name = '",
                         relation->table_, "' ORDER BY node_id")));
  std::vector<HashRange> node_ranges;
  for (const Row& row : segments.rows) {
    HashRange range;
    range.lower = vertica::sql::SignedToRingHash(row[1].int64_value());
    range.upper = row[2].is_null() ? 0
                                   : vertica::sql::SignedToRingHash(
                                         row[2].int64_value());
    node_ranges.push_back(range);
  }

  if (node_ranges.empty()) {
    // Unsegmented (replicated) table: synthetic ranges over all columns.
    for (int c = 0; c < relation->schema_.num_columns(); ++c) {
      relation->segmentation_columns_.push_back(
          relation->schema_.column(c).name);
    }
    relation->partition_ranges_ =
        vertica::EvenRingPartition(relation->num_partitions_);
    for (int p = 0; p < relation->num_partitions_; ++p) {
      relation->partition_nodes_.push_back(p % db->num_nodes());
    }
    FABRIC_RETURN_IF_ERROR(session->Close(driver));
    return relation;
  }

  for (int c : def->segmentation.columns) {
    relation->segmentation_columns_.push_back(def->schema.column(c).name);
  }
  relation->partition_ranges_ =
      vertica::EvenRingPartition(relation->num_partitions_);
  // Each partition connects to the node owning (the largest share of)
  // its slice of the ring; with partitions a multiple of nodes, every
  // slice is wholly local (Figure 4). The `locality=false` option is an
  // ablation switch that deliberately targets the wrong node, forcing
  // the intra-Vertica shuffling the design eliminates.
  bool locality = !EqualsIgnoreCase(options.GetOr("locality", "true"),
                                    "false");
  for (int p = 0; p < relation->num_partitions_; ++p) {
    int best_node = 0;
    unsigned __int128 best_overlap = 0;
    for (size_t n = 0; n < node_ranges.size(); ++n) {
      unsigned __int128 overlap =
          OverlapWidth(relation->partition_ranges_[p], node_ranges[n]);
      if (overlap > best_overlap) {
        best_overlap = overlap;
        best_node = static_cast<int>(n);
      }
    }
    if (!locality) {
      best_node = (best_node + 1) % db->num_nodes();
    }
    relation->partition_nodes_.push_back(best_node);
  }
  FABRIC_RETURN_IF_ERROR(session->Close(driver));
  return relation;
}

bool V2SRelation::SupportsAggregatePushdown(
    const spark::AggregatePushDown& agg) const {
  if (!aggregate_pushdown_enabled_) return false;
  // Soundness: the per-partition GROUP BY results concatenate without a
  // merge only when no group can straddle two partitions. Partitions are
  // disjoint slices of HASH(segmentation columns), so it suffices that
  // the grouping determines the segmentation hash — i.e. covers every
  // segmentation column — or that there is only one partition.
  if (num_partitions_ > 1) {
    for (const std::string& seg : segmentation_columns_) {
      bool covered = false;
      for (const std::string& g : agg.group_columns) {
        if (EqualsIgnoreCase(g, seg)) {
          covered = true;
          break;
        }
      }
      if (!covered) return false;
    }
  }
  for (const std::string& g : agg.group_columns) {
    if (!schema_.IndexOf(g).ok()) return false;
  }
  for (const spark::AggregateCall& call : agg.calls) {
    if (!call.column.empty() && !schema_.IndexOf(call.column).ok()) {
      return false;
    }
  }
  return true;
}

V2SRelation::QueryShape V2SRelation::BuildQueryShape(
    const PushDown& push) const {
  QueryShape shape;
  if (push.aggregate.has_value()) {
    // The whole GROUP BY runs inside Vertica; Spark receives finished
    // group rows (keys first, then one column per aggregate call).
    std::vector<std::string> items = push.aggregate->group_columns;
    for (const spark::AggregateCall& call : push.aggregate->calls) {
      items.push_back(call.ToSqlExpr());
    }
    shape.select_list = Join(items, ", ");
    if (!push.aggregate->group_columns.empty()) {
      shape.group_by = StrCat(" GROUP BY ",
                              Join(push.aggregate->group_columns, ", "));
    }
  } else if (push.count_only) {
    shape.select_list = "COUNT(*)";
  } else if (push.required_columns.empty()) {
    shape.select_list = "*";
  } else {
    shape.select_list = Join(push.required_columns, ", ");
  }
  for (const spark::ColumnPredicate& filter : push.filters) {
    shape.filter_where += StrCat(" AND ", filter.ToSqlCondition());
    ++shape.filter_conjuncts;
  }
  // LIMIT renders only for row scans: `SELECT COUNT(*) ... LIMIT 0`
  // would return zero rows and break the count read, and the driver
  // already applies the global cap, so exactness is preserved without it.
  if (push.limit >= 0 && !push.count_only && !push.aggregate.has_value()) {
    shape.limit_tail = StrCat(" LIMIT ", push.limit);
  }
  return shape;
}

std::string V2SRelation::RenderPartitionQuery(int partition,
                                              const QueryShape& shape) const {
  // The HASH(...) ring-range bounds and the Spark column filters
  // (column <op> literal) are shapes the server's analyzer compiles into
  // predicate kernels (CompileScanPredicate), so a V2S partition query
  // runs on encoded columns. Three filter shapes stay in the interpreter
  // residual: a NULL literal, a type-mismatched comparison (which the
  // interpreter rejects with its error) and an INTEGER literal of
  // magnitude >= 2^53 against an INTEGER column (which only the
  // interpreter compares exactly). The vacuous `>= min` lower bound is emitted anyway: the
  // per-row HASH evaluation cost it charges is part of the Section 4.7.2
  // calibration.
  const HashRange& range = partition_ranges_[partition];
  std::string hash_call =
      StrCat("HASH(", Join(segmentation_columns_, ", "), ")");
  std::string where =
      StrCat(hash_call, " >= ",
             vertica::sql::RingHashToSigned(range.lower));
  int pushed_conjuncts = 1;
  if (range.upper != 0) {
    where += StrCat(" AND ", hash_call, " < ",
                    vertica::sql::RingHashToSigned(range.upper));
    ++pushed_conjuncts;
  }
  where += shape.filter_where;
  obs::IncrCounter(
      "v2s.pushdown_conjuncts",
      static_cast<double>(pushed_conjuncts + shape.filter_conjuncts));
  return StrCat("SELECT ", shape.select_list, " FROM ", table_, " WHERE ",
                where, shape.group_by, shape.limit_tail, " AT EPOCH ",
                snapshot_epoch_);
}

std::string V2SRelation::PartitionQuery(int partition,
                                        const PushDown& push) const {
  return RenderPartitionQuery(partition, BuildQueryShape(push));
}

Result<spark::ScanRelation::PartitionData> V2SRelation::ReadPartition(
    TaskContext& task, int partition, const PushDown& push) {
  if (partition < 0 || partition >= num_partitions_) {
    return InvalidArgumentError("bad partition index");
  }
  // The pushed query is built once per read: the partition-independent
  // shape (select list, filter conjuncts, LIMIT tail) compiles first,
  // then the ring-range bounds render this partition's SQL. The string
  // is reused verbatim across failover retries below — retries used to
  // rebuild it (and re-count the pushed conjuncts) on every attempt.
  const std::string sql =
      RenderPartitionQuery(partition, BuildQueryShape(push));
  // Failover loop: the partition query is idempotent (same SELECT at the
  // same snapshot epoch), so on a node death — before, during, or after
  // the query ran — the task re-targets the ring successor and re-issues
  // it. The result is byte-identical wherever it is served from: every
  // live copy answers AT EPOCH with the same rows.
  int target = partition_nodes_[partition];
  Status last_unavailable = Status::OK();
  int session_retries = 0;
  for (int tries = 0; tries <= db_->num_nodes(); ++tries) {
    // The span's begin attrs record what was pushed down; the end attrs
    // record what actually crossed the wire — the pair is the evidence
    // the pushdown tests assert on.
    uint64_t span = obs::TraceBegin(
        "v2s", "scan",
        {{"table", table_},
         {"partition", partition},
         {"node", target},
         {"attempt", task.attempt},
         {"epoch", snapshot_epoch_},
         {"count_only", push.count_only},
         {"aggregate", push.aggregate.has_value()},
         {"limit", push.limit},
         {"columns", static_cast<int64_t>(push.required_columns.size())},
         {"filters", static_cast<int64_t>(push.filters.size())}});
    auto fail = [&](const Status& status) {
      obs::TraceEnd(span, "v2s", "scan",
                    {{"partition", partition}, {"ok", false}});
      return status;
    };
    // UNAVAILABLE means the target node (or the connection to it) died;
    // anything else is a real error the task should surface.
    auto retryable = [](const Status& status) {
      return status.code() == StatusCode::kUnavailable;
    };
    auto reroute = [&](const Status& status) {
      obs::TraceEnd(span, "v2s", "scan",
                    {{"partition", partition}, {"ok", false}});
      obs::TraceEvent("v2s", "scan.failover",
                      {{"partition", partition}, {"from_node", target}});
      obs::IncrCounter("v2s.scan_failovers");
      last_unavailable = status;
      target = (target + 1) % db_->num_nodes();
    };

    auto connected = db_->Connect(*task.process, target,
                                  &task.worker_host());
    if (!connected.ok()) {
      if (retryable(connected.status())) {
        reroute(connected.status());
        continue;
      }
      // A node at MaxClientSessions is saturated, not broken: back off
      // and re-knock on the same node (bounded), mirroring
      // ConnectWithFailover's session-pool behavior.
      if (vertica::IsMaxClientSessionsError(connected.status()) &&
          session_retries < kMaxSessionRetries) {
        double backoff = kSessionRetryBackoff * (1 << session_retries);
        ++session_retries;
        obs::TraceEnd(span, "v2s", "scan",
                      {{"partition", partition}, {"ok", false}});
        obs::TraceEvent("v2s", "scan.session_backoff",
                        {{"partition", partition},
                         {"node", target},
                         {"retry", session_retries},
                         {"backoff", backoff}});
        obs::IncrCounter("v2s.session_backoffs");
        FABRIC_RETURN_IF_ERROR(task.process->Sleep(backoff));
        --tries;  // the backoff does not consume a failover try
        continue;
      }
      return fail(connected.status());
    }
    std::unique_ptr<vertica::Session> session =
        std::move(connected).value();
    session->set_resource_pool(resource_pool_);
    auto executed = session->Execute(*task.process, sql);
    if (!executed.ok()) {
      if (retryable(executed.status())) {
        reroute(executed.status());
        continue;
      }
      return fail(executed.status());
    }
    QueryResult result = std::move(executed).value();
    Status closed = session->Close(*task.process);
    if (!closed.ok()) return fail(closed);

    int64_t rows_returned = push.count_only
                                ? 1
                                : static_cast<int64_t>(result.rows.size());
    obs::TraceEnd(span, "v2s", "scan",
                  {{"partition", partition},
                   {"rows", rows_returned},
                   {"ok", true}});
    obs::IncrCounter("v2s.partitions_scanned");
    obs::IncrCounter("v2s.rows_returned",
                     static_cast<double>(rows_returned));
    if (push.aggregate.has_value()) obs::IncrCounter("v2s.agg_pushdowns");
    if (push.limit >= 0 && !push.count_only &&
        !push.aggregate.has_value()) {
      obs::IncrCounter("v2s.limit_pushdowns");
    }

    PartitionData data;
    if (push.count_only) {
      data.count = result.rows[0][0].int64_value();
      return data;
    }
    // Spark-side deserialization cost for the received rows.
    const CostModel& cost = cluster_->cost();
    FABRIC_RETURN_IF_ERROR(task.Compute(result.rows.size() *
                                        cost.spark_row_process_cpu *
                                        cost.data_scale));
    data.count = static_cast<int64_t>(result.rows.size());
    data.rows = std::move(result.rows);
    return data;
  }
  // Every node tried and unavailable: the cluster is down.
  return last_unavailable;
}

}  // namespace fabric::connector
