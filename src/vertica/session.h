#ifndef FABRIC_VERTICA_SESSION_H_
#define FABRIC_VERTICA_SESSION_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "vertica/database.h"
#include "vertica/projections/planner.h"
#include "vertica/sql_ast.h"

namespace fabric::exec {
struct SpillPolicy;
}  // namespace fabric::exec

namespace fabric::vertica {

// Stable message prefix of the FAILED_PRECONDITION error a per-table
// forced-projection hint raises when the named projection cannot serve
// the query (unknown, wrong anchor, or ineligible for the shape).
inline constexpr char kForcedProjectionToken[] =
    "FORCED_PROJECTION_INELIGIBLE";

// Stable message prefix of the FAILED_PRECONDITION error a forced
// "merge" join strategy raises when the two sides' layouts cannot feed a
// merge join (either side lacks a projection sorted on its join key).
inline constexpr char kForcedJoinStrategyToken[] =
    "FORCED_JOIN_STRATEGY_UNAVAILABLE";

// A fully planned two-table INNER JOIN (both sides base tables, simple
// column-equality ON): the join keys, the anchor columns each side must
// scan, the chosen layout per side and the join strategy they imply.
// Shared by the executor and EXPLAIN.
struct JoinQueryPlan {
  const TableDef* left_table = nullptr;
  const TableDef* right_table = nullptr;
  int left_key = -1;   // join-key column index in each anchor schema
  int right_key = -1;
  std::vector<int> left_needed;   // anchor columns each side scans,
  std::vector<int> right_needed;  // ascending, join key included
  projections::JoinPlan plan;
  std::vector<std::pair<std::string, double>> left_candidates;
  std::vector<std::pair<std::string, double>> right_candidates;
};

// One client connection to a Vertica node (the JDBC-connection analogue
// the connector tasks hold). Sessions execute SQL with full cost
// accounting and carry transaction state. Sessions are not shared across
// processes.
//
// Error handling mirrors a real driver: a killed process sees CANCELLED
// from Execute; the session's open transaction is rolled back when the
// session is destroyed (the server noticing the dropped connection).
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Executes one SQL statement. SELECT streams its result back to the
  // client with per-connection serialization costs; DML returns the
  // affected-row count; DDL auto-commits.
  Result<QueryResult> Execute(sim::Process& self, std::string_view sql);

  // Graceful close: rolls back any open transaction, frees the session
  // slot, charges teardown latency.
  Status Close(sim::Process& self);

  // Instant host-side cleanup (rollback + slot release) used on abandoned
  // sessions — what the server does when the TCP connection drops. Safe
  // to call from killed processes and destructors.
  void Abandon();

  int node() const { return node_; }
  Database* database() const { return db_; }
  bool in_transaction() const { return txn_ != 0; }

  // True once the node this session was attached to died. A broken
  // session fails every further statement with UNAVAILABLE; its open
  // transaction aborts when the in-flight statement unwinds (or on
  // Abandon/Close). Set by Database::KillNode.
  bool broken() const { return broken_; }
  void MarkBroken() { broken_ = true; }

  // Workload-manager pool this session's statements are admitted
  // against ("" = the default pool). No-op when the database runs
  // without named pools.
  void set_resource_pool(std::string pool) {
    resource_pool_ = std::move(pool);
  }
  const std::string& resource_pool() const { return resource_pool_; }
  // Per-query memory to request at admission (0: the pool's derived
  // per-query grant).
  void set_memory_request(double bytes) { memory_request_ = bytes; }

  // The admission grant covering the currently executing statement
  // (invalid between statements or when WM is off). Budget-aware
  // operators read their memory allowance from it.
  const wm::Grant& current_grant() const { return wm_grant_; }

  // Observability aids (the server's view of this session's last write,
  // exposed so instrumented clients can distinguish "commit durable, ack
  // lost to a kill" from "commit never happened" — the Section 2.2.2
  // hazard). Protocol code must NOT branch on these; only tracing and
  // conformance tests read them.
  //
  // Epoch of the most recent durable commit (explicit COMMIT or DML
  // autocommit) on this session; 0 if the last commit attempt never
  // reached durability.
  storage::Epoch last_commit_epoch() const { return last_commit_epoch_; }
  // Affected-row count of the most recent UPDATE, recorded even when the
  // statement's ack was lost; -1 before any UPDATE ran.
  int64_t last_update_affected() const { return last_update_affected_; }

  // Test hook pinning the planner's projection choice for base-table
  // scans: nullopt = automatic (default), "" = force the super
  // projection, a name = force that projection when eligible (silently
  // falling back to the super projection otherwise — legacy semantics).
  void set_forced_projection(std::optional<std::string> name) {
    forced_projection_ = std::move(name);
  }

  // Per-table variant for joins: pins the projection used whenever
  // `table` is scanned ("" = the super projection). Unlike the legacy
  // session-wide hint, an unknown/ineligible name fails the statement
  // with a FAILED_PRECONDITION error prefixed kForcedProjectionToken.
  // Takes precedence over the session-wide hint for that table.
  void set_forced_projection(const std::string& table,
                             const std::string& projection) {
    forced_table_projections_[ToLower(table)] = projection;
  }
  void clear_forced_projections() {
    forced_table_projections_.clear();
    forced_projection_.reset();
  }

  // Test hook pinning the join strategy: nullopt = automatic (default),
  // "hash" = always allowed, "merge" = fail the statement with a
  // FAILED_PRECONDITION error prefixed kForcedJoinStrategyToken when the
  // sides' layouts cannot feed a merge join.
  void set_forced_join_strategy(std::optional<std::string> strategy) {
    forced_join_strategy_ = std::move(strategy);
  }

  // Internal: executes a parsed SELECT without streaming to the client
  // (used for views and INSERT ... SELECT).
  Result<QueryResult> ExecuteSelectInternal(sim::Process& self,
                                            const sql::SelectStmt& select,
                                            int view_depth);

 private:
  friend class Database;
  friend class CopyStream;

  Session(Database* db, int node, const net::Host* client);

  // Statement dispatchers.
  Result<QueryResult> ExecSelect(sim::Process& self,
                                 const sql::SelectStmt& select,
                                 bool to_client, int view_depth);
  // The INNER JOIN arm of ExecSelect: plans both sides (merge join on
  // co-sorted projections, hash join otherwise; views, system tables
  // and complex ON scan each side as an internal SELECT *), then joins
  // equality ONs with the one equi-join kernel and anything else with a
  // nested loop.
  Result<QueryResult> ExecJoin(sim::Process& self,
                               const sql::SelectStmt& select, bool to_client,
                               int view_depth, const exec::SpillPolicy* spill);
  // Distributed scan of one base table through an already-chosen layout
  // (the tail of ExecSelect; also used for each side of a planned join).
  Result<QueryResult> ExecScanSelect(sim::Process& self,
                                     const sql::SelectStmt& select,
                                     const TableDef* def,
                                     const projections::PlanChoice& plan,
                                     bool to_client, const exec::SpillPolicy* spill);
  // Node-local merge join of co-located layouts: every node joins its
  // own segments of both sides and ships only the join output to the
  // initiator. Returns combined rows ordered by (segment, left storage
  // order) — byte-identical to the gathered hash join's row order.
  Result<std::vector<storage::Row>> ExecCoLocatedJoin(
      sim::Process& self, const sql::SelectStmt& select,
      const JoinQueryPlan& jq);
  // The epoch one scan of the running SELECT reads. A scan without an
  // AT EPOCH of its own (`at_epoch` < 0) reads the statement snapshot:
  // the first such scan resolves it (the statement's AT EPOCH, or the
  // current epoch) and every later one shares it — the other join side,
  // view bodies, the co-located join. A view body's own AT EPOCH is a
  // fixed epoch and is read as such. Each epoch is checked once, failing
  // OUT_OF_RANGE when it is in the future or below the AHM, and stays
  // pinned until the outermost ExecSelect returns.
  Result<storage::Epoch> ReadSnapshot(int64_t at_epoch);
  // The AT EPOCH a scan plans its layout with: the epoch ReadSnapshot
  // already resolved for it, else `at_epoch`. So a scan planned after the
  // snapshot was taken never picks a projection created after it.
  int64_t PlanEpoch(int64_t at_epoch) const;
  // Resolves the physical layout for one base-table scan: the per-table
  // forced hint first (typed error when it cannot serve the shape), then
  // the legacy session-wide hint (silent fallback), then the cost-based
  // planner.
  Result<projections::PlanChoice> ResolveScanPlan(
      const TableDef& def, const projections::QueryShape& shape) const;
  // Plans a two-table INNER JOIN. nullopt = not plannable here (a view /
  // system-table side, self join, or non-equality ON) — the caller scans
  // each side as an internal SELECT *. Typed forced-hint errors
  // propagate.
  Result<std::optional<JoinQueryPlan>> PlanJoinQuery(
      const sql::SelectStmt& select) const;
  Result<QueryResult> ExecCreateTable(sim::Process& self,
                                      const sql::CreateTableStmt& stmt);
  Result<QueryResult> ExecCreateView(sim::Process& self,
                                     const sql::CreateViewStmt& stmt);
  Result<QueryResult> ExecCreateProjection(
      sim::Process& self, const sql::CreateProjectionStmt& stmt);
  Result<QueryResult> ExecExplain(sim::Process& self,
                                  const sql::ExplainStmt& stmt);
  Result<QueryResult> ExecDrop(sim::Process& self, const sql::DropStmt& s);
  Result<QueryResult> ExecRename(sim::Process& self,
                                 const sql::RenameTableStmt& stmt);
  Result<QueryResult> ExecTruncate(sim::Process& self,
                                   const sql::TruncateStmt& stmt);
  Result<QueryResult> ExecInsert(sim::Process& self,
                                 const sql::InsertStmt& stmt);
  Result<QueryResult> ExecUpdate(sim::Process& self,
                                 const sql::UpdateStmt& stmt);
  Result<QueryResult> ExecDelete(sim::Process& self,
                                 const sql::DeleteStmt& stmt);
  Result<QueryResult> ExecTxn(sim::Process& self, const sql::TxnStmt& stmt);

  // Ensures a write transaction exists; returns (txn, autocommit?).
  struct WriteTxn {
    storage::TxnId txn;
    bool autocommit;
  };
  WriteTxn EnsureWriteTxn();
  // Finishes an autocommit txn (commit on OK, abort on error).
  Status FinishWriteTxn(sim::Process& self, const WriteTxn& wt,
                        Status status);

  // Streams `wire_bytes` of result data (already produced at the
  // initiator) to the client with the per-connection rate cap.
  Status StreamToClient(sim::Process& self, double wire_bytes,
                        double rate_cap);

  // The reverse direction: statement payload travelling client -> node
  // (INSERT VALUES data).
  Status StreamToClientReverse(sim::Process& self, double wire_bytes);

  // True for a lower-cased name in the system schemas (v_catalog.*,
  // v_monitor.*), which SystemTable serves.
  static bool IsSystemTable(const std::string& lower_name);

  // Materializes a system table.
  Result<QueryResult> SystemTable(const std::string& lower_name) const;

  Database* db_;
  int node_;
  const net::Host* client_;  // may be null (console)
  storage::TxnId txn_ = 0;   // open explicit transaction
  std::optional<std::string> forced_projection_;
  std::map<std::string, std::string> forced_table_projections_;
  std::optional<std::string> forced_join_strategy_;
  std::string resource_pool_;
  double memory_request_ = 0;
  wm::Grant wm_grant_;
  // The running SELECT's pinned epochs by requested AT EPOCH (-1: the
  // current epoch), and the statement's own AT EPOCH; see ReadSnapshot.
  std::map<int64_t, storage::Epoch> snapshots_;
  int64_t statement_at_epoch_ = -1;
  storage::Epoch last_commit_epoch_ = 0;
  int64_t last_update_affected_ = -1;
  bool closed_ = false;
  bool broken_ = false;
};

}  // namespace fabric::vertica

#endif  // FABRIC_VERTICA_SESSION_H_
