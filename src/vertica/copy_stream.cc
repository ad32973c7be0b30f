#include "vertica/copy_stream.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/trace.h"
#include "storage/profile.h"

namespace fabric::vertica {

using storage::DataProfile;
using storage::Row;

CopyStream::CopyStream(Session* session, TableDef def,
                       Options options, storage::TxnId txn, bool autocommit,
                       wm::Grant grant)
    : session_(session),
      def_(std::move(def)),
      options_(options),
      txn_(txn),
      autocommit_(autocommit),
      grant_(grant) {}

CopyStream::~CopyStream() { ReleaseGrant(); }

void CopyStream::ReleaseGrant() {
  if (!grant_.valid()) return;
  wm::WorkloadManager* wm = session_->database()->workload_manager();
  if (wm != nullptr) wm->Release(grant_);
  grant_ = wm::Grant{};
}

Result<std::unique_ptr<CopyStream>> CopyStream::Open(
    sim::Process& self, Session* session, const std::string& table,
    Options options) {
  Database* db = session->database();
  FABRIC_ASSIGN_OR_RETURN(const TableDef* resolved,
                          db->catalog().GetTable(table));
  // Snap the definition before the first yield: the catalog entry can be
  // renamed away (S2V staging promote) while this stream waits in the
  // admission queue or on the insert lock below.
  TableDef def = *resolved;
  // Admission: the whole load runs under one grant from the session's
  // pool (queue timeouts bound the wait if the session already holds
  // insert locks from an earlier statement of its transaction).
  wm::Grant grant;
  wm::WorkloadManager* wm = db->workload_manager();
  if (wm != nullptr) {
    FABRIC_ASSIGN_OR_RETURN(
        grant, wm->Admit(self, session->node(), session->resource_pool(),
                         /*memory_request=*/0));
  }
  auto release = [&] {
    if (wm != nullptr && grant.valid()) wm->Release(grant);
  };
  // COPY statement setup cost.
  Status status = net::RunCpu(self, db->network(),
                              db->node_host(session->node()),
                              db->cost().statement_overhead_cpu);
  if (!status.ok()) {
    release();
    return status;
  }
  bool autocommit = !session->in_transaction();
  storage::TxnId txn;
  if (autocommit) {
    txn = db->BeginTxnInternal();
  } else {
    txn = session->txn_;
  }
  status = db->LockTableI(self, txn, def.name);
  if (!status.ok()) {
    release();
    return status;
  }
  db->TouchTable(txn, def.name);
  return std::unique_ptr<CopyStream>(new CopyStream(
      session, std::move(def), options, txn, autocommit, grant));
}

Status CopyStream::WriteBatch(sim::Process& self,
                              const std::vector<Row>& rows) {
  FABRIC_CHECK(!finished_) << "WriteBatch after Finish";
  Database* db = session_->database();
  const CostModel& cost = db->cost();
  int initiator = session_->node();
  if (session_->broken()) {
    return UnavailableError(
        StrCat("connection to ", db->node_name(initiator), " lost"));
  }

  // Validate: bad rows are rejected, good rows proceed.
  std::vector<Row> good;
  good.reserve(rows.size());
  for (const Row& row : rows) {
    if (ValidateRow(def_.schema, row).ok()) {
      good.push_back(row);
    } else {
      ++totals_.rejected;
      if (totals_.rejected_sample.size() < 10) {
        totals_.rejected_sample.push_back(row);
      }
    }
  }

  const double scale = db->EffectiveScale(def_.name);
  DataProfile profile = ProfileRows(rows);
  profile.ScaleBy(scale);

  // Inbound leg: Avro batch over the external NIC from the client, or a
  // local disk read for file-based COPY.
  if (options_.from_local_disk) {
    // Native file COPY: read the CSV split off the node's (shared) data
    // disk — the contention that makes ~2 splits per node the paper's
    // sweet spot (Table 4).
    double csv_bytes = profile.raw_bytes * 1.4;  // text expansion on disk
    const net::Host& host = db->node_host(initiator);
    if (host.has_disk()) {
      FABRIC_RETURN_IF_ERROR(
          db->network()->Transfer(self, {host.disk}, csv_bytes));
    } else {
      FABRIC_RETURN_IF_ERROR(
          self.Sleep(csv_bytes / cost.disk_read_bandwidth));
    }
  } else {
    FABRIC_RETURN_IF_ERROR(
        session_->StreamToClientReverse(self, profile.AvroWireBytes(cost)));
  }

  // Parse + decode on the initiator. Native CSV COPY uses Vertica's
  // optimized multi-threaded parser (cheaper per byte, up to 2 cores).
  if (options_.from_local_disk) {
    double parse_cpu = profile.CopyParseCpu(cost) / 5.0;
    FABRIC_RETURN_IF_ERROR(db->network()->Transfer(
        self, {db->node_host(initiator).cpu},
        parse_cpu * net::kCpuUnitsPerCore, 2 * net::kSingleCoreRate));
  } else {
    // Vertica parallelizes a single COPY's parse/decode internally; cap
    // one stream at four cores so low-concurrency loads are not bound by
    // a single core while heavy fleets still contend for the node pool.
    FABRIC_RETURN_IF_ERROR(db->network()->Transfer(
        self, {db->node_host(initiator).cpu},
        profile.CopyParseCpu(cost) * net::kCpuUnitsPerCore,
        4 * net::kSingleCoreRate));
  }

  FABRIC_ASSIGN_OR_RETURN(Database::TableStorage * storage,
                          db->GetStorage(def_.name));
  const int64_t good_count = static_cast<int64_t>(good.size());
  // Maintain every projection of the table inside the same load
  // transaction, before the anchor write moves the rows out of `good`.
  FABRIC_RETURN_IF_ERROR(db->WriteProjectionRows(
      self, def_, good, txn_, initiator, options_.direct, scale));
  obs::TraceEvent("vertica", "copy.batch",
                  {{"table", def_.name},
                   {"rows", static_cast<int64_t>(rows.size())},
                   {"rejected",
                    static_cast<int64_t>(rows.size() - good.size())},
                   {"txn", txn_}});
  obs::IncrCounter("vertica.copy_rows", static_cast<double>(rows.size()));
  // Route rows to owner segments over the internal fabric; sorting and
  // encoding into ROS on each copy is cheap relative to the parse.
  FABRIC_RETURN_IF_ERROR(db->WriteSegments(
      self, storage, def_.segmentation, def_.name, std::move(good), txn_,
      initiator, scale, options_.direct, Database::LoadCpu::kSortEncode));
  totals_.loaded += good_count;
  return Status::OK();
}

Result<CopyStream::LoadResult> CopyStream::Finish(sim::Process& self) {
  FABRIC_CHECK(!finished_) << "Finish called twice";
  finished_ = true;
  ReleaseGrant();
  Database* db = session_->database();
  if (autocommit_) {
    // A COPY whose node died must not commit on the dead node.
    if (session_->broken()) {
      db->AbortTxnInternal(txn_);
      return UnavailableError(StrCat("connection to ",
                                     db->node_name(session_->node()),
                                     " lost"));
    }
    Status commit = db->CommitTxnInternal(self, txn_);
    if (!commit.ok()) {
      db->AbortTxnInternal(txn_);
      return commit;
    }
  }
  obs::TraceEvent("vertica", "copy.finish",
                  {{"table", def_.name},
                   {"loaded", totals_.loaded},
                   {"rejected", totals_.rejected},
                   {"txn", txn_}});
  return totals_;
}

}  // namespace fabric::vertica
