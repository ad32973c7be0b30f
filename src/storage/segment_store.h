#ifndef FABRIC_STORAGE_SEGMENT_STORE_H_
#define FABRIC_STORAGE_SEGMENT_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/encoding.h"
#include "storage/profile.h"
#include "storage/scan_kernels.h"
#include "storage/schema.h"

namespace fabric::storage {

// Transaction ids and epochs. Epochs advance on every commit; a query can
// read "AS OF" any past epoch (Vertica's epoch feature, which V2S uses to
// give all its parallel partition queries one consistent snapshot).
using Epoch = uint64_t;
using TxnId = uint64_t;

// Deletion mark on a stored row: absent, pending under a transaction, or
// committed at an epoch.
struct DeleteMark {
  enum class State : uint8_t { kNone, kPending, kCommitted };
  State state = State::kNone;
  Epoch epoch = 0;  // commit epoch when kCommitted
  TxnId txn = 0;    // owner when kPending
};

// Physical design of one store: the projection's sort order (schema
// column indices, major first) and optional forced per-column encodings
// chosen at CREATE PROJECTION time (RLE on sorted low-cardinality
// columns, dictionary elsewhere). An empty design — the default — keeps
// insertion order and lets EncodeColumn pick the smallest encoding,
// which is exactly the pre-projection behavior of every table store.
struct PhysicalDesign {
  std::vector<int> sort_columns;    // empty => insertion order
  std::vector<Encoding> encodings;  // empty => auto; else one per column

  bool sorted() const { return !sort_columns.empty(); }
};

// Read Optimized Storage container: one sorted(ish), encoded, epoch-
// stamped batch of rows on one node. Immutable after creation except for
// delete marks.
class RosContainer {
 public:
  // Encodes `rows` column by column. `pending_txn` != 0 marks the
  // container uncommitted (a DIRECT bulk load inside a transaction).
  // `encodings` (when non-null) forces the per-column encoding instead
  // of auto-picking the smallest.
  static Result<RosContainer> Create(
      const Schema& schema, const std::vector<Row>& rows, TxnId pending_txn,
      const std::vector<Encoding>* encodings = nullptr);

  // The same container built from one value vector per schema column
  // (mergeout and purge, which work column by column). The rows are not
  // re-validated: the values come from stored containers. Byte-identical
  // to Create over the equivalent rows.
  static Result<RosContainer> FromColumns(
      const Schema& schema, const std::vector<std::vector<Value>>& columns,
      TxnId pending_txn, const std::vector<Encoding>* encodings = nullptr);

  uint32_t num_rows() const { return num_rows_; }
  bool committed() const { return pending_txn_ == 0; }
  TxnId pending_txn() const { return pending_txn_; }
  Epoch commit_epoch() const { return commit_epoch_; }
  double raw_bytes() const { return raw_bytes_; }
  double encoded_bytes() const;

  // Commit epoch of row `i`. Containers written by a single transaction
  // carry one epoch for every row; containers produced by moveout or
  // mergeout fold rows committed at different epochs and keep a per-row
  // epoch vector so AT EPOCH visibility survives compaction.
  Epoch row_epoch(uint32_t i) const {
    return row_epochs_.empty() ? commit_epoch_ : row_epochs_[i];
  }
  // Smallest row epoch in the container — the container-level epoch-
  // pruning bound (commit_epoch() is the largest).
  Epoch min_epoch() const {
    return row_epochs_.empty() ? commit_epoch_ : min_epoch_;
  }

  // Installs per-row commit epochs (the moveout/mergeout path) and marks
  // the container committed with commit_epoch() = max(epochs) and
  // min_epoch() = min(epochs). Must match num_rows().
  void AdoptRowEpochs(std::vector<Epoch> epochs);

  // Per-column min/max (null Values when the column had no non-null
  // rows) — used for scan pruning.
  const Value& min_value(int col) const { return min_values_[col]; }
  const Value& max_value(int col) const { return max_values_[col]; }

  // Encoded column payload (the vectorized scan path opens cursors on
  // individual columns instead of decoding all rows).
  const ColumnChunk& column(int col) const { return columns_[col]; }

  // Decodes all rows (visibility is applied by the caller via marks).
  Result<std::vector<Row>> DecodeRows() const;

  const std::vector<DeleteMark>& delete_marks() const {
    return delete_marks_;
  }
  std::vector<DeleteMark>& mutable_delete_marks() { return delete_marks_; }

  void MarkCommitted(Epoch epoch) {
    pending_txn_ = 0;
    commit_epoch_ = epoch;
  }

 private:
  RosContainer() = default;

  // Encodes one view per schema column; each column's single encoder
  // pass also yields its min/max and raw bytes.
  static Result<RosContainer> Encode(const Schema& schema,
                                     const std::vector<ColumnView>& columns,
                                     size_t num_rows, TxnId pending_txn,
                                     const std::vector<Encoding>* encodings);

  uint32_t num_rows_ = 0;
  TxnId pending_txn_ = 0;
  Epoch commit_epoch_ = 0;
  Epoch min_epoch_ = 0;             // meaningful only with row_epochs_
  std::vector<Epoch> row_epochs_;   // empty => every row at commit_epoch_
  double raw_bytes_ = 0;
  std::vector<ColumnChunk> columns_;
  std::vector<Value> min_values_;
  std::vector<Value> max_values_;
  std::vector<DeleteMark> delete_marks_;
};

// Write Optimized Storage batch: uncompressed row store for small commits
// (INSERT/UPDATE paths); moveout folds committed batches into ROS.
struct WosBatch {
  TxnId pending_txn = 0;  // 0 once committed
  Epoch commit_epoch = 0;
  std::vector<Row> rows;
  std::vector<DeleteMark> delete_marks;

  bool committed() const { return pending_txn == 0; }
};

// What a vectorized scan should do. Compiled predicate terms run on the
// encoded columns; `residual` (if set) is the row-at-a-time remainder of
// the WHERE clause, evaluated on rows with only `residual_columns`
// materialized. `cost_columns` are measured for every visible row and
// `projection` columns for every emitted row (the cost model's
// late-materialization accounting); emitted rows are schema-width with
// NULL outside the projection.
struct ScanSpec {
  Epoch as_of = 0;
  TxnId txn = 0;
  const ScanPredicate* predicate = nullptr;  // may be null (match all)
  std::function<Result<bool>(const Row&)> residual;  // may be empty
  // Optional vectorized residual (the pipeline compiler's batch path):
  // evaluates the residual over the whole scratch block at once,
  // appending the kept row indices (into `rows`, ascending) to `keep`.
  // Returns false when it cannot handle the block — a dynamic type
  // surprise or an evaluation error — in which case the caller falls
  // back to the row-at-a-time `residual`, which is authoritative.
  // Only consulted by Scan's ROS path; WOS rows and MarkDeletedPending
  // always use `residual`.
  std::function<bool(const std::vector<Row>& rows,
                     std::vector<uint32_t>* keep)>
      batch_residual;
  const std::vector<int>* residual_columns = nullptr;
  const std::vector<int>* cost_columns = nullptr;   // null => none
  const std::vector<int>* projection = nullptr;     // null => all columns
  // Stop after emitting this many rows (< 0: unlimited). Containers and
  // WOS rows past the cap are never visited — they contribute nothing to
  // the stats — which is what makes a pushed-down LIMIT cheap, not just
  // small. Honored by Scan only (never by MarkDeletedPending).
  int64_t limit = -1;
};

// Per-container statistics snapshot (v_monitor.storage_containers and the
// Tuple Mover's mergeout stratum policy read these).
struct ContainerStats {
  bool committed = false;
  TxnId pending_txn = 0;
  Epoch min_epoch = 0;
  Epoch max_epoch = 0;
  int64_t rows = 0;
  int64_t deleted_rows = 0;  // rows with a committed delete mark
  double raw_bytes = 0;
  double encoded_bytes = 0;
};

// Scan outcome counters and cost-model profiles. `visible_profile` is
// the cost_columns composition over all visible rows (rows field =
// rows_visible); `output_profile` is the projection composition over
// emitted rows (rows field = rows_emitted).
struct ScanStats {
  int64_t containers_scanned = 0;
  int64_t containers_pruned_epoch = 0;
  int64_t containers_pruned_minmax = 0;
  int64_t rows_visible = 0;
  int64_t rows_emitted = 0;
  DataProfile visible_profile;
  DataProfile output_profile;
};

// All stored data for one table segment on one node: a set of ROS
// containers plus the WOS, with MVCC visibility by (epoch, transaction).
//
// Not thread-safe in the host sense; always accessed from simulation
// context.
class SegmentStore {
 public:
  explicit SegmentStore(Schema schema) : schema_(std::move(schema)) {}
  SegmentStore(Schema schema, PhysicalDesign design)
      : schema_(std::move(schema)), design_(std::move(design)) {}

  const Schema& schema() const { return schema_; }
  const PhysicalDesign& design() const { return design_; }

  // Appends rows as a pending WOS batch owned by `txn`.
  Status InsertPending(TxnId txn, std::vector<Row> rows);

  // Appends rows as a pending ROS container owned by `txn` (bulk/DIRECT
  // load path used by COPY). Takes the rows by value: callers that are
  // done with them move, avoiding a full copy of the batch.
  Status InsertPendingDirect(TxnId txn, std::vector<Row> rows);

  // Marks visible rows matching `predicate` as deleted, pending under
  // `txn`. Rows already pending-deleted by other transactions are skipped
  // (the table lock prevents that situation anyway). Returns the number of
  // rows marked. `as_of` controls visibility (usually the latest epoch).
  Result<int64_t> DeletePending(TxnId txn, Epoch as_of,
                                const std::function<bool(const Row&)>& pred);

  // Commit/abort every pending change of `txn` in this store.
  void CommitTxn(TxnId txn, Epoch epoch);
  void AbortTxn(TxnId txn);

  // Vectorized scan: per-container min/max pruning, predicate kernels on
  // the encoded columns, selection-vector late materialization. Returns
  // the emitted rows in storage order (ROS containers, then WOS rows,
  // which are filtered row-at-a-time). Cost accounting in `stats` is
  // identical to the row-at-a-time reference: pruned containers still
  // measure their cost_columns for every visible row (the virtual-time
  // model charges the same scan work either way — only host time drops).
  Result<std::vector<Row>> Scan(const ScanSpec& spec,
                                ScanStats* stats) const;

  // Marks the rows Scan(spec) would emit as deleted, pending under
  // spec.txn (the UPDATE/DELETE write path). Shares the selection
  // pipeline with Scan so both pick exactly the same rows. When
  // `victims` != null it also materializes each marked row (schema
  // width) — the anchor-side capture that drives projection maintenance.
  Result<int64_t> MarkDeletedPending(const ScanSpec& spec,
                                     std::vector<Row>* victims = nullptr);

  // Marks visible rows matching the content multiset of `victims` as
  // deleted, pending under `txn` — the projection-side half of DELETE/
  // UPDATE: the anchor scan identifies the rows, and every projection
  // (whose columns may not cover the WHERE clause) deletes them by
  // value. Each victim row consumes the first not-yet-consumed visible
  // match in storage order, which is identical across buddy copies of
  // one projection (both apply the same batches, sorts and merges), so
  // indistinguishable duplicates resolve to the same physical rows and
  // fingerprints stay equal. Returns the number of rows marked.
  Result<int64_t> MarkDeletedPendingByContent(TxnId txn, Epoch as_of,
                                              const std::vector<Row>& victims);

  // Invokes `fn` for every row visible at `as_of` (plus `txn`'s own
  // pending rows when txn != 0), in storage order. Row-at-a-time
  // reference path (decodes whole containers); kept for tests and as the
  // baseline the vectorized Scan is verified against.
  Status ScanVisible(Epoch as_of, TxnId txn,
                     const std::function<Status(const Row&)>& fn) const;

  // Convenience: materializes the visible rows.
  Result<std::vector<Row>> SnapshotRows(Epoch as_of, TxnId txn = 0) const;

  Result<int64_t> CountVisible(Epoch as_of, TxnId txn = 0) const;

  // Folds every committed WOS batch into a single new ROS container with
  // per-row commit epochs (Vertica's moveout / Tuple Mover). Pending
  // batches stay in the WOS. No-op when nothing is committed.
  Status Moveout();

  // Merges the committed ROS containers at `indices` into one container
  // with per-row epochs and the delete marks carried over (the Tuple
  // Mover's mergeout). The merged container replaces the first merged
  // index, preserving relative storage order. Returns the raw bytes
  // rewritten (the cost-model size of the merge). Fails on out-of-range,
  // duplicate, or uncommitted indices.
  Result<double> MergeRosContainers(const std::vector<int>& indices);

  // Rewrites committed containers and WOS batches dropping every row
  // whose delete mark committed at an epoch <= `ahm` (the Ancient History
  // Mark): such rows are invisible at every snapshot >= ahm, so removing
  // them cannot change any legal read. Containers/batches left empty are
  // dropped. Returns the number of rows purged.
  Result<int64_t> PurgeDeletedRows(Epoch ahm);

  // Storage statistics (cost model / tests / Tuple Mover policy).
  double TotalRawBytes() const;
  double TotalEncodedBytes() const;
  int num_ros_containers() const { return static_cast<int>(ros_.size()); }
  const RosContainer& ros_container(int i) const { return ros_[i]; }
  int num_wos_batches() const { return static_cast<int>(wos_.size()); }
  int num_committed_wos_batches() const;
  double CommittedWosRawBytes() const;
  std::vector<ContainerStats> RosStats() const;
  // (index, raw bytes) of every committed ROS container, in storage
  // order: the Tuple Mover's stratum policy input, cheap enough to read
  // on every commit (RosStats also counts each container's deleted rows).
  std::vector<std::pair<int, double>> CommittedRosRawBytes() const;

  // ------------------------------------------------- k-safety recovery
  // Raw bytes of content this store gained after `epoch`: containers and
  // WOS batches committed later, plus everything still pending. This is
  // the delta a rejoining node (last current at `epoch`) pulls from the
  // surviving copy.
  double RawBytesSince(Epoch epoch) const;

  // Logical-content checksum: a commutative fold over every stored row
  // with its commit epoch, pending owner and deletion state. Deliberately
  // blind to physical layout (WOS batch order, ROS container boundaries),
  // which differs between buddy copies written by interleaved
  // transactions. Two copies holding the same logical content fingerprint
  // equal; recovery tests compare primary against buddy with this.
  uint64_t ContentFingerprint() const;

  // Replaces this store's contents with a copy of `other`'s — the final,
  // atomic step of k-safety recovery (runs in one engine step; the
  // virtual-time transfer cost was charged separately).
  void CopyContentsFrom(const SegmentStore& other);

 private:
  // Shared selection pipeline for Scan/MarkDeletedPending: visibility
  // from delete marks, min/max pruning, predicate kernels, residual.
  // Returns selected row positions; when `emit` != null also gathers
  // projection columns into schema-width rows appended to *emit.
  Result<std::vector<uint32_t>> SelectRosRows(const RosContainer& container,
                                              const ScanSpec& spec,
                                              ScanStats* stats,
                                              std::vector<Row>* emit) const;

  // The WOS half of the same pipeline: visibility, the predicate and
  // the residual, row at a time, with the same accounting. Appends each
  // selected row's position in `batch` to *selected when non-null. When
  // `emit` != null it also appends the row (schema width, masked to the
  // projection), stopping once *emit holds `limit` rows (< 0:
  // unlimited).
  Status SelectWosRows(const WosBatch& batch, const ScanSpec& spec,
                       int64_t limit, ScanStats* stats,
                       std::vector<Row>* emit,
                       std::vector<uint32_t>* selected) const;

  // Applies the design's sort order to (rows, marks, epochs) in tandem
  // (stable, so equal keys keep arrival order — deterministic across
  // buddy copies). No-op for unsorted designs. `marks`/`epochs` may be
  // null when the caller has none.
  void SortForDesign(std::vector<Row>* rows, std::vector<DeleteMark>* marks,
                     std::vector<Epoch>* epochs) const;

  // RosContainer::Create with this store's forced encodings (if any).
  Result<RosContainer> CreateContainer(const std::vector<Row>& rows,
                                       TxnId pending_txn) const;

  // The committed container mergeout/purge writes: RosContainer::
  // FromColumns with this store's encodings, carrying over per-row epochs
  // and delete marks.
  Result<RosContainer> RebuildContainer(
      const std::vector<std::vector<Value>>& columns,
      std::vector<DeleteMark> marks, std::vector<Epoch> epochs) const;

  Schema schema_;
  PhysicalDesign design_;
  std::vector<RosContainer> ros_;
  std::vector<WosBatch> wos_;
};

// True when the row version is visible at `as_of` for reader txn `txn`.
bool VersionVisible(TxnId owner_txn, Epoch commit_epoch,
                    const DeleteMark& mark, Epoch as_of, TxnId txn);

}  // namespace fabric::storage

#endif  // FABRIC_STORAGE_SEGMENT_STORE_H_
