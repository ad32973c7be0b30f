#include "storage/segment_store.h"

#include <algorithm>
#include <map>

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "storage/column_cursor.h"

namespace fabric::storage {

namespace {

// Adds the fields/byte composition of `row`'s `columns` to `profile`
// without touching the rows field (same bucketing as ProfileRow).
void MeasureRowColumns(const Row& row, const std::vector<int>& columns,
                       DataProfile* profile) {
  for (int c : columns) {
    const Value& v = row[c];
    profile->fields += 1;
    double size = v.RawSize();
    profile->raw_bytes += size;
    if (!v.is_null() && v.type() == DataType::kVarchar) {
      profile->string_bytes += size;
    } else {
      profile->numeric_bytes += size;
    }
  }
}

// Walks the batches of `chunk` covering positions of `sel`, invoking
// fn(cursor, batch, first, last) with the [first, last) index range of
// `sel` inside the batch. Stops once the selection is exhausted, so
// trailing batches of the column are never decoded.
template <typename Fn>
Status ForEachBatchSlice(const ColumnChunk& chunk, const SelectionVector& sel,
                         Fn&& fn) {
  if (sel.empty()) return Status::OK();
  ColumnCursor cursor;
  FABRIC_RETURN_IF_ERROR(cursor.Open(&chunk));
  ColumnBatch batch;
  size_t i = 0;
  while (i < sel.size()) {
    FABRIC_ASSIGN_OR_RETURN(bool more, cursor.Next(&batch));
    if (!more) break;
    uint32_t end = batch.base + batch.length;
    size_t j = i;
    while (j < sel.size() && sel[j] < end) ++j;
    if (j > i) {
      FABRIC_RETURN_IF_ERROR(fn(cursor, batch, i, j));
    }
    i = j;
  }
  return Status::OK();
}

// All schema column indices (projection default).
std::vector<int> AllColumns(const Schema& schema) {
  std::vector<int> cols(schema.num_columns());
  for (int c = 0; c < schema.num_columns(); ++c) cols[c] = c;
  return cols;
}

// Sort-order comparison of two values of one column: nulls first, then
// Value::Compare. Mixed non-numeric types cannot appear within one typed
// column, so the Compare error path collapses to "equal".
int CompareForSort(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) {
    return static_cast<int>(b.is_null()) - static_cast<int>(a.is_null());
  }
  Result<int> cmp = a.Compare(b);
  return cmp.ok() ? cmp.value() : 0;
}

// Stable permutation ordering `n` rows by `sort_columns` (major first);
// `at(row, col)` reads one value. Stability keeps equal keys in arrival
// order, which is deterministic across buddy copies.
template <typename At>
std::vector<uint32_t> SortPermutation(size_t n,
                                      const std::vector<int>& sort_columns,
                                      At at) {
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (int c : sort_columns) {
      int v = CompareForSort(at(a, c), at(b, c));
      if (v != 0) return v < 0;
    }
    return false;
  });
  return order;
}

// Reorders `vec` so that element k is the old element order[k]; a null or
// empty vector is left alone.
template <typename T>
void Permute(const std::vector<uint32_t>& order, std::vector<T>* vec) {
  if (vec == nullptr || vec->empty()) return;
  std::vector<T> out;
  out.reserve(vec->size());
  for (uint32_t i : order) out.push_back(std::move((*vec)[i]));
  *vec = std::move(out);
}

// Decodes every column of `container` once, appending column c's values
// to (*columns)[c].
Status AppendColumns(const RosContainer& container,
                     std::vector<std::vector<Value>>* columns) {
  for (int c = 0; c < static_cast<int>(columns->size()); ++c) {
    FABRIC_ASSIGN_OR_RETURN(std::vector<Value> values,
                            DecodeColumn(container.column(c)));
    (*columns)[c].insert((*columns)[c].end(),
                         std::make_move_iterator(values.begin()),
                         std::make_move_iterator(values.end()));
  }
  return Status::OK();
}

// Content key of one full row for multiset matching (same sentinel
// scheme as the SQL layer's group keys: \x01 null, \x02 separator).
// Types are fixed per column, so display strings are unambiguous.
std::string RowContentKey(const Row& row) {
  std::string key;
  for (const Value& v : row) {
    if (v.is_null()) {
      key.push_back('\x01');
    } else {
      key.append(v.ToDisplayString());
    }
    key.push_back('\x02');
  }
  return key;
}

}  // namespace

Result<RosContainer> RosContainer::Create(
    const Schema& schema, const std::vector<Row>& rows, TxnId pending_txn,
    const std::vector<Encoding>* encodings) {
  for (const Row& row : rows) {
    FABRIC_RETURN_IF_ERROR(ValidateRow(schema, row));
  }
  std::vector<ColumnView> columns;
  columns.reserve(schema.num_columns());
  for (int c = 0; c < schema.num_columns(); ++c) columns.emplace_back(rows, c);
  return Encode(schema, columns, rows.size(), pending_txn, encodings);
}

Result<RosContainer> RosContainer::FromColumns(
    const Schema& schema, const std::vector<std::vector<Value>>& columns,
    TxnId pending_txn, const std::vector<Encoding>* encodings) {
  FABRIC_CHECK(static_cast<int>(columns.size()) == schema.num_columns())
      << "one value vector per schema column";
  std::vector<ColumnView> views(columns.begin(), columns.end());
  return Encode(schema, views, columns.empty() ? 0 : columns[0].size(),
                pending_txn, encodings);
}

Result<RosContainer> RosContainer::Encode(
    const Schema& schema, const std::vector<ColumnView>& columns,
    size_t num_rows, TxnId pending_txn,
    const std::vector<Encoding>* encodings) {
  RosContainer container;
  container.num_rows_ = static_cast<uint32_t>(num_rows);
  container.pending_txn_ = pending_txn;
  container.delete_marks_.resize(num_rows);
  container.columns_.reserve(columns.size());
  container.min_values_.reserve(columns.size());
  container.max_values_.reserve(columns.size());
  for (int c = 0; c < schema.num_columns(); ++c) {
    FABRIC_CHECK(columns[c].size() == num_rows) << "ragged columns";
    const Encoding* forced =
        encodings != nullptr && c < static_cast<int>(encodings->size())
            ? &(*encodings)[c]
            : nullptr;
    FABRIC_ASSIGN_OR_RETURN(
        EncodedColumn column,
        EncodeContainerColumn(schema.column(c).type, columns[c], forced));
    // Raw sizes are whole numbers, so the per-column sum is exact.
    container.raw_bytes_ += column.raw_bytes;
    container.columns_.push_back(std::move(column.chunk));
    container.min_values_.push_back(std::move(column.min));
    container.max_values_.push_back(std::move(column.max));
  }
  return container;
}

double RosContainer::encoded_bytes() const {
  double total = 0;
  for (const ColumnChunk& chunk : columns_) total += chunk.encoded_bytes();
  return total;
}

Result<std::vector<Row>> RosContainer::DecodeRows() const {
  std::vector<Row> rows(num_rows_);
  for (auto& row : rows) row.reserve(columns_.size());
  for (const ColumnChunk& chunk : columns_) {
    FABRIC_ASSIGN_OR_RETURN(std::vector<Value> values, DecodeColumn(chunk));
    FABRIC_CHECK(values.size() == num_rows_);
    for (uint32_t i = 0; i < num_rows_; ++i) {
      rows[i].push_back(std::move(values[i]));
    }
  }
  return rows;
}

void RosContainer::AdoptRowEpochs(std::vector<Epoch> epochs) {
  FABRIC_CHECK(epochs.size() == num_rows_)
      << "row epoch vector must cover every row";
  pending_txn_ = 0;
  if (epochs.empty()) {
    commit_epoch_ = 0;
    min_epoch_ = 0;
    row_epochs_.clear();
    return;
  }
  Epoch lo = epochs.front();
  Epoch hi = epochs.front();
  for (Epoch e : epochs) {
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  commit_epoch_ = hi;
  min_epoch_ = lo;
  if (lo == hi) {
    row_epochs_.clear();  // uniform: the scalar epoch suffices
  } else {
    row_epochs_ = std::move(epochs);
  }
}

bool VersionVisible(TxnId owner_txn, Epoch commit_epoch,
                    const DeleteMark& mark, Epoch as_of, TxnId txn) {
  // Insert visibility.
  if (owner_txn != 0) {
    if (owner_txn != txn) return false;  // someone else's pending insert
  } else if (commit_epoch > as_of) {
    return false;  // committed after the snapshot
  }
  // Delete visibility.
  switch (mark.state) {
    case DeleteMark::State::kNone:
      return true;
    case DeleteMark::State::kPending:
      return mark.txn != txn;  // own pending delete hides the row
    case DeleteMark::State::kCommitted:
      return mark.epoch > as_of;  // deleted after the snapshot => visible
  }
  return true;
}

Status SegmentStore::InsertPending(TxnId txn, std::vector<Row> rows) {
  FABRIC_CHECK(txn != 0) << "InsertPending requires a transaction";
  for (const Row& row : rows) {
    FABRIC_RETURN_IF_ERROR(ValidateRow(schema_, row));
  }
  for (Row& row : rows) CoerceRow(schema_, &row);
  WosBatch batch;
  batch.pending_txn = txn;
  batch.delete_marks.resize(rows.size());
  batch.rows = std::move(rows);
  wos_.push_back(std::move(batch));
  return Status::OK();
}

void SegmentStore::SortForDesign(std::vector<Row>* rows,
                                 std::vector<DeleteMark>* marks,
                                 std::vector<Epoch>* epochs) const {
  if (!design_.sorted() || rows->size() < 2) return;
  std::vector<uint32_t> order = SortPermutation(
      rows->size(), design_.sort_columns,
      [rows](uint32_t r, int c) -> const Value& { return (*rows)[r][c]; });
  Permute(order, rows);
  Permute(order, marks);
  Permute(order, epochs);
}

Result<RosContainer> SegmentStore::CreateContainer(
    const std::vector<Row>& rows, TxnId pending_txn) const {
  return RosContainer::Create(
      schema_, rows, pending_txn,
      design_.encodings.empty() ? nullptr : &design_.encodings);
}

Result<RosContainer> SegmentStore::RebuildContainer(
    const std::vector<std::vector<Value>>& columns,
    std::vector<DeleteMark> marks, std::vector<Epoch> epochs) const {
  // Temporary txn id 1 satisfies the pending contract; AdoptRowEpochs
  // commits the container at the original per-row epochs.
  FABRIC_ASSIGN_OR_RETURN(
      RosContainer container,
      RosContainer::FromColumns(
          schema_, columns, /*pending_txn=*/1,
          design_.encodings.empty() ? nullptr : &design_.encodings));
  container.AdoptRowEpochs(std::move(epochs));
  container.mutable_delete_marks() = std::move(marks);
  return container;
}

Status SegmentStore::InsertPendingDirect(TxnId txn, std::vector<Row> rows) {
  FABRIC_CHECK(txn != 0) << "InsertPendingDirect requires a transaction";
  for (Row& row : rows) CoerceRow(schema_, &row);
  SortForDesign(&rows, nullptr, nullptr);
  FABRIC_ASSIGN_OR_RETURN(RosContainer container,
                          CreateContainer(rows, txn));
  ros_.push_back(std::move(container));
  return Status::OK();
}

Result<int64_t> SegmentStore::DeletePending(
    TxnId txn, Epoch as_of, const std::function<bool(const Row&)>& pred) {
  FABRIC_CHECK(txn != 0) << "DeletePending requires a transaction";
  int64_t marked = 0;
  for (RosContainer& container : ros_) {
    if (!container.committed() && container.pending_txn() != txn) continue;
    FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows, container.DecodeRows());
    auto& marks = container.mutable_delete_marks();
    for (uint32_t i = 0; i < rows.size(); ++i) {
      if (!VersionVisible(container.committed() ? 0 : container.pending_txn(),
                          container.row_epoch(i), marks[i], as_of, txn)) {
        continue;
      }
      if (!pred(rows[i])) continue;
      marks[i] = DeleteMark{DeleteMark::State::kPending, 0, txn};
      ++marked;
    }
  }
  for (WosBatch& batch : wos_) {
    if (!batch.committed() && batch.pending_txn != txn) continue;
    for (size_t i = 0; i < batch.rows.size(); ++i) {
      if (!VersionVisible(batch.committed() ? 0 : batch.pending_txn,
                          batch.commit_epoch, batch.delete_marks[i], as_of,
                          txn)) {
        continue;
      }
      if (!pred(batch.rows[i])) continue;
      batch.delete_marks[i] = DeleteMark{DeleteMark::State::kPending, 0, txn};
      ++marked;
    }
  }
  return marked;
}

void SegmentStore::CommitTxn(TxnId txn, Epoch epoch) {
  for (RosContainer& container : ros_) {
    if (!container.committed() && container.pending_txn() == txn) {
      container.MarkCommitted(epoch);
    }
    for (DeleteMark& mark : container.mutable_delete_marks()) {
      if (mark.state == DeleteMark::State::kPending && mark.txn == txn) {
        mark = DeleteMark{DeleteMark::State::kCommitted, epoch, 0};
      }
    }
  }
  for (WosBatch& batch : wos_) {
    if (!batch.committed() && batch.pending_txn == txn) {
      batch.pending_txn = 0;
      batch.commit_epoch = epoch;
    }
    for (DeleteMark& mark : batch.delete_marks) {
      if (mark.state == DeleteMark::State::kPending && mark.txn == txn) {
        mark = DeleteMark{DeleteMark::State::kCommitted, epoch, 0};
      }
    }
  }
}

void SegmentStore::AbortTxn(TxnId txn) {
  ros_.erase(std::remove_if(ros_.begin(), ros_.end(),
                            [txn](const RosContainer& c) {
                              return !c.committed() && c.pending_txn() == txn;
                            }),
             ros_.end());
  wos_.erase(std::remove_if(wos_.begin(), wos_.end(),
                            [txn](const WosBatch& b) {
                              return !b.committed() && b.pending_txn == txn;
                            }),
             wos_.end());
  auto clear_marks = [txn](std::vector<DeleteMark>& marks) {
    for (DeleteMark& mark : marks) {
      if (mark.state == DeleteMark::State::kPending && mark.txn == txn) {
        mark = DeleteMark{};
      }
    }
  };
  for (RosContainer& container : ros_) {
    clear_marks(container.mutable_delete_marks());
  }
  for (WosBatch& batch : wos_) clear_marks(batch.delete_marks);
}

Status SegmentStore::ScanVisible(
    Epoch as_of, TxnId txn,
    const std::function<Status(const Row&)>& fn) const {
  for (const RosContainer& container : ros_) {
    // Skip containers wholly invisible to the snapshot.
    if (!container.committed() && container.pending_txn() != txn) continue;
    if (container.committed() && container.min_epoch() > as_of) continue;
    FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows, container.DecodeRows());
    const auto& marks = container.delete_marks();
    for (uint32_t i = 0; i < rows.size(); ++i) {
      if (!VersionVisible(container.committed() ? 0 : container.pending_txn(),
                          container.row_epoch(i), marks[i], as_of, txn)) {
        continue;
      }
      FABRIC_RETURN_IF_ERROR(fn(rows[i]));
    }
  }
  for (const WosBatch& batch : wos_) {
    if (!batch.committed() && batch.pending_txn != txn) continue;
    if (batch.committed() && batch.commit_epoch > as_of) continue;
    for (size_t i = 0; i < batch.rows.size(); ++i) {
      if (!VersionVisible(batch.committed() ? 0 : batch.pending_txn,
                          batch.commit_epoch, batch.delete_marks[i], as_of,
                          txn)) {
        continue;
      }
      FABRIC_RETURN_IF_ERROR(fn(batch.rows[i]));
    }
  }
  return Status::OK();
}

Result<std::vector<Row>> SegmentStore::SnapshotRows(Epoch as_of,
                                                    TxnId txn) const {
  std::vector<Row> rows;
  FABRIC_RETURN_IF_ERROR(ScanVisible(as_of, txn, [&](const Row& row) {
    rows.push_back(row);
    return Status::OK();
  }));
  return rows;
}

Result<int64_t> SegmentStore::CountVisible(Epoch as_of, TxnId txn) const {
  // Visibility needs only delete marks and epochs — no column decode.
  int64_t count = 0;
  for (const RosContainer& container : ros_) {
    if (!container.committed() && container.pending_txn() != txn) continue;
    if (container.committed() && container.min_epoch() > as_of) continue;
    TxnId owner = container.committed() ? 0 : container.pending_txn();
    const auto& marks = container.delete_marks();
    for (uint32_t i = 0; i < marks.size(); ++i) {
      if (VersionVisible(owner, container.row_epoch(i), marks[i], as_of,
                         txn)) {
        ++count;
      }
    }
  }
  for (const WosBatch& batch : wos_) {
    if (!batch.committed() && batch.pending_txn != txn) continue;
    if (batch.committed() && batch.commit_epoch > as_of) continue;
    TxnId owner = batch.committed() ? 0 : batch.pending_txn;
    for (const DeleteMark& mark : batch.delete_marks) {
      if (VersionVisible(owner, batch.commit_epoch, mark, as_of, txn)) {
        ++count;
      }
    }
  }
  return count;
}

Result<std::vector<uint32_t>> SegmentStore::SelectRosRows(
    const RosContainer& container, const ScanSpec& spec, ScanStats* stats,
    std::vector<Row>* emit) const {
  SelectionVector sel;
  if (!container.committed() && container.pending_txn() != spec.txn) {
    return sel;
  }
  if (container.committed() && container.min_epoch() > spec.as_of) {
    ++stats->containers_pruned_epoch;
    return sel;
  }

  // Row visibility from the delete marks alone.
  TxnId owner = container.committed() ? 0 : container.pending_txn();
  const auto& marks = container.delete_marks();
  sel.reserve(container.num_rows());
  for (uint32_t i = 0; i < container.num_rows(); ++i) {
    if (VersionVisible(owner, container.row_epoch(i), marks[i],
                       spec.as_of, spec.txn)) {
      sel.push_back(i);
    }
  }
  stats->rows_visible += static_cast<int64_t>(sel.size());

  // Cost accounting happens before any pruning: the virtual-time model
  // charges the predicate columns for every visible row whether or not
  // the container can produce matches (the row-at-a-time path evaluated
  // the predicate on each of them).
  if (spec.cost_columns != nullptr) {
    for (int c : *spec.cost_columns) {
      FABRIC_RETURN_IF_ERROR(ForEachBatchSlice(
          container.column(c), sel,
          [&](const ColumnCursor& cursor, const ColumnBatch& batch,
              size_t first, size_t last) {
            SelectionVector sub(sel.begin() + first, sel.begin() + last);
            MeasureColumn(cursor, batch, sub, &stats->visible_profile);
            return Status::OK();
          }));
    }
  }
  if (sel.empty()) return sel;

  if (spec.predicate != nullptr) {
    const ScanPredicate& pred = *spec.predicate;
    if (pred.always_false) {
      sel.clear();
      return sel;
    }
    // Min/max pruning: skip the whole container before touching any
    // column payload when no value in range can pass a compare term.
    for (const CompareTerm& term : pred.compares) {
      if (!CompareTermCanMatch(term, container.min_value(term.column),
                               container.max_value(term.column))) {
        ++stats->containers_pruned_minmax;
        sel.clear();
        return sel;
      }
    }
    ++stats->containers_scanned;
    // Comparison kernels on the encoded columns, most selective first
    // would be ideal; we run them in analyzer order.
    for (const CompareTerm& term : pred.compares) {
      if (sel.empty()) return sel;
      SelectionVector refined;
      refined.reserve(sel.size());
      FABRIC_RETURN_IF_ERROR(ForEachBatchSlice(
          container.column(term.column), sel,
          [&](const ColumnCursor& cursor, const ColumnBatch& batch,
              size_t first, size_t last) {
            SelectionVector sub(sel.begin() + first, sel.begin() + last);
            FilterCompare(term, cursor, batch, &sub);
            refined.insert(refined.end(), sub.begin(), sub.end());
            return Status::OK();
          }));
      sel.swap(refined);
    }
    // NULL tests need only the bitmap prefix.
    for (const NullTestTerm& term : pred.null_tests) {
      if (sel.empty()) return sel;
      FABRIC_ASSIGN_OR_RETURN(
          std::vector<uint8_t> nulls,
          DecodeNullFlags(container.column(term.column)));
      FilterNullTest(term, nulls.data(), &sel);
    }
    // Hash-range terms: combine per-column hashes for the surviving
    // rows, then apply the ring bounds.
    for (const HashRangeTerm& term : pred.hash_ranges) {
      if (sel.empty()) return sel;
      std::vector<uint64_t> acc(sel.size(), kSegmentationHashSeed);
      for (int c : term.columns) {
        FABRIC_RETURN_IF_ERROR(ForEachBatchSlice(
            container.column(c), sel,
            [&](const ColumnCursor& cursor, const ColumnBatch& batch,
                size_t first, size_t last) {
              SelectionVector sub(sel.begin() + first, sel.begin() + last);
              std::vector<uint64_t> sub_acc(acc.begin() + first,
                                            acc.begin() + last);
              AccumulateHash(cursor, batch, sub, &sub_acc);
              std::copy(sub_acc.begin(), sub_acc.end(),
                        acc.begin() + first);
              return Status::OK();
            }));
      }
      FilterHashRange(term, &acc, &sel);
    }
  } else {
    ++stats->containers_scanned;
  }
  if (sel.empty()) return sel;

  // Residual predicate: materialize only the columns it reads, at the
  // selected positions, and interpret row-at-a-time.
  if (spec.residual) {
    std::vector<Row> scratch(
        sel.size(), Row(static_cast<size_t>(schema_.num_columns())));
    if (spec.residual_columns != nullptr) {
      for (int c : *spec.residual_columns) {
        FABRIC_RETURN_IF_ERROR(ForEachBatchSlice(
            container.column(c), sel,
            [&](const ColumnCursor& cursor, const ColumnBatch& batch,
                size_t first, size_t last) {
              SelectionVector sub(sel.begin() + first, sel.begin() + last);
              GatherColumn(cursor, batch, sub, c, &scratch, first);
              return Status::OK();
            }));
      }
    }
    bool handled = false;
    if (spec.batch_residual) {
      std::vector<uint32_t> keep;
      if (spec.batch_residual(scratch, &keep)) {
        SelectionVector kept;
        kept.reserve(keep.size());
        for (uint32_t k : keep) kept.push_back(sel[k]);
        sel.swap(kept);
        handled = true;
      }
    }
    if (!handled) {
      SelectionVector kept;
      kept.reserve(sel.size());
      for (size_t k = 0; k < sel.size(); ++k) {
        FABRIC_ASSIGN_OR_RETURN(bool keep, spec.residual(scratch[k]));
        if (keep) kept.push_back(sel[k]);
      }
      sel.swap(kept);
    }
  }
  if (sel.empty() || emit == nullptr) return sel;

  // Late materialization of the projection for the survivors.
  std::vector<int> all;
  const std::vector<int>* projection = spec.projection;
  if (projection == nullptr) {
    all = AllColumns(schema_);
    projection = &all;
  }
  size_t out_base = emit->size();
  emit->resize(out_base + sel.size(),
               Row(static_cast<size_t>(schema_.num_columns())));
  for (int c : *projection) {
    FABRIC_RETURN_IF_ERROR(ForEachBatchSlice(
        container.column(c), sel,
        [&](const ColumnCursor& cursor, const ColumnBatch& batch,
            size_t first, size_t last) {
          SelectionVector sub(sel.begin() + first, sel.begin() + last);
          MeasureColumn(cursor, batch, sub, &stats->output_profile);
          GatherColumn(cursor, batch, sub, c, emit, out_base + first);
          return Status::OK();
        }));
  }
  stats->rows_emitted += static_cast<int64_t>(sel.size());
  return sel;
}

Status SegmentStore::SelectWosRows(const WosBatch& batch, const ScanSpec& spec,
                                   int64_t limit, ScanStats* stats,
                                   std::vector<Row>* emit,
                                   std::vector<uint32_t>* selected) const {
  if (batch.committed() ? batch.commit_epoch > spec.as_of
                        : batch.pending_txn != spec.txn) {
    return Status::OK();
  }
  std::vector<int> all;
  const std::vector<int>* projection = spec.projection;
  if (projection == nullptr && emit != nullptr) {
    all = AllColumns(schema_);
    projection = &all;
  }
  const TxnId owner = batch.committed() ? 0 : batch.pending_txn;
  for (uint32_t i = 0; i < batch.rows.size(); ++i) {
    if (emit != nullptr && limit >= 0 &&
        static_cast<int64_t>(emit->size()) >= limit) {
      break;
    }
    if (!VersionVisible(owner, batch.commit_epoch, batch.delete_marks[i],
                        spec.as_of, spec.txn)) {
      continue;
    }
    const Row& row = batch.rows[i];
    ++stats->rows_visible;
    if (spec.cost_columns != nullptr) {
      MeasureRowColumns(row, *spec.cost_columns, &stats->visible_profile);
    }
    if (spec.predicate != nullptr && !spec.predicate->Matches(row)) {
      continue;
    }
    if (spec.residual) {
      FABRIC_ASSIGN_OR_RETURN(bool keep, spec.residual(row));
      if (!keep) continue;
    }
    if (selected != nullptr) selected->push_back(i);
    if (emit == nullptr) continue;
    ++stats->rows_emitted;
    MeasureRowColumns(row, *projection, &stats->output_profile);
    Row masked(static_cast<size_t>(schema_.num_columns()));
    for (int c : *projection) masked[c] = row[c];
    emit->push_back(std::move(masked));
  }
  return Status::OK();
}

Result<std::vector<Row>> SegmentStore::Scan(const ScanSpec& spec,
                                            ScanStats* stats) const {
  std::vector<Row> out;
  for (const RosContainer& container : ros_) {
    if (spec.limit >= 0 && static_cast<int64_t>(out.size()) >= spec.limit) {
      break;
    }
    FABRIC_RETURN_IF_ERROR(
        SelectRosRows(container, spec, stats, &out).status());
  }
  for (const WosBatch& batch : wos_) {
    FABRIC_RETURN_IF_ERROR(
        SelectWosRows(batch, spec, spec.limit, stats, &out, nullptr));
  }
  // A ROS container crossing the cap emits its full selection; trim the
  // overshoot so every caller sees exactly `limit` rows.
  if (spec.limit >= 0 && static_cast<int64_t>(out.size()) > spec.limit) {
    stats->rows_emitted -= static_cast<int64_t>(out.size()) - spec.limit;
    out.resize(static_cast<size_t>(spec.limit));
  }
  stats->visible_profile.rows = static_cast<double>(stats->rows_visible);
  stats->output_profile.rows = static_cast<double>(stats->rows_emitted);
  return out;
}

Result<int64_t> SegmentStore::MarkDeletedPending(const ScanSpec& spec,
                                                 std::vector<Row>* victims) {
  FABRIC_CHECK(spec.txn != 0) << "MarkDeletedPending requires a transaction";
  const DeleteMark pending{DeleteMark::State::kPending, 0, spec.txn};
  int64_t marked = 0;
  ScanStats ignored;
  for (RosContainer& container : ros_) {
    FABRIC_ASSIGN_OR_RETURN(
        std::vector<uint32_t> sel,
        SelectRosRows(container, spec, &ignored, victims));
    auto& marks = container.mutable_delete_marks();
    for (uint32_t pos : sel) marks[pos] = pending;
    marked += static_cast<int64_t>(sel.size());
  }
  std::vector<uint32_t> sel;
  for (WosBatch& batch : wos_) {
    sel.clear();
    FABRIC_RETURN_IF_ERROR(SelectWosRows(batch, spec, /*limit=*/-1, &ignored,
                                         victims, &sel));
    for (uint32_t pos : sel) batch.delete_marks[pos] = pending;
    marked += static_cast<int64_t>(sel.size());
  }
  return marked;
}

Result<int64_t> SegmentStore::MarkDeletedPendingByContent(
    TxnId txn, Epoch as_of, const std::vector<Row>& victims) {
  FABRIC_CHECK(txn != 0)
      << "MarkDeletedPendingByContent requires a transaction";
  if (victims.empty()) return 0;
  std::map<std::string, int64_t> remaining;
  for (const Row& row : victims) ++remaining[RowContentKey(row)];
  int64_t marked = 0;
  auto try_mark = [&](const Row& row) {
    auto it = remaining.find(RowContentKey(row));
    if (it == remaining.end() || it->second == 0) return false;
    --it->second;
    ++marked;
    return true;
  };
  for (RosContainer& container : ros_) {
    if (marked == static_cast<int64_t>(victims.size())) break;
    if (!container.committed() && container.pending_txn() != txn) continue;
    if (container.committed() && container.min_epoch() > as_of) continue;
    TxnId owner = container.committed() ? 0 : container.pending_txn();
    FABRIC_ASSIGN_OR_RETURN(std::vector<Row> rows, container.DecodeRows());
    auto& marks = container.mutable_delete_marks();
    for (uint32_t i = 0; i < rows.size(); ++i) {
      if (!VersionVisible(owner, container.row_epoch(i), marks[i], as_of,
                          txn)) {
        continue;
      }
      if (try_mark(rows[i])) {
        marks[i] = DeleteMark{DeleteMark::State::kPending, 0, txn};
      }
    }
  }
  for (WosBatch& batch : wos_) {
    if (marked == static_cast<int64_t>(victims.size())) break;
    if (!batch.committed() && batch.pending_txn != txn) continue;
    if (batch.committed() && batch.commit_epoch > as_of) continue;
    TxnId owner = batch.committed() ? 0 : batch.pending_txn;
    for (size_t i = 0; i < batch.rows.size(); ++i) {
      if (!VersionVisible(owner, batch.commit_epoch, batch.delete_marks[i],
                          as_of, txn)) {
        continue;
      }
      if (try_mark(batch.rows[i])) {
        batch.delete_marks[i] =
            DeleteMark{DeleteMark::State::kPending, 0, txn};
      }
    }
  }
  return marked;
}

Status SegmentStore::Moveout() {
  // One ROS container absorbs every committed WOS batch; per-row commit
  // epochs keep AT EPOCH reads exact even though the batches committed at
  // different epochs. Delete marks move with their rows (including marks
  // still pending under an open transaction — CommitTxn/AbortTxn walk all
  // containers, so they resolve in their new home).
  std::vector<WosBatch> kept;
  std::vector<Row> rows;
  std::vector<DeleteMark> marks;
  std::vector<Epoch> epochs;
  for (WosBatch& batch : wos_) {
    if (!batch.committed()) {
      kept.push_back(std::move(batch));
      continue;
    }
    for (size_t i = 0; i < batch.rows.size(); ++i) {
      rows.push_back(std::move(batch.rows[i]));
      marks.push_back(batch.delete_marks[i]);
      epochs.push_back(batch.commit_epoch);
    }
  }
  if (rows.empty() && kept.size() == wos_.size()) return Status::OK();
  wos_.swap(kept);
  if (rows.empty()) return Status::OK();
  SortForDesign(&rows, &marks, &epochs);
  // Temporary txn id 1 satisfies Create's pending contract; AdoptRowEpochs
  // commits the container at the original per-row epochs.
  FABRIC_ASSIGN_OR_RETURN(RosContainer container,
                          CreateContainer(rows, /*txn=*/1));
  container.AdoptRowEpochs(std::move(epochs));
  container.mutable_delete_marks() = std::move(marks);
  ros_.push_back(std::move(container));
  return Status::OK();
}

Result<double> SegmentStore::MergeRosContainers(
    const std::vector<int>& indices) {
  if (indices.size() < 2) return 0.0;  // nothing to merge
  std::vector<int> sorted = indices;
  std::sort(sorted.begin(), sorted.end());
  for (size_t k = 0; k < sorted.size(); ++k) {
    int idx = sorted[k];
    if (idx < 0 || idx >= static_cast<int>(ros_.size())) {
      return InvalidArgumentError(
          StrCat("mergeout index ", idx, " out of range"));
    }
    if (k > 0 && sorted[k - 1] == idx) {
      return InvalidArgumentError(StrCat("duplicate mergeout index ", idx));
    }
    if (!ros_[idx].committed()) {
      return FailedPreconditionError(
          StrCat("mergeout of uncommitted container ", idx));
    }
  }
  // Column by column: decode each input column once, concatenate, and
  // for sorted designs reorder by a permutation of the sort columns.
  std::vector<std::vector<Value>> columns(schema_.num_columns());
  std::vector<DeleteMark> marks;
  std::vector<Epoch> epochs;
  double bytes = 0;
  for (int idx : sorted) {
    const RosContainer& c = ros_[idx];
    FABRIC_RETURN_IF_ERROR(AppendColumns(c, &columns));
    bytes += c.raw_bytes();
    marks.insert(marks.end(), c.delete_marks().begin(),
                 c.delete_marks().end());
    for (uint32_t i = 0; i < c.num_rows(); ++i) {
      epochs.push_back(c.row_epoch(i));
    }
  }
  if (design_.sorted() && epochs.size() > 1) {
    std::vector<uint32_t> order = SortPermutation(
        epochs.size(), design_.sort_columns,
        [&columns](uint32_t r, int c) -> const Value& {
          return columns[c][r];
        });
    for (std::vector<Value>& column : columns) Permute(order, &column);
    Permute(order, &marks);
    Permute(order, &epochs);
  }
  FABRIC_ASSIGN_OR_RETURN(
      RosContainer merged,
      RebuildContainer(columns, std::move(marks), std::move(epochs)));
  int insert_at = sorted.front();
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    ros_.erase(ros_.begin() + *it);
  }
  ros_.insert(ros_.begin() + insert_at, std::move(merged));
  return bytes;
}

Result<int64_t> SegmentStore::PurgeDeletedRows(Epoch ahm) {
  int64_t purged = 0;
  auto purgeable = [ahm](const DeleteMark& mark) {
    return mark.state == DeleteMark::State::kCommitted && mark.epoch <= ahm;
  };
  for (size_t k = 0; k < ros_.size();) {
    RosContainer& c = ros_[k];
    bool any = false;
    if (c.committed()) {
      for (const DeleteMark& mark : c.delete_marks()) {
        if (purgeable(mark)) {
          any = true;
          break;
        }
      }
    }
    if (!any) {
      ++k;
      continue;
    }
    std::vector<uint32_t> keep;
    std::vector<DeleteMark> marks;
    std::vector<Epoch> epochs;
    for (uint32_t i = 0; i < c.num_rows(); ++i) {
      if (purgeable(c.delete_marks()[i])) {
        ++purged;
        continue;
      }
      keep.push_back(i);
      marks.push_back(c.delete_marks()[i]);
      epochs.push_back(c.row_epoch(i));
    }
    if (keep.empty()) {
      ros_.erase(ros_.begin() + static_cast<long>(k));
      continue;
    }
    // Column by column, keeping the surviving rows. Dropping rows from a
    // design-sorted container keeps it sorted, so no re-sort is needed.
    std::vector<std::vector<Value>> columns(schema_.num_columns());
    for (int col = 0; col < schema_.num_columns(); ++col) {
      FABRIC_ASSIGN_OR_RETURN(std::vector<Value> values,
                              DecodeColumn(c.column(col)));
      columns[col].reserve(keep.size());
      for (uint32_t i : keep) columns[col].push_back(std::move(values[i]));
    }
    FABRIC_ASSIGN_OR_RETURN(
        RosContainer rebuilt,
        RebuildContainer(columns, std::move(marks), std::move(epochs)));
    ros_[k] = std::move(rebuilt);
    ++k;
  }
  for (WosBatch& batch : wos_) {
    if (!batch.committed()) continue;
    size_t out = 0;
    for (size_t i = 0; i < batch.rows.size(); ++i) {
      if (purgeable(batch.delete_marks[i])) {
        ++purged;
        continue;
      }
      if (out != i) {
        batch.rows[out] = std::move(batch.rows[i]);
        batch.delete_marks[out] = batch.delete_marks[i];
      }
      ++out;
    }
    batch.rows.resize(out);
    batch.delete_marks.resize(out);
  }
  wos_.erase(std::remove_if(wos_.begin(), wos_.end(),
                            [](const WosBatch& b) {
                              return b.committed() && b.rows.empty();
                            }),
             wos_.end());
  return purged;
}

double SegmentStore::TotalRawBytes() const {
  double total = 0;
  for (const RosContainer& c : ros_) total += c.raw_bytes();
  for (const WosBatch& b : wos_) {
    for (const Row& row : b.rows) total += RowRawSize(row);
  }
  return total;
}

double SegmentStore::TotalEncodedBytes() const {
  double total = 0;
  for (const RosContainer& c : ros_) total += c.encoded_bytes();
  for (const WosBatch& b : wos_) {
    for (const Row& row : b.rows) total += RowRawSize(row);
  }
  return total;
}

int SegmentStore::num_committed_wos_batches() const {
  int count = 0;
  for (const WosBatch& b : wos_) {
    if (b.committed()) ++count;
  }
  return count;
}

double SegmentStore::CommittedWosRawBytes() const {
  double total = 0;
  for (const WosBatch& b : wos_) {
    if (!b.committed()) continue;
    for (const Row& row : b.rows) total += RowRawSize(row);
  }
  return total;
}

std::vector<std::pair<int, double>> SegmentStore::CommittedRosRawBytes()
    const {
  std::vector<std::pair<int, double>> sizes;
  sizes.reserve(ros_.size());
  for (size_t i = 0; i < ros_.size(); ++i) {
    if (ros_[i].committed()) {
      sizes.emplace_back(static_cast<int>(i), ros_[i].raw_bytes());
    }
  }
  return sizes;
}

std::vector<ContainerStats> SegmentStore::RosStats() const {
  std::vector<ContainerStats> stats;
  stats.reserve(ros_.size());
  for (const RosContainer& c : ros_) {
    ContainerStats s;
    s.committed = c.committed();
    s.pending_txn = c.pending_txn();
    s.min_epoch = c.min_epoch();
    s.max_epoch = c.commit_epoch();
    s.rows = static_cast<int64_t>(c.num_rows());
    for (const DeleteMark& mark : c.delete_marks()) {
      if (mark.state == DeleteMark::State::kCommitted) ++s.deleted_rows;
    }
    s.raw_bytes = c.raw_bytes();
    s.encoded_bytes = c.encoded_bytes();
    stats.push_back(s);
  }
  return stats;
}

double SegmentStore::RawBytesSince(Epoch epoch) const {
  double total = 0;
  for (const RosContainer& c : ros_) {
    if (!c.committed() || c.min_epoch() > epoch) {
      total += c.raw_bytes();
    } else if (c.commit_epoch() > epoch && c.num_rows() > 0) {
      // Mixed-epoch container (moveout/mergeout output): charge the
      // recovering node's pull proportionally to the rows it is missing.
      // This is a cost-model approximation only — the atomic clone at the
      // end of recovery copies full contents regardless.
      uint32_t newer = 0;
      for (uint32_t i = 0; i < c.num_rows(); ++i) {
        if (c.row_epoch(i) > epoch) ++newer;
      }
      total += c.raw_bytes() * static_cast<double>(newer) /
               static_cast<double>(c.num_rows());
    }
  }
  for (const WosBatch& b : wos_) {
    if (b.committed() && b.commit_epoch <= epoch) continue;
    for (const Row& row : b.rows) total += RowRawSize(row);
  }
  return total;
}

namespace {

uint64_t FoldMark(uint64_t h, const DeleteMark& mark) {
  h = HashCombine(h, static_cast<uint64_t>(mark.state));
  h = HashCombine(h, mark.epoch);
  return HashCombine(h, mark.txn);
}

uint64_t FoldRow(uint64_t h, const Row& row) {
  for (const Value& v : row) {
    h = HashCombine(h, v.is_null() ? 0x9e3779b97f4a7c15ULL
                                   : HashBytes(v.ToDisplayString()));
  }
  return h;
}

}  // namespace

uint64_t SegmentStore::ContentFingerprint() const {
  // Buddy copies of one segment hold the same logical content in
  // legitimately different physical layouts: WOS batches land in
  // transfer-completion order and ROS container boundaries depend on
  // moveout timing. The checksum therefore folds per-row digests with a
  // commutative sum — it sees every row with its (commit epoch, owning
  // txn, deletion state) and nothing about layout.
  uint64_t total = 0;
  auto fold_one = [&](Epoch epoch, TxnId pending_txn, const Row& row,
                      const DeleteMark& mark) {
    uint64_t h = HashCombine(HashInt64(static_cast<int64_t>(epoch)),
                             pending_txn);
    total += FoldMark(FoldRow(h, row), mark);
  };
  for (const RosContainer& c : ros_) {
    Result<std::vector<Row>> rows = c.DecodeRows();
    FABRIC_CHECK(rows.ok()) << rows.status();
    for (size_t i = 0; i < rows->size(); ++i) {
      fold_one(c.row_epoch(static_cast<uint32_t>(i)), c.pending_txn(),
               (*rows)[i], c.delete_marks()[i]);
    }
  }
  for (const WosBatch& b : wos_) {
    for (size_t i = 0; i < b.rows.size(); ++i) {
      fold_one(b.commit_epoch, b.pending_txn, b.rows[i],
               b.delete_marks[i]);
    }
  }
  return total;
}

void SegmentStore::CopyContentsFrom(const SegmentStore& other) {
  ros_ = other.ros_;
  wos_ = other.wos_;
}

}  // namespace fabric::storage
