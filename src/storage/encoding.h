#ifndef FABRIC_STORAGE_ENCODING_H_
#define FABRIC_STORAGE_ENCODING_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace fabric::storage {

// Column encodings used inside ROS containers (Vertica's Read Optimized
// Storage keeps columns compressed; we implement the three classic
// schemes and pick the smallest from one pass of column statistics).
enum class Encoding : uint8_t {
  kPlain = 0,       // values back to back
  kRle = 1,         // (run length, value) pairs
  kDictionary = 2,  // distinct values + per-row indices
};

const char* EncodingName(Encoding encoding);

// Bytes the null-bitmap prefix occupies ahead of the payload in every
// encoding (LSB-first, one bit per row).
inline constexpr size_t NullBitmapBytes(uint32_t num_rows) {
  return (num_rows + 7) / 8;
}

// An encoded column of `num_rows` values of `type` (with a null bitmap).
struct ColumnChunk {
  DataType type;
  Encoding encoding;
  uint32_t num_rows = 0;
  std::string data;

  double encoded_bytes() const { return static_cast<double>(data.size()); }
};

// One column of values read in place: a contiguous vector, or column
// `col` of a batch of rows (so a container encodes straight from its
// rows, without copying each column out first).
class ColumnView {
 public:
  ColumnView(const std::vector<Value>& values)  // NOLINT: implicit
      : values_(values.data()), size_(values.size()) {}
  ColumnView(const std::vector<Row>& rows, int col)
      : rows_(rows.data()), size_(rows.size()), col_(col) {}

  size_t size() const { return size_; }
  const Value& operator[](size_t i) const {
    return rows_ != nullptr ? rows_[i][col_] : values_[i];
  }

 private:
  const Value* values_ = nullptr;
  const Row* rows_ = nullptr;
  size_t size_ = 0;
  int col_ = 0;
};

// Dense ids for the distinct non-null values of one typed column, in
// first-appearance order. Values are told apart by a typed key: FLOAT by
// its bit pattern with one key per NaN sign (so -0.0 and 0.0 differ, and
// NaN payloads do not), INTEGER and BOOLEAN by value, VARCHAR by its
// bytes. RLE runs, dictionaries and the projection planner's cardinality
// all use this identity. VARCHAR keys alias the values' strings, which
// must outlive the table.
class ValueIds {
 public:
  // Typed identity of a non-null value. BOOLEAN, INTEGER and FLOAT keep
  // their key bits through a bijective mix (equal hashes mean equal
  // keys); VARCHAR hashes its bytes and keeps them for the final check.
  struct Key {
    uint64_t hash = 0;
    std::string_view text;
    bool operator==(const Key&) const = default;
  };

  explicit ValueIds(DataType type) : type_(type) {}

  // Id of the value with `key`; `inserted` (if non-null) is set when the
  // value was new.
  uint32_t IdOf(const Key& key, bool* inserted = nullptr);
  uint32_t IdOf(const Value& value) { return IdOf(KeyOf(type_, value)); }
  size_t size() const { return keys_.size(); }

 private:
  static Key KeyOf(DataType type, const Value& value);
  void Grow();

  DataType type_;
  std::vector<Key> keys_;        // key per id
  std::vector<uint32_t> slots_;  // open addressing: id + 1, 0 when empty
};

// Encodes `values` (all of `type` or null). One pass over the column
// measures the exact payload of every encoding; the smallest wins (ties
// go to PLAIN, then RLE) and only the winner is written.
Result<ColumnChunk> EncodeColumn(DataType type, const ColumnView& values);

// Encodes with a forced encoding (projection designs, tests, benchmarks).
Result<ColumnChunk> EncodeColumnAs(DataType type, Encoding encoding,
                                   const ColumnView& values);

// A column encoded for a ROS container, with what the container keeps
// beside the chunk: the column's min and max under Value::Compare (null
// when no value is non-null) and its raw bytes (Value::RawSize summed).
struct EncodedColumn {
  ColumnChunk chunk;
  Value min;
  Value max;
  double raw_bytes = 0;
};

// EncodeColumn (or EncodeColumnAs when `forced` is non-null) plus the
// container statistics, all from the same pass.
Result<EncodedColumn> EncodeContainerColumn(DataType type,
                                            const ColumnView& values,
                                            const Encoding* forced);

// Decodes a chunk back to values. Implemented on top of ColumnCursor
// (storage/column_cursor.h), which is the streaming batch decoder; this
// is the materialize-everything convenience form.
Result<std::vector<Value>> DecodeColumn(const ColumnChunk& chunk);

}  // namespace fabric::storage

#endif  // FABRIC_STORAGE_ENCODING_H_
