#include "storage/encoding.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "storage/column_cursor.h"

namespace fabric::storage {
namespace {

// Nulls are carried as a bitmap ahead of the payload in every encoding.
void WriteNullBitmap(const ColumnView& values, ByteWriter* writer) {
  uint8_t current = 0;
  int bit = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].is_null()) current |= static_cast<uint8_t>(1u << bit);
    if (++bit == 8) {
      writer->PutU8(current);
      current = 0;
      bit = 0;
    }
  }
  if (bit != 0) writer->PutU8(current);
}

// Per-type pieces of the encoder, for a non-null value of column type T.
template <DataType T>
void WriteScalar(const Value& value, ByteWriter* writer) {
  if constexpr (T == DataType::kBool) {
    writer->PutU8(value.bool_value() ? 1 : 0);
  } else if constexpr (T == DataType::kInt64) {
    writer->PutI64(value.int64_value());
  } else if constexpr (T == DataType::kFloat64) {
    writer->PutDouble(value.float64_value());
  } else {
    writer->PutString(value.varchar_value());
  }
}

// Bytes WriteScalar emits.
template <DataType T>
size_t ScalarBytes(const Value& value) {
  if constexpr (T == DataType::kBool) {
    return 1;
  } else if constexpr (T == DataType::kVarchar) {
    return 4 + value.varchar_value().size();
  } else {
    return 8;
  }
}

template <DataType T>
ValueIds::Key KeyOf(const Value& value) {
  uint64_t bits = 0;
  if constexpr (T == DataType::kBool) {
    bits = value.bool_value() ? 1 : 0;
  } else if constexpr (T == DataType::kInt64) {
    bits = static_cast<uint64_t>(value.int64_value());
  } else if constexpr (T == DataType::kFloat64) {
    const double d = value.float64_value();
    if (std::isnan(d)) {
      bits = std::signbit(d) ? 0xfff8000000000000ULL : 0x7ff8000000000000ULL;
    } else {
      std::memcpy(&bits, &d, sizeof(bits));
    }
  } else {
    const std::string& text = value.varchar_value();
    return ValueIds::Key{HashBytes(text), text};
  }
  return ValueIds::Key{Mix64(bits), {}};
}

// Value::Compare for two non-null values.
template <DataType T>
int Compare(const Value& a, const Value& b) {
  if constexpr (T == DataType::kBool) {
    return static_cast<int>(a.bool_value()) -
           static_cast<int>(b.bool_value());
  } else if constexpr (T == DataType::kInt64) {
    return CompareIntegers(a.int64_value(), b.int64_value());
  } else if constexpr (T == DataType::kFloat64) {
    return CompareNumbers(a.float64_value(), b.float64_value());
  } else {
    const int c = a.varchar_value().compare(b.varchar_value());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
}

// What the encoding choice and the container need. Payload sizes leave
// out the null bitmap, which every encoding carries alike.
struct ColumnStats {
  uint32_t non_null = 0;
  uint32_t runs = 0;          // maximal runs of one value (or of nulls)
  size_t value_bytes = 0;     // scalars of every non-null row
  size_t run_bytes = 0;       // one scalar per non-null run
  size_t distinct_bytes = 0;  // one scalar per distinct value
  // False once the dictionary provably cannot be the smallest; `codes`
  // and `first_rows` are then incomplete.
  bool dictionary_possible = true;
  std::vector<uint32_t> codes;       // dictionary id per non-null row
  std::vector<uint32_t> first_rows;  // first row holding each id
  int64_t min_row = -1;
  int64_t max_row = -1;

  size_t PlainBytes() const { return value_bytes; }
  size_t RleBytes() const { return 4 + 4 * size_t{runs} + run_bytes; }
  size_t DictionaryBytes() const {
    return 4 + distinct_bytes + 4 * size_t{non_null};
  }
};

// The one pass over the column. `forced` (may be null) skips what the
// forced encoding does not need: runs unless RLE, the dictionary unless
// DICTIONARY.
template <DataType T>
Status MeasureColumn(const ColumnView& values, const Encoding* forced,
                     ColumnStats* stats) {
  const size_t n = values.size();
  const bool runs = forced == nullptr || *forced == Encoding::kRle;
  // Fixed-width scalars: the dictionary needs 4 + w*d + 4*m < w*m to beat
  // PLAIN (d distinct of m non-null). d only grows and m is at most the
  // non-null rows so far plus the rows left, so once 4 + w*d reaches
  // (w - 4) times that bound, the dictionary has lost for good. BOOLEAN
  // (w = 1) never gets there.
  constexpr size_t kWidth = T == DataType::kBool ? 1 : 8;
  const bool bounded = forced == nullptr && T != DataType::kVarchar;
  stats->dictionary_possible =
      forced == nullptr ? T != DataType::kBool
                        : *forced == Encoding::kDictionary;
  if (stats->dictionary_possible) stats->codes.reserve(n);
  ValueIds ids(T);
  ValueIds::Key prev_key;
  bool prev_null = true;
  for (size_t i = 0; i < n; ++i) {
    const Value& v = values[i];
    if (v.is_null()) {
      if (i == 0 || !prev_null) ++stats->runs;
      prev_null = true;
      continue;
    }
    if (v.type() != T) {
      return InvalidArgumentError(
          StrCat("value of type ", DataTypeName(v.type()),
                 " in column of type ", DataTypeName(T)));
    }
    const size_t bytes = ScalarBytes<T>(v);
    ++stats->non_null;
    stats->value_bytes += bytes;
    if (runs || stats->dictionary_possible) {
      const ValueIds::Key key = KeyOf<T>(v);
      if (runs && (prev_null || !(key == prev_key))) {
        ++stats->runs;
        stats->run_bytes += bytes;
      }
      prev_key = key;
      if (stats->dictionary_possible) {
        bool inserted = false;
        stats->codes.push_back(ids.IdOf(key, &inserted));
        if (inserted) {
          stats->first_rows.push_back(static_cast<uint32_t>(i));
          stats->distinct_bytes += bytes;
          const size_t bound = stats->non_null + (n - i - 1);
          if (bounded && 4 + kWidth * ids.size() >= (kWidth - 4) * bound) {
            stats->dictionary_possible = false;
          }
        }
      }
    }
    prev_null = false;
    if (stats->min_row < 0) {
      stats->min_row = stats->max_row = static_cast<int64_t>(i);
    } else if (Compare<T>(v, values[stats->min_row]) < 0) {
      stats->min_row = static_cast<int64_t>(i);
    } else if (Compare<T>(v, values[stats->max_row]) > 0) {
      stats->max_row = static_cast<int64_t>(i);
    }
  }
  return Status::OK();
}

// Null bitmap plus `payload` bytes: the exact size of the chunk.
ByteWriter ChunkWriter(const ColumnView& values, size_t payload) {
  ByteWriter writer;
  writer.Reserve(NullBitmapBytes(static_cast<uint32_t>(values.size())) +
                 payload);
  return writer;
}

template <DataType T>
std::string EncodePlain(const ColumnView& values, const ColumnStats& stats) {
  ByteWriter writer = ChunkWriter(values, stats.PlainBytes());
  WriteNullBitmap(values, &writer);
  for (size_t i = 0; i < values.size(); ++i) {
    if (!values[i].is_null()) WriteScalar<T>(values[i], &writer);
  }
  return writer.Take();
}

template <DataType T>
std::string EncodeRle(const ColumnView& values, const ColumnStats& stats) {
  ByteWriter writer = ChunkWriter(values, stats.RleBytes());
  WriteNullBitmap(values, &writer);
  writer.PutU32(stats.runs);
  size_t i = 0;
  while (i < values.size()) {
    size_t j = i + 1;
    if (values[i].is_null()) {
      while (j < values.size() && values[j].is_null()) ++j;
      writer.PutU32(static_cast<uint32_t>(j - i));
    } else {
      const ValueIds::Key key = KeyOf<T>(values[i]);
      while (j < values.size() && !values[j].is_null() &&
             KeyOf<T>(values[j]) == key) {
        ++j;
      }
      writer.PutU32(static_cast<uint32_t>(j - i));
      WriteScalar<T>(values[i], &writer);
    }
    i = j;
  }
  return writer.Take();
}

template <DataType T>
std::string EncodeDictionary(const ColumnView& values,
                             const ColumnStats& stats) {
  ByteWriter writer = ChunkWriter(values, stats.DictionaryBytes());
  WriteNullBitmap(values, &writer);
  writer.PutU32(static_cast<uint32_t>(stats.first_rows.size()));
  for (uint32_t row : stats.first_rows) WriteScalar<T>(values[row], &writer);
  for (uint32_t code : stats.codes) writer.PutU32(code);
  return writer.Take();
}

template <DataType T>
Result<EncodedColumn> EncodeTyped(const ColumnView& values,
                                  const Encoding* forced) {
  ColumnStats stats;
  FABRIC_RETURN_IF_ERROR(MeasureColumn<T>(values, forced, &stats));
  Encoding encoding = Encoding::kPlain;
  if (forced != nullptr) {
    encoding = *forced;
  } else {
    // The three-way trial's order: PLAIN, then RLE, then DICTIONARY,
    // each replacing the best only when strictly smaller.
    size_t best = stats.PlainBytes();
    if (stats.RleBytes() < best) {
      encoding = Encoding::kRle;
      best = stats.RleBytes();
    }
    if (stats.dictionary_possible && stats.DictionaryBytes() < best) {
      encoding = Encoding::kDictionary;
    }
  }
  EncodedColumn out;
  out.chunk.type = T;
  out.chunk.encoding = encoding;
  out.chunk.num_rows = static_cast<uint32_t>(values.size());
  switch (encoding) {
    case Encoding::kPlain:
      out.chunk.data = EncodePlain<T>(values, stats);
      break;
    case Encoding::kRle:
      out.chunk.data = EncodeRle<T>(values, stats);
      break;
    case Encoding::kDictionary:
      out.chunk.data = EncodeDictionary<T>(values, stats);
      break;
  }
  if (stats.min_row >= 0) {
    out.min = values[static_cast<size_t>(stats.min_row)];
    out.max = values[static_cast<size_t>(stats.max_row)];
  }
  // Raw size is the scalar minus VARCHAR's length prefix.
  out.raw_bytes = static_cast<double>(
      stats.value_bytes -
      (T == DataType::kVarchar ? 4 * size_t{stats.non_null} : 0));
  return out;
}

}  // namespace

ValueIds::Key ValueIds::KeyOf(DataType type, const Value& value) {
  switch (type) {
    case DataType::kBool:
      return storage::KeyOf<DataType::kBool>(value);
    case DataType::kInt64:
      return storage::KeyOf<DataType::kInt64>(value);
    case DataType::kFloat64:
      return storage::KeyOf<DataType::kFloat64>(value);
    case DataType::kVarchar:
      return storage::KeyOf<DataType::kVarchar>(value);
  }
  return Key{};
}

uint32_t ValueIds::IdOf(const Key& key, bool* inserted) {
  if (2 * (keys_.size() + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t s = key.hash & mask;; s = (s + 1) & mask) {
    if (slots_[s] == 0) {
      const auto id = static_cast<uint32_t>(keys_.size());
      keys_.push_back(key);
      slots_[s] = id + 1;
      if (inserted != nullptr) *inserted = true;
      return id;
    }
    const uint32_t id = slots_[s] - 1;
    if (keys_[id] == key) {
      if (inserted != nullptr) *inserted = false;
      return id;
    }
  }
}

void ValueIds::Grow() {
  slots_.assign(std::max<size_t>(16, 2 * slots_.size()), 0);
  const size_t mask = slots_.size() - 1;
  for (uint32_t id = 0; id < keys_.size(); ++id) {
    size_t s = keys_[id].hash & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = id + 1;
  }
}

const char* EncodingName(Encoding encoding) {
  switch (encoding) {
    case Encoding::kPlain:
      return "PLAIN";
    case Encoding::kRle:
      return "RLE";
    case Encoding::kDictionary:
      return "DICTIONARY";
  }
  return "?";
}

Result<EncodedColumn> EncodeContainerColumn(DataType type,
                                            const ColumnView& values,
                                            const Encoding* forced) {
  switch (type) {
    case DataType::kBool:
      return EncodeTyped<DataType::kBool>(values, forced);
    case DataType::kInt64:
      return EncodeTyped<DataType::kInt64>(values, forced);
    case DataType::kFloat64:
      return EncodeTyped<DataType::kFloat64>(values, forced);
    case DataType::kVarchar:
      return EncodeTyped<DataType::kVarchar>(values, forced);
  }
  return InternalError("corrupt type");
}

Result<ColumnChunk> EncodeColumn(DataType type, const ColumnView& values) {
  FABRIC_ASSIGN_OR_RETURN(EncodedColumn column,
                          EncodeContainerColumn(type, values, nullptr));
  return std::move(column.chunk);
}

Result<ColumnChunk> EncodeColumnAs(DataType type, Encoding encoding,
                                   const ColumnView& values) {
  FABRIC_ASSIGN_OR_RETURN(EncodedColumn column,
                          EncodeContainerColumn(type, values, &encoding));
  return std::move(column.chunk);
}

Result<std::vector<Value>> DecodeColumn(const ColumnChunk& chunk) {
  ColumnCursor cursor;
  FABRIC_RETURN_IF_ERROR(cursor.Open(&chunk));
  std::vector<Value> values;
  values.reserve(chunk.num_rows);
  ColumnBatch batch;
  while (true) {
    FABRIC_ASSIGN_OR_RETURN(bool more, cursor.Next(&batch));
    if (!more) break;
    switch (batch.layout) {
      case ColumnBatch::Layout::kPlainLayout: {
        size_t slot = 0;
        for (uint32_t i = batch.base; i < batch.base + batch.length; ++i) {
          values.push_back(batch.nulls[i]
                               ? Value::Null()
                               : batch.values.Box(chunk.type, slot++));
        }
        break;
      }
      case ColumnBatch::Layout::kRunLayout: {
        for (const RunSpan& span : batch.runs) {
          Value v = span.is_null ? Value::Null()
                                 : batch.values.Box(chunk.type, span.slot);
          for (uint32_t k = 0; k < span.length; ++k) values.push_back(v);
        }
        break;
      }
      case ColumnBatch::Layout::kCodeLayout: {
        size_t slot = 0;
        for (uint32_t i = batch.base; i < batch.base + batch.length; ++i) {
          if (batch.nulls[i]) {
            values.push_back(Value::Null());
          } else {
            values.push_back(cursor.dictionary().Box(
                chunk.type, batch.codes[slot++]));
          }
        }
        break;
      }
    }
  }
  if (values.size() != chunk.num_rows) {
    return InvalidArgumentError("decoded row count mismatch");
  }
  return values;
}

}  // namespace fabric::storage
