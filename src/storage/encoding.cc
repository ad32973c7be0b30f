#include "storage/encoding.h"

#include <map>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "storage/column_cursor.h"

namespace fabric::storage {
namespace {

// Nulls are carried as a bitmap ahead of the payload in every encoding.
void WriteNullBitmap(const std::vector<Value>& values, ByteWriter* writer) {
  uint8_t current = 0;
  int bit = 0;
  for (const Value& v : values) {
    if (v.is_null()) current |= static_cast<uint8_t>(1u << bit);
    if (++bit == 8) {
      writer->PutU8(current);
      current = 0;
      bit = 0;
    }
  }
  if (bit != 0) writer->PutU8(current);
}

void WriteScalar(DataType type, const Value& value, ByteWriter* writer) {
  switch (type) {
    case DataType::kBool:
      writer->PutU8(value.bool_value() ? 1 : 0);
      return;
    case DataType::kInt64:
      writer->PutI64(value.int64_value());
      return;
    case DataType::kFloat64:
      writer->PutDouble(value.float64_value());
      return;
    case DataType::kVarchar:
      writer->PutString(value.varchar_value());
      return;
  }
  FABRIC_CHECK(false) << "corrupt type";
}

Status CheckTypes(DataType type, const std::vector<Value>& values) {
  for (const Value& v : values) {
    if (v.is_null()) continue;
    if (v.type() != type) {
      return InvalidArgumentError(
          StrCat("value of type ", DataTypeName(v.type()),
                 " in column of type ", DataTypeName(type)));
    }
  }
  return Status::OK();
}

// Key used to group equal values for RLE/dictionary. Display string is
// unambiguous per fixed type.
std::string DictionaryKey(const Value& v) {
  return v.is_null() ? std::string("\x01null") : v.ToDisplayString();
}

std::string EncodePlain(DataType type, const std::vector<Value>& values) {
  ByteWriter writer;
  WriteNullBitmap(values, &writer);
  for (const Value& v : values) {
    if (!v.is_null()) WriteScalar(type, v, &writer);
  }
  return writer.Take();
}

std::string EncodeRle(DataType type, const std::vector<Value>& values) {
  ByteWriter writer;
  WriteNullBitmap(values, &writer);
  size_t i = 0;
  uint32_t num_runs = 0;
  ByteWriter runs;
  while (i < values.size()) {
    size_t j = i + 1;
    while (j < values.size() && values[j].Equals(values[i]) &&
           values[j].is_null() == values[i].is_null()) {
      ++j;
    }
    runs.PutU32(static_cast<uint32_t>(j - i));
    if (!values[i].is_null()) {
      WriteScalar(type, values[i], &runs);
    }
    ++num_runs;
    i = j;
  }
  writer.PutU32(num_runs);
  writer.PutRaw(runs.buffer().data(), runs.size());
  return writer.Take();
}

std::string EncodeDictionary(DataType type,
                             const std::vector<Value>& values) {
  ByteWriter writer;
  WriteNullBitmap(values, &writer);
  std::map<std::string, uint32_t> ids;
  std::vector<const Value*> dictionary;
  std::vector<uint32_t> indices;
  indices.reserve(values.size());
  for (const Value& v : values) {
    if (v.is_null()) continue;
    auto [it, inserted] =
        ids.emplace(DictionaryKey(v), static_cast<uint32_t>(dictionary.size()));
    if (inserted) dictionary.push_back(&v);
    indices.push_back(it->second);
  }
  writer.PutU32(static_cast<uint32_t>(dictionary.size()));
  for (const Value* v : dictionary) WriteScalar(type, *v, &writer);
  for (uint32_t idx : indices) writer.PutU32(idx);
  return writer.Take();
}

}  // namespace

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

Result<ColumnChunk> EncodeColumnAs(DataType type, Encoding encoding,
                                   const std::vector<Value>& values) {
  FABRIC_RETURN_IF_ERROR(CheckTypes(type, values));
  ColumnChunk chunk;
  chunk.type = type;
  chunk.encoding = encoding;
  chunk.num_rows = static_cast<uint32_t>(values.size());
  switch (encoding) {
    case Encoding::kPlain:
      chunk.data = EncodePlain(type, values);
      break;
    case Encoding::kRle:
      chunk.data = EncodeRle(type, values);
      break;
    case Encoding::kDictionary:
      chunk.data = EncodeDictionary(type, values);
      break;
  }
  return chunk;
}

Result<ColumnChunk> EncodeColumn(DataType type,
                                 const std::vector<Value>& values) {
  FABRIC_RETURN_IF_ERROR(CheckTypes(type, values));
  Result<ColumnChunk> best = EncodeColumnAs(type, Encoding::kPlain, values);
  for (Encoding candidate : {Encoding::kRle, Encoding::kDictionary}) {
    auto chunk = EncodeColumnAs(type, candidate, values);
    if (chunk.ok() && chunk->data.size() < best->data.size()) {
      best = std::move(chunk);
    }
  }
  return best;
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
