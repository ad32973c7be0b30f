#ifndef FABRIC_COMMON_BYTES_H_
#define FABRIC_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace fabric {

// Little-endian append-only byte sink used by the columnar encodings and
// the Avro-style row codec.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  void PutString(std::string_view v) {
    PutU32(static_cast<uint32_t>(v.size()));
    buffer_.append(v.data(), v.size());
  }
  void PutRaw(const void* data, size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  void Reserve(size_t size) { buffer_.reserve(size); }

  size_t size() const { return buffer_.size(); }
  const std::string& buffer() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

// Bounds-checked reader over an encoded buffer. All getters return
// OUT_OF_RANGE on a truncated buffer (FABRIC_RETURN_IF_ERROR works inside
// Result-returning functions because Result is implicitly constructible
// from Status).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8() {
    FABRIC_RETURN_IF_ERROR(Require(1));
    return static_cast<uint8_t>(data_[pos_++]);
  }
  Result<uint32_t> GetU32() { return GetRaw<uint32_t>(); }
  Result<uint64_t> GetU64() { return GetRaw<uint64_t>(); }
  Result<int64_t> GetI64() { return GetRaw<int64_t>(); }
  Result<double> GetDouble() { return GetRaw<double>(); }
  Result<std::string> GetString() {
    auto len = GetU32();
    if (!len.ok()) return len.status();
    FABRIC_RETURN_IF_ERROR(Require(*len));
    std::string out(data_.substr(pos_, *len));
    pos_ += *len;
    return out;
  }
  // Zero-copy variant for scan hot paths: the view aliases the underlying
  // buffer and is valid only while that buffer lives.
  Result<std::string_view> GetStringView() {
    auto len = GetU32();
    if (!len.ok()) return len.status();
    FABRIC_RETURN_IF_ERROR(Require(*len));
    std::string_view out = data_.substr(pos_, *len);
    pos_ += *len;
    return out;
  }
  // Skips `n` bytes without materializing them.
  Status Skip(size_t n) {
    FABRIC_RETURN_IF_ERROR(Require(n));
    pos_ += n;
    return Status::OK();
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status Require(size_t n) {
    if (pos_ + n > data_.size()) {
      return OutOfRangeError("byte buffer truncated");
    }
    return Status::OK();
  }

  template <typename T>
  Result<T> GetRaw() {
    FABRIC_RETURN_IF_ERROR(Require(sizeof(T)));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace fabric

#endif  // FABRIC_COMMON_BYTES_H_
