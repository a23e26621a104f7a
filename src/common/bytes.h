// The one codec for persisted blobs (catalog payload, shard and
// migration manifests, WAL record payloads, CSG1 segment headers, zone
// maps, ingest state, binary series files). Little endian and fixed
// width like common/coding.h, which fixed-offset page layouts use.
//
// Every decoder consumes its blob exactly or fails with Corruption:
// reads are bounds checked, Count() refuses a count whose elements
// cannot fit in the bytes left before a caller reserves or loops, and
// End() refuses trailing bytes. Seal()/Unseal() add and verify a
// trailing CRC32C of every byte before it.

#ifndef SEGDIFF_COMMON_BYTES_H_
#define SEGDIFF_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/result.h"

namespace segdiff {

/// Append-only builder for a serialized blob.
class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Fixed(v); }
  void U32(uint32_t v) { Fixed(v); }
  void U64(uint64_t v) { Fixed(v); }
  void F64(double v) { Fixed(v); }
  void Bytes(const char* data, size_t n) { out_.append(data, n); }
  void Bytes(const std::string& bytes) { out_.append(bytes); }
  /// A u16 length, then the bytes; callers keep `s` under 64 KiB.
  void Str(const std::string& s) {
    U16(static_cast<uint16_t>(s.size()));
    Bytes(s);
  }
  /// Appends the CRC32C of every byte written so far (ByteReader::Unseal
  /// verifies it).
  void Seal() { U32(Crc32c(out_.data(), out_.size())); }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  template <typename T>
  void Fixed(T v) {
    char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    out_.append(buf, sizeof(T));
  }

  std::string out_;
};

/// Sequential reader over a serialized blob; every read is bounds
/// checked and fails with Corruption on truncation.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::string& blob)
      : ByteReader(blob.data(), blob.size()) {}

  /// Reader over a blob ByteWriter::Seal framed, without its CRC32C;
  /// Corruption when the blob is too short to hold one or it mismatches.
  static Result<ByteReader> Unseal(const char* data, size_t size) {
    if (size < 4 ||
        DecodeFixed32(data + size - 4) != Crc32c(data, size - 4)) {
      return Status::Corruption("checksum mismatch");
    }
    return ByteReader(data, size - 4);
  }

  Result<uint8_t> U8() { return Fixed<uint8_t>(); }
  Result<uint16_t> U16() { return Fixed<uint16_t>(); }
  Result<uint32_t> U32() { return Fixed<uint32_t>(); }
  Result<uint64_t> U64() { return Fixed<uint64_t>(); }
  Result<double> F64() { return Fixed<double>(); }
  Result<std::string> Bytes(size_t n) {
    SEGDIFF_RETURN_IF_ERROR(Need(n));
    std::string bytes(data_ + pos_, n);
    pos_ += n;
    return bytes;
  }
  /// A u16-length string (ByteWriter::Str).
  Result<std::string> Str() {
    SEGDIFF_ASSIGN_OR_RETURN(const uint16_t n, U16());
    return Bytes(n);
  }

  /// Reads an element count (a u32 unless T is wider), refusing one
  /// whose elements, each at least `min_bytes` (> 0) long, cannot fit in
  /// the bytes left.
  template <typename T = uint32_t>
  Result<T> Count(size_t min_bytes) {
    SEGDIFF_ASSIGN_OR_RETURN(const T count, Fixed<T>());
    if (count > remaining() / min_bytes) {
      return Status::Corruption("serialized count overruns the blob");
    }
    return count;
  }

  /// OK only once every byte has been read.
  Status End() const {
    if (remaining() != 0) {
      return Status::Corruption("serialized blob has trailing bytes");
    }
    return Status::OK();
  }

 private:
  size_t remaining() const { return size_ - pos_; }
  Status Need(size_t n) const {
    if (n > remaining()) {
      return Status::Corruption("serialized blob truncated");
    }
    return Status::OK();
  }
  template <typename T>
  Result<T> Fixed() {
    SEGDIFF_RETURN_IF_ERROR(Need(sizeof(T)));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace segdiff

#endif  // SEGDIFF_COMMON_BYTES_H_
