// Byte-level serialization primitives for the columnar file format,
// broker log segments and checkpoints: little-endian fixed ints,
// varints, zigzag and raw buffers.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace oda::common {

/// Default-constructed writers own their buffer (take() hands it off).
/// The external-sink constructor instead appends into a caller-owned
/// vector — the encode-into-arena mode the stream staging buffer uses, so
/// codecs serialize straight into a reusable arena with no intermediate
/// buffer or per-record allocation. Non-copyable (two writers on one sink
/// would interleave); moves re-point an owning writer at its own storage.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::vector<std::uint8_t>& sink) : buf_(&sink) {}

  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;
  ByteWriter(ByteWriter&& o) noexcept
      : owned_(std::move(o.owned_)), buf_(o.buf_ == &o.owned_ ? &owned_ : o.buf_) {}
  ByteWriter& operator=(ByteWriter&& o) noexcept {
    owned_ = std::move(o.owned_);
    buf_ = o.buf_ == &o.owned_ ? &owned_ : o.buf_;
    return *this;
  }

  void u8(std::uint8_t v) { buf_->push_back(v); }
  void u16(std::uint16_t v) { fixed(v); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }
  void i64(std::int64_t v) { fixed(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    fixed(bits);
  }

  /// LEB128-style unsigned varint.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_->push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_->push_back(static_cast<std::uint8_t>(v));
  }

  /// Zigzag-encoded signed varint.
  void svarint(std::int64_t v) {
    varint((static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63));
  }

  void str(std::string_view s) {
    varint(s.size());
    raw(s.data(), s.size());
  }

  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_->insert(buf_->end(), p, p + n);
  }

  /// ASCII decimal, no allocation — staged encoders build keys like
  /// "n1042" directly in the staging arena.
  void text_u64(std::uint64_t v) {
    char tmp[20];
    const auto res = std::to_chars(tmp, tmp + sizeof(tmp), v);
    raw(tmp, static_cast<std::size_t>(res.ptr - tmp));
  }
  void text_i64(std::int64_t v) {
    char tmp[21];
    const auto res = std::to_chars(tmp, tmp + sizeof(tmp), v);
    raw(tmp, static_cast<std::size_t>(res.ptr - tmp));
  }

  std::size_t size() const { return buf_->size(); }
  const std::vector<std::uint8_t>& bytes() const { return *buf_; }
  /// Owning mode only: hands off the buffer. An external-sink writer's
  /// bytes belong to the sink — take() there returns the (empty) owned
  /// buffer, which is never what a caller wants.
  std::vector<std::uint8_t> take() { return std::move(owned_); }

 private:
  template <typename T>
  void fixed(T v) {
    std::uint8_t tmp[sizeof(T)];
    std::memcpy(tmp, &v, sizeof(T));
    buf_->insert(buf_->end(), tmp, tmp + sizeof(T));
  }

  std::vector<std::uint8_t> owned_;
  std::vector<std::uint8_t>* buf_ = &owned_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take_fixed<std::uint8_t>(); }
  std::uint16_t u16() { return take_fixed<std::uint16_t>(); }
  std::uint32_t u32() { return take_fixed<std::uint32_t>(); }
  std::uint64_t u64() { return take_fixed<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(take_fixed<std::uint64_t>()); }
  double f64() {
    const std::uint64_t bits = take_fixed<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (pos_ >= data_.size()) throw std::out_of_range("ByteReader: varint past end");
      const std::uint8_t b = data_[pos_++];
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) return v;
      shift += 7;
      if (shift > 63) throw std::runtime_error("ByteReader: varint too long");
    }
  }

  std::int64_t svarint() {
    const std::uint64_t z = varint();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  std::string str() {
    const std::uint64_t n = varint();
    check(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::span<const std::uint8_t> raw(std::size_t n) {
    check(n);
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ >= data_.size(); }
  std::size_t position() const { return pos_; }

 private:
  template <typename T>
  T take_fixed() {
    check(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  /// Compares against the bytes left rather than computing pos_ + n,
  /// which wraps for a forged length near 2^64.
  void check(std::uint64_t n) const {
    if (n > data_.size() - pos_) throw std::out_of_range("ByteReader: read past end");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// FNV-1a 64-bit hash — content addressing for models, checkpoints and
/// anonymization (governance).
inline std::uint64_t fnv1a(std::span<const std::uint8_t> data, std::uint64_t seed = 0xcbf29ce484222325ull) {
  std::uint64_t h = seed;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::uint64_t fnv1a(std::string_view s, std::uint64_t seed = 0xcbf29ce484222325ull) {
  return fnv1a(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()), seed);
}

}  // namespace oda::common
