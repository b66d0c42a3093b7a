// Binary serialization for snapshots.
//
// Execution branching saves and restores the entire testbed: emulator event
// queue, link state, every guest's protocol state, every RNG. All of that
// flows through Writer/Reader. The format is a simple little-endian TLV-free
// stream; both sides must agree on field order (they do — save/load pairs are
// always written together). Reader performs bounds checking and throws
// SerialError on truncated or corrupt input, so a damaged snapshot can never
// read out of bounds.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"

namespace turret::serial {

class SerialError : public std::runtime_error {
 public:
  explicit SerialError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends primitive values to an owned byte buffer.
class Writer {
 public:
  Writer() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i8(std::int8_t v) { raw(&v, sizeof v); }
  void i16(std::int16_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f32(float v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  void bytes(BytesView b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }

  /// Append raw bytes with no length prefix (fixed-size records whose size
  /// both sides know, e.g. memory pages).
  void raw_bytes(BytesView b) { raw(b.data(), b.size()); }

  /// Serialize a vector of elements via a per-element callback.
  template <typename T, typename Fn>
  void vec(const std::vector<T>& v, Fn&& per_element) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) per_element(*this, e);
  }

  /// Serialize an ordered map via per-key/per-value callbacks.
  template <typename K, typename V, typename KFn, typename VFn>
  void map(const std::map<K, V>& m, KFn&& kf, VFn&& vf) {
    u32(static_cast<std::uint32_t>(m.size()));
    for (const auto& [k, v] : m) {
      kf(*this, k);
      vf(*this, v);
    }
  }

  template <typename T, typename Fn>
  void opt(const std::optional<T>& o, Fn&& per_value) {
    boolean(o.has_value());
    if (o) per_value(*this, *o);
  }

  /// Make room for `n` bytes in total, so writes up to that size append
  /// without regrowing the buffer.
  void reserve(std::size_t n) { buf_.reserve(n); }

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  Bytes buf_;
};

/// Bounds-checked cursor over a byte buffer.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t u8() { return read_pod<std::uint8_t>(); }
  std::uint16_t u16() { return read_pod<std::uint16_t>(); }
  std::uint32_t u32() { return read_pod<std::uint32_t>(); }
  std::uint64_t u64() { return read_pod<std::uint64_t>(); }
  std::int8_t i8() { return read_pod<std::int8_t>(); }
  std::int16_t i16() { return read_pod<std::int16_t>(); }
  std::int32_t i32() { return read_pod<std::int32_t>(); }
  std::int64_t i64() { return read_pod<std::int64_t>(); }
  float f32() { return read_pod<float>(); }
  double f64() { return read_pod<double>(); }
  bool boolean() { return u8() != 0; }

  std::string str() {
    const std::uint32_t n = u32();
    require(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// Read exactly n raw bytes (no length prefix).
  Bytes raw_bytes(std::size_t n) {
    require(n);
    Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

  Bytes bytes() {
    const std::uint32_t n = u32();
    require(n);
    Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

  template <typename T, typename Fn>
  std::vector<T> vec(Fn&& per_element) {
    const std::uint32_t n = u32();
    std::vector<T> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(per_element(*this));
    return v;
  }

  template <typename K, typename V, typename KFn, typename VFn>
  std::map<K, V> map(KFn&& kf, VFn&& vf) {
    const std::uint32_t n = u32();
    std::map<K, V> m;
    for (std::uint32_t i = 0; i < n; ++i) {
      K k = kf(*this);
      V v = vf(*this);
      m.emplace(std::move(k), std::move(v));
    }
    return m;
  }

  template <typename T, typename Fn>
  std::optional<T> opt(Fn&& per_value) {
    if (!boolean()) return std::nullopt;
    return per_value(*this);
  }

  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }

 private:
  template <typename T>
  T read_pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void require(std::size_t n) const {
    if (pos_ + n > data_.size())
      throw SerialError("truncated input: need " + std::to_string(n) +
                        " bytes at offset " + std::to_string(pos_) + " of " +
                        std::to_string(data_.size()));
  }

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace turret::serial
