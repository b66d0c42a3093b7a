// Typed message values, encoding and decoding against a Schema.
//
// The malicious proxy uses decode() to identify a message's type and read its
// fields, mutates Values according to a lying strategy, then encode()s the
// result back onto the wire. Guest implementations use MessageWriter /
// MessageReader for their own (hand-written) codecs; both produce the same
// wire format the schema describes, which tests verify.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "serial/serial.h"
#include "wire/schema.h"

namespace turret::wire {

/// A decoded field value. Signed integers normalize to int64, unsigned to
/// uint64, floats to double; bool and bytes keep their own alternatives.
class Value {
 public:
  Value() : v_(std::uint64_t{0}) {}
  static Value of_bool(bool b) { return Value(Repr(b)); }
  static Value of_signed(std::int64_t i) { return Value(Repr(i)); }
  static Value of_unsigned(std::uint64_t u) { return Value(Repr(u)); }
  static Value of_double(double d) { return Value(Repr(d)); }
  static Value of_bytes(Bytes b) { return Value(Repr(std::move(b))); }

  bool as_bool() const { return std::get<bool>(v_); }
  std::int64_t as_signed() const { return std::get<std::int64_t>(v_); }
  std::uint64_t as_unsigned() const { return std::get<std::uint64_t>(v_); }
  double as_double() const { return std::get<double>(v_); }
  const Bytes& as_bytes() const { return std::get<Bytes>(v_); }

  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_signed() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_unsigned() const { return std::holds_alternative<std::uint64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_bytes() const { return std::holds_alternative<Bytes>(v_); }

  bool operator==(const Value& other) const = default;

  /// Debug rendering ("42", "-1", "3.5", "0xdead…", "true").
  std::string to_string() const;

 private:
  using Repr = std::variant<bool, std::int64_t, std::uint64_t, double, Bytes>;
  explicit Value(Repr r) : v_(std::move(r)) {}
  Repr v_;
};

/// A message decoded against a MessageSpec: parallel arrays of spec fields
/// and their values.
struct DecodedMessage {
  const MessageSpec* spec = nullptr;  // owned by the Schema; outlives this
  std::vector<Value> values;

  std::string to_string() const;
};

/// Read the u16 type tag without decoding the rest. Throws WireError if the
/// buffer is shorter than 2 bytes.
TypeTag peek_tag(BytesView wire);

/// The fields of one message, read where they sit on the wire. This is the
/// one place that steps through a schema's layout: decode() copies each
/// field into a Value, and SignedAdapter hashes the signed ones in place.
class FieldWalker {
 public:
  /// `wire` is the whole message, at least its 2-byte tag; `spec` describes
  /// that tag.
  FieldWalker(const MessageSpec& spec, BytesView wire)
      : spec_(&spec), wire_(wire) {}

  /// Step to the next field. False once every field was read, or when the
  /// next one runs past the end of the buffer; complete() tells which.
  bool next();

  /// The field next() stepped to: its index, spec and bytes — a scalar's
  /// little-endian encoding, or a bytes field's content without its length
  /// prefix.
  std::size_t index() const { return read_ - 1; }
  const FieldSpec& field() const { return spec_->fields[read_ - 1]; }
  BytesView data() const { return data_; }

  /// After next() returned false: every field was read and no bytes trail
  /// the last one — exactly when decode() succeeds.
  bool complete() const {
    return need_ == 0 && read_ == spec_->fields.size() &&
           pos_ == wire_.size();
  }
  /// Why the message is not complete(), in decode()'s words.
  std::string error() const;

 private:
  /// True if `n` bytes at `at` are in the buffer; records the shortfall
  /// otherwise.
  bool fits(std::size_t at, std::size_t n);

  const MessageSpec* spec_;
  BytesView wire_;
  std::size_t pos_ = 2;  ///< offset of the next field (past the tag)
  std::size_t read_ = 0;  ///< fields stepped to so far
  BytesView data_;
  std::size_t need_ = 0;  ///< bytes a truncated read wanted (0: none)
  std::size_t need_at_ = 0;
};

/// A scalar field's value as the 64-bit word decode() normalizes it to:
/// signed integers sign-extended, unsigned ones zero-extended, f32 widened
/// to double and either float as the double's bits, bool as 0 or 1. `data`
/// is the field's little-endian encoding (FieldWalker::data()).
std::uint64_t scalar_bits(FieldType type, BytesView data);

/// Decode a full message. Throws WireError if the tag is not in the schema or
/// the payload is malformed/truncated.
DecodedMessage decode(const Schema& schema, BytesView wire);

/// Encode a decoded (possibly mutated) message back to wire bytes. Values are
/// truncated to the field's width exactly as a C cast would — this is what
/// lets a lying action put "-1" into a u32 field and have the victim read a
/// huge value, reproducing the paper's crash attacks.
Bytes encode(const DecodedMessage& msg);

/// Streaming encoder for guest codecs. Produces schema-compatible wire bytes.
class MessageWriter {
 public:
  /// Capacity every encode starts with, so it allocates once. The largest
  /// normal-case message of the registered systems is prime's 154-byte
  /// PrePrepare (a client request with a 64-byte payload is 82); only
  /// larger ones, such as steward's 1 KiB CCSUnion, regrow.
  static constexpr std::size_t kInitialCapacity = 160;

  explicit MessageWriter(TypeTag tag) {
    w_.reserve(kInitialCapacity);
    w_.u16(tag);
  }

  MessageWriter& b(bool v) { w_.boolean(v); return *this; }
  MessageWriter& i8(std::int8_t v) { w_.i8(v); return *this; }
  MessageWriter& i16(std::int16_t v) { w_.i16(v); return *this; }
  MessageWriter& i32(std::int32_t v) { w_.i32(v); return *this; }
  MessageWriter& i64(std::int64_t v) { w_.i64(v); return *this; }
  MessageWriter& u8(std::uint8_t v) { w_.u8(v); return *this; }
  MessageWriter& u16(std::uint16_t v) { w_.u16(v); return *this; }
  MessageWriter& u32(std::uint32_t v) { w_.u32(v); return *this; }
  MessageWriter& u64(std::uint64_t v) { w_.u64(v); return *this; }
  MessageWriter& f32(float v) { w_.f32(v); return *this; }
  MessageWriter& f64(double v) { w_.f64(v); return *this; }
  MessageWriter& bytes(BytesView v) { w_.bytes(v); return *this; }

  Bytes take() { return w_.take(); }

 private:
  serial::Writer w_;
};

/// Streaming decoder for guest codecs. Reads the tag on construction.
///
/// Deliberately thin: guests read fields in order and perform their *own*
/// validation (or fail to — that is what Turret probes for).
class MessageReader {
 public:
  explicit MessageReader(BytesView wire) : r_(wire) { tag_ = r_.u16(); }

  TypeTag tag() const { return tag_; }

  bool b() { return r_.boolean(); }
  std::int8_t i8() { return r_.i8(); }
  std::int16_t i16() { return r_.i16(); }
  std::int32_t i32() { return r_.i32(); }
  std::int64_t i64() { return r_.i64(); }
  std::uint8_t u8() { return r_.u8(); }
  std::uint16_t u16() { return r_.u16(); }
  std::uint32_t u32() { return r_.u32(); }
  std::uint64_t u64() { return r_.u64(); }
  float f32() { return r_.f32(); }
  double f64() { return r_.f64(); }
  Bytes bytes() { return r_.bytes(); }

  bool exhausted() const { return r_.exhausted(); }

 private:
  serial::Reader r_;
  TypeTag tag_;
};

}  // namespace turret::wire
