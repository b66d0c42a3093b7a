#include "wire/message.h"

#include <bit>
#include <cstdio>
#include <cstring>

namespace turret::wire {

namespace {

template <typename T>
T load(BytesView data) {
  T v;
  std::memcpy(&v, data.data(), sizeof v);
  return v;
}

template <typename T>
std::uint64_t widen_signed(BytesView data) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(load<T>(data)));
}

Value scalar_value(FieldType type, BytesView data) {
  const std::uint64_t bits = scalar_bits(type, data);
  if (type == FieldType::kBool) return Value::of_bool(bits != 0);
  if (is_signed_integer(type))
    return Value::of_signed(static_cast<std::int64_t>(bits));
  if (is_unsigned_integer(type)) return Value::of_unsigned(bits);
  return Value::of_double(std::bit_cast<double>(bits));
}

}  // namespace

std::string Value::to_string() const {
  if (is_bool()) return as_bool() ? "true" : "false";
  if (is_signed()) return std::to_string(as_signed());
  if (is_unsigned()) return std::to_string(as_unsigned());
  if (is_double()) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%g", as_double());
    return buf;
  }
  const Bytes& b = as_bytes();
  if (b.size() <= 8) return "0x" + to_hex(b);
  return "bytes[" + std::to_string(b.size()) + "]";
}

std::string DecodedMessage::to_string() const {
  std::string out = spec ? spec->name : "<unknown>";
  out += "{";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    if (spec && i < spec->fields.size()) {
      out += spec->fields[i].name;
      out += "=";
    }
    out += values[i].to_string();
  }
  out += "}";
  return out;
}

TypeTag peek_tag(BytesView wire) {
  if (wire.size() < 2) throw WireError("message shorter than type tag");
  return static_cast<TypeTag>(wire[0] | (wire[1] << 8));
}

bool FieldWalker::fits(std::size_t at, std::size_t n) {
  if (at + n <= wire_.size()) return true;
  need_ = n;
  need_at_ = at;
  return false;
}

bool FieldWalker::next() {
  if (need_ != 0 || read_ == spec_->fields.size()) return false;
  const FieldType type = spec_->fields[read_].type;
  std::size_t at = pos_;
  std::size_t len = scalar_size(type);
  if (type == FieldType::kBytes) {
    if (!fits(at, 4)) return false;
    len = load<std::uint32_t>(wire_.subspan(at, 4));
    at += 4;
  }
  if (!fits(at, len)) return false;
  data_ = wire_.subspan(at, len);
  pos_ = at + len;
  ++read_;
  return true;
}

std::string FieldWalker::error() const {
  if (need_ != 0)
    return "truncated input: need " + std::to_string(need_) +
           " bytes at offset " + std::to_string(need_at_) + " of " +
           std::to_string(wire_.size());
  return std::to_string(wire_.size() - pos_) + " trailing bytes";
}

std::uint64_t scalar_bits(FieldType type, BytesView data) {
  switch (type) {
    case FieldType::kBool: return data[0] != 0 ? 1 : 0;
    case FieldType::kI8: return widen_signed<std::int8_t>(data);
    case FieldType::kI16: return widen_signed<std::int16_t>(data);
    case FieldType::kI32: return widen_signed<std::int32_t>(data);
    case FieldType::kI64: return load<std::uint64_t>(data);
    case FieldType::kU8: return load<std::uint8_t>(data);
    case FieldType::kU16: return load<std::uint16_t>(data);
    case FieldType::kU32: return load<std::uint32_t>(data);
    case FieldType::kU64: return load<std::uint64_t>(data);
    case FieldType::kF32:
      return std::bit_cast<std::uint64_t>(
          static_cast<double>(load<float>(data)));
    case FieldType::kF64: return load<std::uint64_t>(data);
    case FieldType::kBytes: break;
  }
  return 0;
}

DecodedMessage decode(const Schema& schema, BytesView wire) {
  serial::Reader r(wire);
  TypeTag tag;
  try {
    tag = r.u16();
  } catch (const serial::SerialError& e) {
    throw WireError(std::string("decode: ") + e.what());
  }
  const MessageSpec* spec = schema.by_tag(tag);
  if (!spec)
    throw WireError("decode: tag " + std::to_string(tag) +
                    " not described by schema '" + schema.protocol() + "'");
  DecodedMessage msg;
  msg.spec = spec;
  msg.values.reserve(spec->fields.size());
  FieldWalker walk(*spec, wire);
  while (walk.next()) {
    const BytesView data = walk.data();
    msg.values.push_back(walk.field().type == FieldType::kBytes
                             ? Value::of_bytes(Bytes(data.begin(), data.end()))
                             : scalar_value(walk.field().type, data));
  }
  if (!walk.complete())
    throw WireError("decode " + spec->name + ": " + walk.error());
  return msg;
}

Bytes encode(const DecodedMessage& msg) {
  if (!msg.spec) throw WireError("encode: message has no spec");
  if (msg.values.size() != msg.spec->fields.size())
    throw WireError("encode " + msg.spec->name + ": value count mismatch");
  std::size_t size = 2;
  for (std::size_t i = 0; i < msg.values.size(); ++i) {
    const FieldType t = msg.spec->fields[i].type;
    size += t == FieldType::kBytes && msg.values[i].is_bytes()
                ? 4 + msg.values[i].as_bytes().size()
                : scalar_size(t);
  }
  serial::Writer w;
  w.reserve(size);
  w.u16(msg.spec->tag);
  for (std::size_t i = 0; i < msg.values.size(); ++i) {
    const FieldType t = msg.spec->fields[i].type;
    const Value& v = msg.values[i];
    // Lying actions can place any integer into any integer field; the value
    // narrows like a C cast (two's complement wrap). Accept either signed or
    // unsigned carriers for integer fields.
    auto int_bits = [&]() -> std::uint64_t {
      if (v.is_signed()) return static_cast<std::uint64_t>(v.as_signed());
      if (v.is_unsigned()) return v.as_unsigned();
      throw WireError("encode " + msg.spec->name + ": field '" +
                      msg.spec->fields[i].name + "' expects an integer value");
    };
    switch (t) {
      case FieldType::kBool: w.boolean(v.as_bool()); break;
      case FieldType::kI8: w.i8(static_cast<std::int8_t>(int_bits())); break;
      case FieldType::kI16: w.i16(static_cast<std::int16_t>(int_bits())); break;
      case FieldType::kI32: w.i32(static_cast<std::int32_t>(int_bits())); break;
      case FieldType::kI64: w.i64(static_cast<std::int64_t>(int_bits())); break;
      case FieldType::kU8: w.u8(static_cast<std::uint8_t>(int_bits())); break;
      case FieldType::kU16: w.u16(static_cast<std::uint16_t>(int_bits())); break;
      case FieldType::kU32: w.u32(static_cast<std::uint32_t>(int_bits())); break;
      case FieldType::kU64: w.u64(int_bits()); break;
      case FieldType::kF32: w.f32(static_cast<float>(v.as_double())); break;
      case FieldType::kF64: w.f64(v.as_double()); break;
      case FieldType::kBytes: w.bytes(v.as_bytes()); break;
    }
  }
  return w.take();
}

}  // namespace turret::wire
