#include "wire/signed_adapter.h"

#include "wire/message.h"

namespace turret::wire {

namespace {

void put_u64_le(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u16_le(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

std::uint64_t get_u64_le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint16_t get_u16_le(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

}  // namespace

SignedAdapter::SignedAdapter(const Schema& schema, std::uint64_t key_seed)
    : schema_(&schema), key_seed_(key_seed) {
  key_prefix_.update("turret-signed-key-v1");
  key_prefix_.update_u64(key_seed_);
  mac_prefix_.update("turret-signed-mac-v1");
}

Digest128 SignedAdapter::key_of(std::uint32_t id) const {
  Hasher128 h = key_prefix_;
  h.update_u64(id);
  return h.digest();
}

Digest128 SignedAdapter::mac(std::uint32_t sender, BytesView inner) const {
  const Digest128 key = key_of(sender);
  Hasher128 h = mac_prefix_;
  h.update_digest(key);
  h.update_u64(sender);

  // Cover the tag plus every `signed` field, each hashed as the word (or
  // length and content) decode() would turn it into. A message the schema
  // does not describe, or one decode() would reject, is covered in full — an
  // honest sender never produces one, so the conservative choice costs
  // nothing.
  const MessageSpec* spec =
      inner.size() >= 2 ? schema_->by_tag(peek_tag(inner)) : nullptr;
  bool whole = true;
  if (spec != nullptr) {
    Hasher128 fields = h;
    fields.update_u64(spec->tag);
    FieldWalker walk(*spec, inner);
    while (walk.next()) {
      if (!walk.field().is_signed) continue;
      fields.update_u64(walk.index());
      if (walk.field().type == FieldType::kBytes) {
        fields.update_u64(walk.data().size());
        fields.update(walk.data());
      } else {
        fields.update_u64(scalar_bits(walk.field().type, walk.data()));
      }
    }
    if (walk.complete()) {
      h = fields;
      whole = false;
    }
  }
  if (whole) h.update(inner);

  // Fold the key in again (HMAC-style inner/outer structure) so length
  // extension on the hash cannot help a key-less forger.
  h.update_digest(key);
  return h.digest();
}

Bytes SignedAdapter::seal(std::uint32_t sender, BytesView inner) const {
  const Digest128 m = mac(sender, inner);
  Bytes out;
  out.reserve(inner.size() + kTrailerSize);
  out.assign(inner.begin(), inner.end());
  put_u64_le(out, m.hi);
  put_u64_le(out, m.lo);
  put_u16_le(out, static_cast<std::uint16_t>(sender));
  put_u16_le(out, kMagic);
  return out;
}

std::optional<SignedAdapter::Opened> SignedAdapter::open(
    BytesView sealed) const {
  if (!looks_sealed(sealed)) return std::nullopt;
  const std::uint8_t* trailer = sealed.data() + sealed.size() - kTrailerSize;
  Opened o;
  o.sender = get_u16_le(trailer + 16);
  o.inner = sealed.first(sealed.size() - kTrailerSize);
  Digest128 stored;
  stored.hi = get_u64_le(trailer);
  stored.lo = get_u64_le(trailer + 8);
  o.verified = (mac(o.sender, o.inner) == stored);
  return o;
}

bool SignedAdapter::looks_sealed(BytesView wire) {
  // The inner message always carries at least its u16 tag.
  if (wire.size() < kTrailerSize + 2) return false;
  return get_u16_le(wire.data() + wire.size() - 2) == kMagic;
}

BytesView SignedAdapter::inner_view(BytesView wire) {
  if (!looks_sealed(wire)) return wire;
  return wire.subspan(0, wire.size() - kTrailerSize);
}

Bytes SignedAdapter::replace_inner(BytesView sealed, BytesView new_inner) {
  Bytes out(new_inner.begin(), new_inner.end());
  if (looks_sealed(sealed)) {
    const std::uint8_t* trailer = sealed.data() + sealed.size() - kTrailerSize;
    out.insert(out.end(), trailer, trailer + kTrailerSize);
  }
  return out;
}

bool SignedAdapter::covers(TypeTag tag, std::size_t field_index) const {
  const MessageSpec* spec = schema_->by_tag(tag);
  if (!spec || field_index >= spec->fields.size()) return false;
  return spec->fields[field_index].is_signed;
}

}  // namespace turret::wire
