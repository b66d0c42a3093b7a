#include "wire/signed_adapter.h"

#include <atomic>
#include <cstring>
#include <memory>

#include "wire/message.h"

namespace turret::wire {

namespace {

void put_u64_le(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u16_le(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

std::uint64_t get_u64_le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint16_t get_u16_le(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::atomic<std::uint64_t> g_next_uid{1};

// The verification memo. A thread mostly opens bytes it sealed or verified
// itself moments before: a branch runs its whole fleet on one thread, so a
// message is opened where it was sealed, once per receiver of a broadcast.
// Each entry holds a whole sealed buffer, trailer included, that open() by
// adapter `uid` would verify; a hit needs the same adapter and the same
// bytes, so it answers exactly what recomputing the MAC would, and any
// tampering misses. Direct-mapped on the low bits of the trailer's mac.lo.
constexpr std::size_t kMemoSlots = 256;
constexpr std::size_t kMemoBytes = 232;  // longer buffers are always MACed

struct MemoEntry {
  std::uint64_t uid = 0;  // 0: empty; adapter uids start at 1
  std::uint32_t size = 0;
  std::uint8_t bytes[kMemoBytes];
};

// Allocated on a thread's first seal or open: threads that never sign (all
// of an unsigned scenario's) pay nothing for it.
thread_local std::unique_ptr<MemoEntry[]> t_memo;

/// The slot of a buffer at least kTrailerSize long.
MemoEntry& memo_slot(BytesView sealed) {
  if (!t_memo) {
    t_memo = std::make_unique_for_overwrite<MemoEntry[]>(kMemoSlots);
  }
  const std::uint8_t* trailer =
      sealed.data() + sealed.size() - SignedAdapter::kTrailerSize;
  return t_memo[get_u64_le(trailer + 8) % kMemoSlots];  // mac.lo
}

bool memo_hit(std::uint64_t uid, BytesView sealed) {
  if (sealed.size() > kMemoBytes) return false;
  const MemoEntry& e = memo_slot(sealed);
  return e.uid == uid && e.size == sealed.size() &&
         std::memcmp(e.bytes, sealed.data(), sealed.size()) == 0;
}

void remember(std::uint64_t uid, BytesView sealed) {
  if (sealed.size() > kMemoBytes) return;
  MemoEntry& e = memo_slot(sealed);
  e.uid = uid;
  e.size = static_cast<std::uint32_t>(sealed.size());
  std::memcpy(e.bytes, sealed.data(), sealed.size());
}

}  // namespace

SignedAdapter::SignedAdapter(const Schema& schema, std::uint64_t key_seed)
    : schema_(&schema),
      key_seed_(key_seed),
      uid_(g_next_uid.fetch_add(1, std::memory_order_relaxed)) {
  key_prefix_.update("turret-signed-key-v1");
  key_prefix_.update_u64(key_seed_);
  mac_prefix_.update("turret-signed-mac-v1");
  for (std::uint32_t id = 0; id < kHeadSenders; ++id) heads_[id] = head_of(id);
}

Digest128 SignedAdapter::key_of(std::uint32_t id) const {
  Hasher128 h = key_prefix_;
  h.update_u64(id);
  return h.digest();
}

SignedAdapter::SenderHead SignedAdapter::head_of(std::uint32_t sender) const {
  SenderHead head{key_of(sender), mac_prefix_};
  head.mac.update_digest(head.key);
  head.mac.update_u64(sender);
  return head;
}

Digest128 SignedAdapter::mac(std::uint32_t sender, BytesView inner) const {
  const SenderHead head =
      sender < kHeadSenders ? heads_[sender] : head_of(sender);
  Hasher128 h = head.mac;

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
  h.update_digest(head.key);
  return h.digest();
}

void SignedAdapter::append_trailer(std::uint32_t sender, Bytes& buf) const {
  const Digest128 m = mac(sender, buf);
  std::array<std::uint8_t, kTrailerSize> trailer;
  put_u64_le(trailer.data(), m.hi);
  put_u64_le(trailer.data() + 8, m.lo);
  put_u16_le(trailer.data() + 16, static_cast<std::uint16_t>(sender));
  put_u16_le(trailer.data() + 18, kMagic);
  buf.insert(buf.end(), trailer.begin(), trailer.end());
  // Remember only what open() would verify: the trailer's u16 must name the
  // sender the MAC was made for, and the inner bytes must hold a tag.
  if (sender <= 0xffff && looks_sealed(buf)) remember(uid_, buf);
}

Bytes SignedAdapter::seal(std::uint32_t sender, BytesView inner) const {
  Bytes out;
  out.reserve(inner.size() + kTrailerSize);
  out.assign(inner.begin(), inner.end());
  append_trailer(sender, out);
  return out;
}

Bytes SignedAdapter::seal(std::uint32_t sender, Bytes&& inner) const {
  append_trailer(sender, inner);
  return std::move(inner);
}

std::optional<SignedAdapter::Opened> SignedAdapter::open(
    BytesView sealed) const {
  if (!looks_sealed(sealed)) return std::nullopt;
  const std::uint8_t* trailer = sealed.data() + sealed.size() - kTrailerSize;
  Opened o;
  o.sender = get_u16_le(trailer + 16);
  o.inner = sealed.first(sealed.size() - kTrailerSize);
  if (memo_hit(uid_, sealed)) {
    o.verified = true;
    return o;
  }
  const Digest128 stored{get_u64_le(trailer), get_u64_le(trailer + 8)};
  o.verified = (mac(o.sender, o.inner) == stored);
  if (o.verified) remember(uid_, sealed);
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

Bytes SignedAdapter::replace_inner(BytesView sealed, Bytes new_inner) {
  if (looks_sealed(sealed)) {
    const std::uint8_t* trailer = sealed.data() + sealed.size() - kTrailerSize;
    new_inner.insert(new_inner.end(), trailer, trailer + kTrailerSize);
  }
  return new_inner;
}

bool SignedAdapter::covers(TypeTag tag, std::size_t field_index) const {
  const MessageSpec* spec = schema_->by_tag(tag);
  if (!spec || field_index >= spec->fields.size()) return false;
  return spec->fields[field_index].is_signed;
}

}  // namespace turret::wire
