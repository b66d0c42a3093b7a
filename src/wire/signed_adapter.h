// Authenticated wire layer: wraps any schema's messages with a per-sender
// MAC covering the fields marked `signed` in the `.msg` description.
//
// Modeled on dsnet's SignedAdapter: every node owns a secret key derived
// deterministically from a scenario-wide seed and its VM id, appends an
// authenticator trailer to each outgoing message, and verifies the claimed
// sender's authenticator on receipt. The MAC covers *only* the signed fields,
// which gives the malicious proxy a two-class lying catalogue:
//
//   * unsigned fields stay silently mutable — the classic Turret lie;
//   * signed fields are mutable but *detected*: the honest receiver's
//     verification fails, it drops the message, and it reports a
//     TamperDetected observation the search algorithms can weight
//     (verification itself becomes a cost the attacker can amplify).
//
// The trailer rides after the schema-described payload:
//
//   [inner wire bytes][mac.hi u64][mac.lo u64][sender u16][magic u16]
//
// so the inner bytes remain exactly what the schema describes; strip the
// trailer (inner_view) and every existing decoder works unchanged.
//
// Keys are simulation-grade, not cryptographic: Turret measures protocol
// behaviour under tampering, not cipher strength. What matters is that the
// proxy does not hold the keys, so it cannot forge a valid MAC for a mutated
// signed field — exactly the asymmetry real HMACs provide.
//
// One adapter is shared by every guest of a scenario, across pool threads:
// everything it holds is set at construction and only read afterwards. The
// one piece of mutable state, a per-thread memo of sealed bytes that open()
// has already seen verify, lives in signed_adapter.cpp (see DESIGN.md §5h).
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "common/hash.h"
#include "wire/schema.h"

namespace turret::wire {

class SignedAdapter {
 public:
  /// Authenticator trailer size in bytes: 16-byte MAC + u16 sender + magic.
  static constexpr std::size_t kTrailerSize = 8 + 8 + 2 + 2;

  /// Trailer magic ("sealed message" marker), little-endian on the wire.
  static constexpr std::uint16_t kMagic = 0xa57e;

  SignedAdapter(const Schema& schema, std::uint64_t key_seed);

  const Schema& schema() const { return *schema_; }
  std::uint64_t key_seed() const { return key_seed_; }

  /// The secret key of node `id`, derived from (key_seed, id). Deterministic,
  /// so branched executions and distributed workers agree byte-for-byte.
  Digest128 key_of(std::uint32_t id) const;

  /// Wrap inner wire bytes (schema format, starting with the u16 tag) with
  /// `sender`'s authenticator trailer. Allocates once.
  Bytes seal(std::uint32_t sender, BytesView inner) const;

  /// The same, appending the trailer to `inner`'s own buffer: no allocation
  /// while its capacity has room for kTrailerSize more bytes.
  Bytes seal(std::uint32_t sender, Bytes&& inner) const;

  struct Opened {
    BytesView inner;           // schema wire bytes, trailer stripped: a
                               // view into the buffer open() was given
    std::uint32_t sender = 0;  // trailer's claimed sender id
    bool verified = false;     // MAC matched the claimed sender's key
  };

  /// Strip and check the trailer. nullopt if the buffer does not carry one
  /// (too short or wrong magic) — callers treat that as tampering too.
  /// Copies nothing: Opened::inner views `sealed`.
  std::optional<Opened> open(BytesView sealed) const;

  /// True if the buffer is long enough to carry a trailer and ends with the
  /// magic marker.
  static bool looks_sealed(BytesView wire);

  /// View of the schema-described bytes: the trailer is dropped when present,
  /// otherwise the buffer is returned unchanged. Never verifies.
  static BytesView inner_view(BytesView wire);

  /// Re-attach `sealed`'s trailer to different inner bytes. This is the
  /// malicious proxy's move: it can rewrite the payload but must replay the
  /// original authenticator since it holds no keys — mutations to MAC-covered
  /// fields therefore fail verification at the receiver.
  /// The trailer is appended to `new_inner`'s buffer.
  static Bytes replace_inner(BytesView sealed, Bytes new_inner);

  /// True if field `field_index` of the message with wire tag `tag` is
  /// covered by the authenticator.
  bool covers(TypeTag tag, std::size_t field_index) const;

 private:
  /// Senders whose key and MAC stream head are derived at construction.
  static constexpr std::uint32_t kHeadSenders = 64;

  struct SenderHead {
    Digest128 key;
    Hasher128 mac;  // "turret-signed-mac-v1" + key + sender
  };

  /// `sender`'s MAC over the tag and signed fields of `inner`, hashed where
  /// they sit on the wire (or over all of `inner` when decode() would reject
  /// it).
  Digest128 mac(std::uint32_t sender, BytesView inner) const;

  /// `sender`'s key and MAC stream head, derived from the prefixes.
  SenderHead head_of(std::uint32_t sender) const;

  /// MAC `buf` (the inner bytes) and append `sender`'s trailer to it.
  void append_trailer(std::uint32_t sender, Bytes& buf) const;

  const Schema* schema_;
  std::uint64_t key_seed_;
  /// Identifies this adapter in the per-thread verification memo. Taken from
  /// a process-wide counter at construction, so adapters built separately
  /// never share it, as a later adapter can share an earlier one's address;
  /// a copy shares it and verifies identically.
  std::uint64_t uid_;
  /// The constant heads of the key and MAC hash streams, hashed once:
  /// "turret-signed-key-v1" + key_seed, and "turret-signed-mac-v1".
  Hasher128 key_prefix_;
  Hasher128 mac_prefix_;
  std::array<SenderHead, kHeadSenders> heads_;
};

}  // namespace turret::wire
