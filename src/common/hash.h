// Content hashing used by the KSM-style shared-page index, the simulated
// signature scheme, and message digests inside the BFT protocols.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/bytes.h"

namespace turret {

/// FNV-1a 64-bit over a byte range. Deterministic across platforms.
std::uint64_t fnv1a(BytesView data, std::uint64_t seed = 0xcbf29ce484222325ull);

/// FNV-1a over a string.
std::uint64_t fnv1a(std::string_view s, std::uint64_t seed = 0xcbf29ce484222325ull);

/// A 64-bit mixer (useful to combine hashes / derive keys).
std::uint64_t mix64(std::uint64_t x);

/// Combine two hashes order-dependently.
std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b);

/// A 128-bit digest: two independently-derived 64-bit lanes. Used where a
/// single 64-bit hash leaves too much collision headroom (the snapshot
/// content key of the decoded-snapshot cache and the branch memo); consumers
/// that cannot afford even a 2^-128 collision keep byte-compare chains as the
/// backstop.
struct Digest128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Digest128&) const = default;
  auto operator<=>(const Digest128&) const = default;
};

/// Streaming 128-bit hasher. Lane one is plain FNV-1a; lane two chains every
/// word through mix64 from a different seed, so the lanes stay independent on
/// the inputs FNV is weak for (short aligned integer runs). Deterministic
/// across platforms and insensitive to the chunking of update() calls for
/// the u64 path (callers feed fixed-width words, not raw splits).
class Hasher128 {
 public:
  Hasher128() = default;

  void update(BytesView data);
  void update(std::string_view s);
  void update_u64(std::uint64_t v);
  void update_i64(std::int64_t v) {
    update_u64(static_cast<std::uint64_t>(v));
  }
  /// Fold another digest in (merkle-style interior node).
  void update_digest(const Digest128& d) {
    update_u64(d.hi);
    update_u64(d.lo);
  }

  Digest128 digest() const;

 private:
  std::uint64_t fnv_ = 0xcbf29ce484222325ull;
  std::uint64_t mix_ = 0x9e3779b97f4a7c15ull;
  std::uint64_t len_ = 0;
};

}  // namespace turret
