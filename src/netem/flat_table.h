// Open-addressing hash table for the emulator's per-packet lookups.
//
// std::map's node-per-entry layout costs a pointer chase per tree level on
// every fragment arrival; reassembly lookups happen once per delivered
// packet. FlatTable stores entries inline in one power-of-two slot array with
// linear probing — one cache line touch for the common hit. Keys are the
// emulator's nonzero monotonic ids (msg_id starts at 1), so key 0 marks an
// empty slot and the all-ones key marks a tombstone; neither is ever a real
// id within a feasible execution.
//
// Iteration order is the probe layout (insertion-history dependent), so any
// consumer that feeds canonical artifacts — snapshot save — must sort keys
// first; the emulator does (see Emulator::save).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/hash.h"

namespace turret::netem {

template <typename V>
class FlatTable {
 public:
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::uint64_t kTombstone = ~0ull;

  FlatTable() { slots_.resize(kMinSlots); }

  /// The value for `key`, or nullptr.
  V* find(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix64(key) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmpty) return nullptr;
    }
  }
  const V* find(std::uint64_t key) const {
    return const_cast<FlatTable*>(this)->find(key);
  }

  /// The value for `key`, default-constructed and inserted when absent.
  V& get_or_insert(std::uint64_t key) {
    TURRET_CHECK(key != kEmpty && key != kTombstone);
    maybe_grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t first_tomb = slots_.size();
    for (std::size_t i = mix64(key) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.key == key) return s.value;
      if (s.key == kTombstone && first_tomb == slots_.size()) first_tomb = i;
      if (s.key == kEmpty) {
        Slot& dst = first_tomb != slots_.size() ? slots_[first_tomb] : s;
        if (dst.key == kTombstone) --tombstones_;
        dst.key = key;
        dst.value = V{};
        ++size_;
        return dst.value;
      }
    }
  }

  /// Remove `key` if present; returns true when an entry was erased.
  bool erase(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix64(key) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.key == key) {
        s.key = kTombstone;
        s.value = V{};
        --size_;
        ++tombstones_;
        return true;
      }
      if (s.key == kEmpty) return false;
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    slots_.assign(kMinSlots, Slot{});
    size_ = 0;
    tombstones_ = 0;
  }

  /// Visit every live entry (probe order — NOT canonical; sort keys first
  /// when feeding deterministic artifacts).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmpty && s.key != kTombstone) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    std::uint64_t key = kEmpty;
    V value{};
  };

  static constexpr std::size_t kMinSlots = 16;

  void maybe_grow() {
    // Rehash at 70% occupancy (live + tombstones) to keep probes short.
    if ((size_ + tombstones_ + 1) * 10 <= slots_.size() * 7) return;
    std::vector<Slot> old = std::move(slots_);
    // Shrink back when tombstones dominate; double when genuinely full.
    std::size_t cap = kMinSlots;
    while (cap < (size_ + 1) * 4) cap <<= 1;
    slots_.assign(cap, Slot{});
    tombstones_ = 0;
    const std::size_t mask = slots_.size() - 1;
    for (Slot& s : old) {
      if (s.key == kEmpty || s.key == kTombstone) continue;
      for (std::size_t i = mix64(s.key) & mask;; i = (i + 1) & mask) {
        if (slots_[i].key == kEmpty) {
          slots_[i] = std::move(s);
          break;
        }
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace turret::netem
