// NodeSet: the replica-id sets of quorum bookkeeping (prepare and commit
// votes, checkpoint attesters, view-change supporters, client reply sets).
//
// Honest ids are small — replicas occupy [0, n) and clients follow — so ids
// below 64 live in one bitmask word and inserting them allocates nothing. A
// lie can put any u32 into a replica field (0xffffffff in Reply.replica or
// Commit.replica), and guests that do not validate it insert it as is; such
// ids fall back to a std::set, so membership, size and duplicate detection
// keep std::set<std::uint32_t> semantics for every u32. Iteration is
// ascending, so a guest's save loop writes the bytes a std::set would.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <set>

namespace turret::systems {

class NodeSet {
 public:
  /// Ascending walk: the remaining mask bits, then the overflow set.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = std::uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::uint32_t*;
    using reference = std::uint32_t;

    std::uint32_t operator*() const {
      return low_ != 0 ? static_cast<std::uint32_t>(std::countr_zero(low_))
                       : *high_;
    }
    const_iterator& operator++() {
      if (low_ != 0) {
        low_ &= low_ - 1;
      } else {
        ++high_;
      }
      return *this;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class NodeSet;
    const_iterator(std::uint64_t low,
                   std::set<std::uint32_t>::const_iterator high)
        : low_(low), high_(high) {}

    std::uint64_t low_;  ///< mask ids not visited yet
    std::set<std::uint32_t>::const_iterator high_;
  };

  /// Adds `id`; true when it was not a member yet.
  bool insert(std::uint32_t id) {
    if (id >= kMaskIds) return high_.insert(id).second;
    const std::uint64_t bit = std::uint64_t{1} << id;
    const bool added = (low_ & bit) == 0;
    low_ |= bit;
    return added;
  }

  bool contains(std::uint32_t id) const {
    if (id >= kMaskIds) return high_.count(id) != 0;
    return (low_ >> id) & 1;
  }

  std::size_t size() const {
    return static_cast<std::size_t>(std::popcount(low_)) + high_.size();
  }

  void clear() {
    low_ = 0;
    high_.clear();
  }

  const_iterator begin() const { return {low_, high_.begin()}; }
  const_iterator end() const { return {0, high_.end()}; }

 private:
  static constexpr std::uint32_t kMaskIds = 64;

  std::uint64_t low_ = 0;         ///< bit i set: id i (< 64) is a member
  std::set<std::uint32_t> high_;  ///< members >= 64
};

}  // namespace turret::systems
