// Calendar-queue event dispatch for the emulator.
//
// The emulator's former binary heap paid O(log n) Event moves per push/pop
// and re-heapified packet-carrying events through the hot path. A calendar
// queue (Brown 1988, the classic discrete-event simulation structure) files
// each event into a bucket by its timestamp — bucket = (at >> shift) mod
// nbuckets — and pops by scanning the current "day" forward. With bucket
// width tracking the mean event spacing, push and pop are O(1) amortized.
//
// Determinism contract: pop order is the exact total (at, seq) order the
// heap produced — bucket lists are kept sorted by (at, seq); equal
// timestamps always land in the same bucket, so the FIFO tie-break is a
// within-list property and geometry (bucket count, width, cursor) can never
// reorder ties. Geometry is therefore *not* part of the emulator's
// serialized state: save() writes events in canonical (at, seq) order and
// load() refiles them, so two emulators with different resize histories
// still produce byte-identical snapshots and pop sequences.
//
// Each bucket keeps a tail pointer. A push that is not less than its
// bucket's tail appends in O(1). Seq only grows, so that is the common case:
// a broadcast's n-1 deliveries share one `at`, and each is appended behind
// the previous one instead of walking the equal-timestamp run.
//
// Nodes come from a SlabPool: steady-state dispatch (stable queue depth)
// performs no heap allocation. Events are built in their node (push_with)
// and dispatched in it (pop_with), so an Event is never moved through the
// queue.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/pool.h"
#include "netem/event.h"

namespace turret::netem {

class EventQueue {
 public:
  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  void push(Event ev) {
    push_with([&ev](Event& e) { e = std::move(ev); });
  }

  /// Build an event in its pool node: `fill(Event&)` sets the fields of a
  /// default-constructed Event, then the node is filed by (at, seq).
  template <typename Fill>
  void push_with(Fill&& fill) {
    Node* n = pool_.acquire();
    try {
      fill(n->ev);
    } catch (...) {
      pool_.release(n);
      throw;
    }
    insert(n);
  }

  /// Remove and return the (at, seq)-minimal event. Precondition: !empty().
  Event pop();

  /// Remove the (at, seq)-minimal event and run `fn(Event&)` on it where it
  /// lies. `fn` may push new events. The node goes back to the pool when
  /// `fn` returns or throws. Precondition: !empty().
  template <typename Fn>
  void pop_with(Fn&& fn) {
    struct Recycle {
      SlabPool<Node>& pool;
      Node* n;
      ~Recycle() { pool.release(n); }
    };
    const Recycle recycle{pool_, unlink_min()};
    fn(recycle.n->ev);
  }

  /// The (at, seq)-minimal event, or nullptr when empty. (Advances the
  /// internal day cursor; logically const.)
  const Event* peek() const;

  /// Time of the minimal event, or -1 when empty.
  Time peek_time() const {
    const Event* e = peek();
    return e == nullptr ? -1 : e->at;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear();

  /// Every pending event in canonical (at, seq) order — the serialization
  /// view. O(n log n); cold path only.
  std::vector<const Event*> sorted() const;

  /// Pool nodes currently acquired: size() plus the event being dispatched
  /// by pop_with, if any (leak checks in tests).
  std::size_t live_nodes() const { return pool_.live(); }

 private:
  struct Node {
    Event ev;
    Node* next = nullptr;
  };

  /// A sorted (at, seq) list. `tail` is its maximum, null iff `head` is.
  struct Bucket {
    Node* head = nullptr;
    Node* tail = nullptr;
  };

  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = 1 << 16;
  static constexpr int kInitShift = 20;  ///< ~1 ms buckets until first resize
  static constexpr int kMaxShift = 40;

  static bool less(const Event& x, const Event& y) {
    if (x.at != y.at) return x.at < y.at;
    return x.seq < y.seq;
  }

  std::uint64_t slot(Time at) const {
    return static_cast<std::uint64_t>(at) >> shift_;
  }

  const Node* find_min() const;
  void insert(Node* n);        ///< file a freshly filled node, then rebalance
  Node* unlink_min();          ///< detach the minimum (node stays acquired)
  void file(Node* n);          ///< tail append, else sorted insert
  void resize(std::size_t nbuckets);
  void maybe_resize();

  SlabPool<Node> pool_;
  std::vector<Bucket> buckets_;  ///< power-of-two count
  std::size_t mask_ = 0;        ///< buckets_.size() - 1
  int shift_ = kInitShift;      ///< bucket width = 1 << shift_ nanoseconds
  std::size_t size_ = 0;
  /// Day cursor: invariant `cur_slot_ <= slot(min pending at)`. Advanced by
  /// the pop scan, pulled back by pushes below it.
  mutable std::uint64_t cur_slot_ = 0;
  mutable Node* cached_min_ = nullptr;  ///< null = recompute on next peek/pop
};

}  // namespace turret::netem
