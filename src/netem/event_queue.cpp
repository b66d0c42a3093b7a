#include "netem/event_queue.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace turret::netem {

EventQueue::EventQueue() {
  buckets_.assign(kMinBuckets, Bucket{});
  mask_ = buckets_.size() - 1;
}

EventQueue::~EventQueue() { clear(); }

void EventQueue::clear() {
  for (Bucket& b : buckets_) {
    while (b.head != nullptr) {
      Node* n = b.head;
      b.head = n->next;
      pool_.release(n);
    }
    b.tail = nullptr;
  }
  size_ = 0;
  cur_slot_ = 0;
  cached_min_ = nullptr;
}

void EventQueue::file(Node* n) {
  Bucket& b = buckets_[slot(n->ev.at) & mask_];
  n->next = nullptr;
  if (b.tail == nullptr) {
    b.head = b.tail = n;
  } else if (!less(n->ev, b.tail->ev)) {
    b.tail->next = n;  // the common case: seq grows, so ties append
    b.tail = n;
  } else {
    // Below the tail: walk to the first node not less than n (one exists,
    // the tail), so the tail is unchanged.
    Node** link = &b.head;
    while (less((*link)->ev, n->ev)) link = &(*link)->next;
    n->next = *link;
    *link = n;
  }
}

void EventQueue::insert(Node* n) {
  const std::uint64_t s = slot(n->ev.at);
  if (size_ == 0 || s < cur_slot_) cur_slot_ = s;
  if (cached_min_ != nullptr && less(n->ev, cached_min_->ev)) cached_min_ = n;
  file(n);
  ++size_;
  maybe_resize();
}

const EventQueue::Node* EventQueue::find_min() const {
  if (cached_min_ != nullptr) return cached_min_;
  if (size_ == 0) return nullptr;
  // Scan one full calendar year from the day cursor. Equal timestamps share
  // a bucket, so the first head matching the current day is the global min.
  for (std::size_t i = 0; i < buckets_.size(); ++i, ++cur_slot_) {
    Node* h = buckets_[cur_slot_ & mask_].head;
    if (h != nullptr && slot(h->ev.at) == cur_slot_) {
      cached_min_ = h;
      return h;
    }
  }
  // Sparse tail: every pending event is more than a year out. Direct min
  // over bucket heads (each head is its bucket's minimum).
  Node* best = nullptr;
  for (const Bucket& b : buckets_) {
    Node* h = b.head;
    if (h != nullptr && (best == nullptr || less(h->ev, best->ev))) best = h;
  }
  cur_slot_ = slot(best->ev.at);
  cached_min_ = best;
  return best;
}

const Event* EventQueue::peek() const {
  const Node* n = find_min();
  return n == nullptr ? nullptr : &n->ev;
}

EventQueue::Node* EventQueue::unlink_min() {
  const Node* cn = find_min();
  TURRET_CHECK_MSG(cn != nullptr, "pop from an empty event queue");
  Node* n = const_cast<Node*>(cn);
  Bucket& b = buckets_[slot(n->ev.at) & mask_];
  TURRET_CHECK(b.head == n);  // the global min is the head of its bucket
  b.head = n->next;
  if (b.head == nullptr) b.tail = nullptr;
  --size_;
  cached_min_ = nullptr;
  maybe_resize();  // n is detached, so a resize never touches it
  return n;
}

Event EventQueue::pop() {
  Event ev;
  pop_with([&ev](Event& e) { ev = std::move(e); });
  return ev;
}

std::vector<const Event*> EventQueue::sorted() const {
  std::vector<const Event*> out;
  out.reserve(size_);
  for (const Bucket& b : buckets_) {
    for (const Node* n = b.head; n != nullptr; n = n->next)
      out.push_back(&n->ev);
  }
  std::sort(out.begin(), out.end(), [](const Event* x, const Event* y) {
    return less(*x, *y);
  });
  return out;
}

void EventQueue::maybe_resize() {
  // Grow straight to the target geometry (one resize per growth episode, not
  // a doubling cascade). Shrink only from genuinely large arrays at 1/64
  // occupancy: a modest bucket array costs nothing to keep, and workloads
  // that oscillate between a full wave and a drained queue would otherwise
  // pay a full resize-sort on every cycle — first to shrink at the drain,
  // then to grow the next wave. With sticky geometry the steady state does
  // zero resizes. Geometry never affects pop order, only bucket spread, so
  // the hysteresis is purely a performance choice.
  constexpr std::size_t kShrinkFloor = 4096;
  if (size_ > buckets_.size() * 2 && buckets_.size() < kMaxBuckets) {
    resize(std::min(std::bit_ceil(size_), kMaxBuckets));
  } else if (buckets_.size() > kShrinkFloor && size_ < buckets_.size() / 64) {
    resize(std::max(std::bit_ceil(size_ + 1), kMinBuckets));
  }
}

void EventQueue::resize(std::size_t nbuckets) {
  // Unlink every node, then recompute the bucket width from the actual event
  // spacing: twice the mean gap across the interquartile range, rounded to a
  // power of two so the slot computation stays a shift. All-integer and a
  // pure function of the pending (at, seq) set — geometry never depends on
  // insertion history, only on content.
  std::vector<Node*> nodes;
  nodes.reserve(size_);
  for (const Bucket& b : buckets_) {
    for (Node* n = b.head; n != nullptr; n = n->next) nodes.push_back(n);
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const Node* x, const Node* y) { return less(x->ev, y->ev); });

  if (nodes.size() >= 2) {
    const std::size_t lo = nodes.size() / 4;
    const std::size_t hi = (nodes.size() * 3) / 4;
    const std::uint64_t span = static_cast<std::uint64_t>(
        nodes[hi]->ev.at - nodes[lo]->ev.at);
    const std::uint64_t gaps = std::max<std::uint64_t>(hi - lo, 1);
    const std::uint64_t width = std::max<std::uint64_t>(2 * (span / gaps), 1);
    shift_ = std::min(static_cast<int>(std::bit_width(width)) - 1, kMaxShift);
  }

  buckets_.assign(nbuckets, Bucket{});
  mask_ = buckets_.size() - 1;
  // Refile in canonical order: every insert is a tail append, making the
  // rebuild O(n) after the sort.
  for (Node* n : nodes) file(n);
  cur_slot_ = nodes.empty() ? 0 : slot(nodes.front()->ev.at);
  cached_min_ = nodes.empty() ? nullptr : nodes.front();
}

}  // namespace turret::netem
