// Per-thread span accounting for the traced benchmark passes.
//
// Spans are opened around calls into one layer (a guest handler, a context
// send, the proxy's on_send, ...) from the benchmark's own decorators. Each
// thread keeps a stack of open spans; when a span closes, its duration is
// charged to its layer in full (inclusive time) and, minus the part of its
// interval its direct children covered, as self time. Totals stay in the
// thread's own record — nothing is shared between worker threads while a
// search runs — and collect() sums every thread's record afterwards.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kHandler,    ///< GuestNode::start / on_message / on_timer
  kSend,       ///< GuestContext::send
  kMetric,     ///< GuestContext::count / record
  kGuestSave,  ///< GuestNode::save
  kGuestLoad,  ///< GuestNode::load
  kProxy,      ///< IngressInterceptor::on_send (the malicious proxy)
  kRunUntil,   ///< Testbed::run_until (branch replay only)
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t incl_ns = 0;  ///< span durations
  std::int64_t self_ns = 0;  ///< span durations minus direct-child coverage
  std::uint64_t bytes = 0;   ///< payload bytes the spans carried (sends)
};

struct Profile {
  std::array<LayerTotals, kLayerCount> layers{};

  LayerTotals& operator[](Layer l) { return layers[static_cast<std::size_t>(l)]; }
  const LayerTotals& operator[](Layer l) const {
    return layers[static_cast<std::size_t>(l)];
  }
  Profile& operator+=(const Profile& o);
};

/// One thread's open spans plus its running totals. Timestamps are passed in
/// so the arithmetic can be tested with a synthetic clock.
class SpanStack {
 public:
  void enter(Layer layer, std::int64_t now_ns);
  /// Closes the innermost open span. `bytes` is added to its layer.
  void exit(std::int64_t now_ns, std::uint64_t bytes = 0);

  std::size_t depth() const { return frames_.size(); }
  const Profile& totals() const { return totals_; }
  /// Returns the totals and zeroes them (open spans are kept).
  Profile take();

 private:
  struct Frame {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::vector<Frame> frames_;
  Profile totals_;
};

/// The calling thread's stack. Stacks are owned by a process-wide registry
/// (not by thread_local storage), so totals outlive pool threads that exit
/// before collect() runs.
SpanStack& thread_stack();

/// Sum and zero every thread's totals. Call only while no traced work runs.
Profile collect();

std::int64_t now_ns();

/// RAII span on the calling thread's stack, timed with steady_clock.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer) : stack_(thread_stack()) {
    stack_.enter(layer, now_ns());
  }
  ~ScopedSpan() { stack_.exit(now_ns(), bytes_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void add_bytes(std::uint64_t n) { bytes_ += n; }

 private:
  SpanStack& stack_;
  std::uint64_t bytes_ = 0;
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty vector.
double quantile(std::vector<double> v, double q);

}  // namespace perfbench
