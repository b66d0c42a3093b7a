#include "profile.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench {

Profile& Profile::operator+=(const Profile& o) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    layers[i].calls += o.layers[i].calls;
    layers[i].incl_ns += o.layers[i].incl_ns;
    layers[i].self_ns += o.layers[i].self_ns;
    layers[i].bytes += o.layers[i].bytes;
  }
  return *this;
}

void SpanStack::enter(Layer layer, std::int64_t now_ns) {
  frames_.push_back(Frame{layer, now_ns, 0});
}

void SpanStack::exit(std::int64_t now_ns, std::uint64_t bytes) {
  if (frames_.empty()) throw std::logic_error("SpanStack::exit without enter");
  const Frame f = frames_.back();
  frames_.pop_back();
  const std::int64_t dur = now_ns - f.start_ns;
  LayerTotals& t = totals_[f.layer];
  ++t.calls;
  t.incl_ns += dur;
  t.self_ns += dur - f.child_ns;
  t.bytes += bytes;
  if (!frames_.empty()) frames_.back().child_ns += dur;
}

Profile SpanStack::take() {
  Profile p = totals_;
  totals_ = Profile{};
  return p;
}

namespace {

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<SpanStack>> stacks;  // guarded by mu
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: pool threads may outlive main
  return *r;
}

}  // namespace

SpanStack& thread_stack() {
  thread_local SpanStack* mine = nullptr;
  if (mine == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.stacks.push_back(std::make_unique<SpanStack>());
    mine = r.stacks.back().get();
  }
  return *mine;
}

Profile collect() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  Profile sum;
  for (const auto& s : r.stacks) sum += s->take();
  return sum;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace perfbench
