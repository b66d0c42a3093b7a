#include "vm/machine.h"

#include <algorithm>

#include "common/check.h"

namespace turret::vm {

void GuestInput::save(serial::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(src);
  w.bytes(message);
  w.u64(timer_id);
  w.i64(cost);
}

GuestInput GuestInput::load(serial::Reader& r) {
  GuestInput in;
  in.kind = static_cast<Kind>(r.u8());
  in.src = r.u32();
  in.message = r.bytes();
  in.timer_id = r.u64();
  in.cost = r.i64();
  return in;
}

VirtualMachine::VirtualMachine(NodeId id, std::unique_ptr<GuestNode> guest,
                               const CpuModel& cpu, std::uint64_t seed)
    : id_(id), guest_(std::move(guest)), cpu_(cpu), rng_(seed) {
  TURRET_CHECK(guest_ != nullptr);
}

void VirtualMachine::pause() {
  if (state_ == VmState::kRunning) state_ = VmState::kPaused;
}

void VirtualMachine::resume() {
  if (state_ == VmState::kPaused) state_ = VmState::kRunning;
}

void VirtualMachine::mark_crashed(Time at, std::string reason) {
  state_ = VmState::kCrashed;
  crash_time_ = at;
  crash_reason_ = std::move(reason);
  queue_.clear();
  head_ = 0;
  handler_pending_ = false;
}

std::optional<Duration> VirtualMachine::enqueue(Time now, GuestInput input) {
  if (crashed()) return std::nullopt;  // a dead box receives nothing
  queue_.push_back(std::move(input));
  if (handler_pending_) return std::nullopt;
  // CPU idle: announce when the front input's handler completes.
  const Time start = std::max(busy_until_, now);
  busy_until_ = start + queue_[head_].cost;
  handler_pending_ = true;
  return busy_until_ - now;
}

std::optional<GuestInput> VirtualMachine::begin_handler(Time now) {
  (void)now;
  if (crashed()) return std::nullopt;  // stale completion event
  TURRET_CHECK_MSG(handler_pending_ && head_ < queue_.size(),
                   "handler completion without a pending input");
  handler_pending_ = false;
  GuestInput in = std::move(queue_[head_++]);
  if (head_ == queue_.size()) {
    queue_.clear();
    head_ = 0;
  } else if (head_ * 2 >= queue_.size()) {
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return in;
}

std::optional<Duration> VirtualMachine::finish_handler(Time now,
                                                       Duration extra_cpu) {
  if (crashed()) return std::nullopt;  // the handler crashed the guest
  busy_until_ = now + std::max<Duration>(extra_cpu, 0);
  if (head_ == queue_.size()) return std::nullopt;
  busy_until_ += queue_[head_].cost;
  handler_pending_ = true;
  return busy_until_ - now;
}

void VirtualMachine::save(serial::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(state_));
  w.str(crash_reason_);
  w.i64(crash_time_);
  w.u32(static_cast<std::uint32_t>(queued_inputs()));
  for (std::size_t i = head_; i < queue_.size(); ++i) queue_[i].save(w);
  w.i64(busy_until_);
  w.boolean(handler_pending_);
  std::uint64_t rng_state[4];
  rng_.save_state(rng_state);
  for (std::uint64_t s : rng_state) w.u64(s);
  guest_->save(w);
}

void VirtualMachine::load(serial::Reader& r) {
  state_ = static_cast<VmState>(r.u8());
  crash_reason_ = r.str();
  crash_time_ = r.i64();
  const std::uint32_t n = r.u32();
  queue_.clear();
  head_ = 0;
  for (std::uint32_t i = 0; i < n; ++i) queue_.push_back(GuestInput::load(r));
  busy_until_ = r.i64();
  handler_pending_ = r.boolean();
  std::uint64_t rng_state[4];
  for (std::uint64_t& s : rng_state) s = r.u64();
  rng_.load_state(rng_state);
  guest_->load(r);
}

}  // namespace turret::vm
