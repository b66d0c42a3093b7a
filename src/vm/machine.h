// VirtualMachine: the container a guest runs in.
//
// Models the four VM operations Turret needs from a hypervisor — pause,
// resume, save, load — plus the run-to-completion CPU semantics (input queue,
// busy period) and crash capture. The testbed drives it: network/timer events
// become queued inputs, the VM tells the testbed when the current input's
// handler completes, and the handler runs at that completion instant.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/msgbuf.h"
#include "common/rng.h"
#include "common/types.h"
#include "serial/serial.h"
#include "vm/cpu.h"
#include "vm/guest.h"

namespace turret::vm {

enum class VmState : std::uint8_t { kRunning = 0, kPaused = 1, kCrashed = 2 };

/// A queued input waiting for the guest's CPU.
struct GuestInput {
  enum class Kind : std::uint8_t { kMessage = 0, kTimer = 1 } kind;
  NodeId src = kNoNode;        ///< kMessage
  /// kMessage: a zero-copy view of the network buffer; the queue holds a
  /// refcount, not a copy, for the whole time the input waits for the CPU.
  MessageBuf message;
  std::uint64_t timer_id = 0;  ///< kTimer
  Duration cost = 0;           ///< precharged handler cost

  void save(serial::Writer& w) const;
  static GuestInput load(serial::Reader& r);
};

class VirtualMachine {
 public:
  /// The VM takes ownership of the guest. `seed` derives the guest RNG.
  VirtualMachine(NodeId id, std::unique_ptr<GuestNode> guest,
                 const CpuModel& cpu, std::uint64_t seed);

  NodeId id() const { return id_; }
  GuestNode& guest() { return *guest_; }
  const GuestNode& guest() const { return *guest_; }
  const CpuModel& cpu() const { return cpu_; }
  Rng& rng() { return rng_; }

  VmState state() const { return state_; }
  bool running() const { return state_ == VmState::kRunning; }
  bool crashed() const { return state_ == VmState::kCrashed; }
  const std::string& crash_reason() const { return crash_reason_; }
  Time crash_time() const { return crash_time_; }

  void pause();
  void resume();

  /// Record a guest failure (called by the testbed's crash-capture boundary).
  void mark_crashed(Time at, std::string reason);

  // --- CPU / input queue (driven by the testbed) ---------------------------

  /// Enqueue an input. Returns the completion delay to schedule if the CPU
  /// was idle (i.e. a kHandlerDone event is needed), nullopt if the input
  /// just queued behind the current busy period or the VM cannot accept it.
  std::optional<Duration> enqueue(Time now, GuestInput input);

  /// The previously announced completion fired: pop the input to run. Returns
  /// nullopt if the VM is paused/crashed. After the guest handler ran, call
  /// finish_handler() to learn whether another completion must be scheduled.
  std::optional<GuestInput> begin_handler(Time now);

  /// `extra_cpu` = CPU the handler consumed on top of the precharge. Returns
  /// the delay until the *next* queued input's completion, if any.
  std::optional<Duration> finish_handler(Time now, Duration extra_cpu);

  std::size_t queued_inputs() const { return queue_.size() - head_; }
  Time busy_until() const { return busy_until_; }

  // --- Snapshot (state only; the guest object is recreated by the caller) --

  void save(serial::Writer& w) const;
  void load(serial::Reader& r);

 private:
  NodeId id_;
  std::unique_ptr<GuestNode> guest_;
  CpuModel cpu_;
  Rng rng_;
  VmState state_ = VmState::kRunning;
  std::string crash_reason_;
  Time crash_time_ = -1;

  /// Waiting inputs are queue_[head_, size). Consumed slots are reclaimed
  /// when the queue drains (clear() keeps the capacity) or once they make up
  /// half of it, so a steady enqueue/handle cycle allocates nothing.
  std::vector<GuestInput> queue_;
  std::size_t head_ = 0;
  Time busy_until_ = 0;
  bool handler_pending_ = false;  ///< a kHandlerDone event is in flight
};

}  // namespace turret::vm
