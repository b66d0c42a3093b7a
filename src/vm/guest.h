// The guest-side API: what a protocol implementation sees.
//
// A guest is the analog of the unmodified application inside a KVM VM. It is
// an event-driven message-passing state machine (the paper's message-event
// model): it reacts to start/message/timer events and may send messages, arm
// timers, consume CPU and report application-level performance. Crucially,
// nothing in the attack-finding layers ever looks inside a guest — Turret
// interacts with guests only through the network, the VM pause/resume/
// save/load operations, and the performance metric stream.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/bytes.h"
#include "common/msgbuf.h"
#include "common/rng.h"
#include "common/types.h"
#include "serial/serial.h"

namespace turret::vm {

/// Thrown by guest code when it hits the kind of failure that would be a
/// segfault/assert in a native binary (e.g. resizing a buffer to a lied,
/// sign-flipped length). The VM boundary converts it into a guest crash.
class GuestFault : public std::runtime_error {
 public:
  explicit GuestFault(const std::string& what) : std::runtime_error(what) {}
};

/// Services the platform provides to a guest. Implemented by the Testbed;
/// valid only for the duration of the guest callback it is passed to.
class GuestContext {
 public:
  virtual ~GuestContext() = default;

  virtual NodeId self() const = 0;
  virtual std::uint32_t cluster_size() const = 0;
  virtual Time now() const = 0;
  virtual Rng& rng() = 0;

  /// Send an application message to another node. The message enters the
  /// emulated network (and the malicious proxy, if the sender is malicious).
  virtual void send(NodeId dst, Bytes message) = 0;

  /// Send an already-wrapped message. The buffer is immutable, so a fan-out
  /// loop wraps the encoded message once and every destination shares it:
  /// the network never copies the bytes. The default copies into send(), so
  /// contexts that only override send() still see every message.
  virtual void send_shared(NodeId dst, const MessageBuf& message) {
    send(dst, message.to_bytes());
  }

  /// Arm a one-shot timer. Re-arming the same id replaces the previous one.
  virtual void set_timer(std::uint64_t timer_id, Duration delay) = 0;
  virtual void cancel_timer(std::uint64_t timer_id) = 0;

  /// Charge extra CPU time to the current handler (signature checks, state
  /// digests, ...). Extends the guest's busy period; queued inputs wait.
  virtual void consume_cpu(Duration d) = 0;

  /// Application-level performance reporting (the paper's "applications
  /// report the observed performance back to the controller").
  virtual void count(std::string_view metric, double increment = 1.0) = 0;
  virtual void record(std::string_view metric, double value) = 0;
};

/// A protocol participant. Implementations must be deterministic functions of
/// (their serialized state, the event sequence, ctx.rng()).
class GuestNode {
 public:
  virtual ~GuestNode() = default;

  /// Called once when the testbed starts (or never, on a VM restored from a
  /// snapshot — load() replaces it).
  virtual void start(GuestContext& ctx) = 0;

  /// A reassembled application message arrived from `src`.
  virtual void on_message(GuestContext& ctx, NodeId src, BytesView message) = 0;

  /// Timer `timer_id` fired.
  virtual void on_timer(GuestContext& ctx, std::uint64_t timer_id) = 0;

  /// Serialize the complete protocol state. Restoring into a freshly
  /// constructed instance must reproduce behaviour exactly.
  virtual void save(serial::Writer& w) const = 0;
  virtual void load(serial::Reader& r) = 0;

  /// Diagnostic label ("pbft-replica", "client", ...).
  virtual std::string_view kind() const = 0;
};

}  // namespace turret::vm
