// The network emulator: virtual clock, event queue, links, devices, the
// malicious-proxy ingress hook, and the save/load/freeze/resume operations
// the paper adds to NS3 (§IV-C).
//
// One Emulator instance models the whole emulated network. Guests never talk
// to each other directly — a guest's send becomes send_message() here, flows
// through the ingress interceptor (the malicious proxy) if one is installed,
// is fragmented to MTU-sized packets, experiences per-link bandwidth
// serialization and propagation delay, is reassembled at the destination, is
// processed by the destination's net device, and finally reaches the
// MessageSink (the testbed), which dispatches it into the destination guest.
//
// Determinism contract: given the same initial state and the same sequence of
// calls, an Emulator produces the identical event sequence. Together with
// save()/load() this provides execution branching.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/msgbuf.h"
#include "common/rng.h"
#include "common/types.h"
#include "netem/capture.h"
#include "netem/device.h"
#include "netem/event.h"
#include "netem/event_queue.h"
#include "netem/flat_table.h"
#include "netem/packet.h"
#include "serial/serial.h"

namespace turret::netem {

/// Thrown by Emulator::step() when an event budget armed via
/// set_event_budget() is exhausted. A branch that schedules events without
/// bound (e.g. a zero-delay timer loop) never advances virtual time past its
/// horizon, so a wall-clock-free runtime can only catch it by capping the
/// event count; the search layer turns this into a clean branch quarantine
/// instead of a wedged pool worker.
class BudgetExceededError : public std::runtime_error {
 public:
  explicit BudgetExceededError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Receives fully reassembled messages and non-packet events.
class MessageSink {
 public:
  virtual ~MessageSink() = default;

  /// A message has arrived at `dst` (already through the net device). The
  /// MessageBuf is a zero-copy view of the sender's buffer for untampered
  /// traffic; take a refcount (cheap) rather than copying bytes.
  virtual void on_message(NodeId dst, NodeId src, MessageBuf message) = 0;

  /// A kTimer / kHandlerDone / kControl event fired.
  virtual void on_event(const Event& ev) = 0;
};

/// The malicious proxy's hook on the emulator ingress path. Called for every
/// message entering the network from a sender it intercepts(); the
/// implementation decides what to do with the message.
class IngressInterceptor {
 public:
  struct Delivery {
    NodeId dst;          ///< possibly diverted destination
    /// Possibly mutated contents. Pass-through deliveries should share the
    /// incoming buffer (copy the MessageBuf — a refcount bump); only a
    /// mutating interceptor materializes fresh bytes, exactly once.
    MessageBuf message;
    Duration delay = 0;  ///< 0 = send now; >0 = hold in the proxy
    /// When held (delay > 0): present the message to the interceptor again
    /// at release time. Used by the controller's injection-point capture —
    /// the proxy holds the first message of a type while the controller
    /// snapshots, and the branch's armed action then applies to the very
    /// message that triggered the injection point (paper §IV-A: "when NS3
    /// intercepts a message ... it asks the controller what actions it
    /// needs to perform on the message").
    bool reintercept = false;
  };

  virtual ~IngressInterceptor() = default;

  /// Whether sends from `src` go through on_send() at all. A sender for
  /// which this returns false bypasses the interceptor: its message is
  /// transmitted unchanged, exactly as a single pass-through Delivery would
  /// have been. Default: every sender is intercepted.
  virtual bool intercepts(NodeId src) const {
    (void)src;
    return true;
  }

  /// Returns the deliveries replacing this send (empty = dropped). `now` is
  /// the emulated time of the send (the interceptor has no clock of its own;
  /// the audit log timestamps decisions with it).
  virtual std::vector<Delivery> on_send(Time now, NodeId src, NodeId dst,
                                        const MessageBuf& message) = 0;

  /// Interceptor state carried inside emulator snapshots (counters, audit
  /// log). Default: stateless. save_state() and load_state() must agree on
  /// the byte format; the emulator length-prefixes the blob, so a snapshot
  /// loads cleanly into an emulator without an interceptor installed.
  virtual void save_state(serial::Writer& w) const { (void)w; }
  virtual void load_state(serial::Reader& r) { (void)r; }
};

/// Per-ordered-pair link parameters.
struct LinkSpec {
  Duration delay = kMillisecond;          ///< one-way propagation delay
  double bandwidth_bps = 1e9;             ///< serialization rate
  double loss_rate = 0.0;                 ///< independent per-packet loss
  bool up = true;                         ///< false = partitioned
};

struct NetConfig {
  std::uint32_t nodes = 0;
  std::size_t mtu = 1500;                 ///< max packet payload bytes
  DeviceKind device = DeviceKind::kBundled;
  LinkSpec default_link;                  ///< applies to every ordered pair
  /// Overrides keyed by (src << 32 | dst); used e.g. for Steward's WAN links.
  std::map<std::uint64_t, LinkSpec> link_overrides;
  std::uint64_t seed = 1;
  /// Opt-in flight recorder (see netem/capture.h). Off by default: the
  /// emulator then carries no recorder and the packet path is unchanged.
  CaptureSpec capture;

  static std::uint64_t pair_key(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }
};

struct EmulatorStats {
  std::uint64_t messages_sent = 0;       ///< messages entering the network
  std::uint64_t messages_delivered = 0;  ///< messages handed to the sink
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t messages_dropped_by_proxy = 0;
  std::uint64_t events_processed = 0;
  /// Incomplete reassemblies reaped after a lost fragment made completion
  /// impossible (they would otherwise ride every later snapshot).
  std::uint64_t reassembly_evicted = 0;
};

class Emulator {
 public:
  explicit Emulator(NetConfig cfg);

  Time now() const { return now_; }
  const NetConfig& config() const { return cfg_; }

  /// The sink must outlive the emulator (the testbed owns both).
  void set_sink(MessageSink* sink) { sink_ = sink; }

  /// Install / remove (nullptr) the malicious proxy.
  void set_interceptor(IngressInterceptor* proxy) { proxy_ = proxy; }

  /// A guest sends an application-level message. Goes through the
  /// interceptor, then fragmentation and the link model. Accepts Bytes
  /// implicitly (wrapped once, never copied again); fragmentation slices
  /// zero-copy views of the buffer.
  void send_message(NodeId src, NodeId dst, MessageBuf message);

  /// Schedule a non-packet event `delay` from now.
  void schedule(Duration delay, EventKind kind, NodeId node, std::uint64_t a,
                std::uint64_t b);

  /// Process the next event if any and not frozen. Returns false when the
  /// queue is empty or the emulator is frozen.
  bool step();

  /// Run events up to and including time `t` (no-op while frozen).
  void run_until(Time t);
  void run_for(Duration d) { run_until(now_ + d); }

  /// Time of the next pending event, or -1 if the queue is empty.
  Time next_event_time() const { return queue_.peek_time(); }
  std::size_t pending_events() const { return queue_.size(); }

  /// Abort guard: after `n` more processed events, step() throws
  /// BudgetExceededError. 0 (the default) disarms. Controller-side state:
  /// not part of snapshots, so a restored branch starts a fresh budget.
  void set_event_budget(std::uint64_t n) {
    event_budget_ = n;
    budget_used_ = 0;
  }

  // --- The operations the paper adds to NS3 -------------------------------

  /// Stop the virtual clock. While frozen, step()/run_until() do nothing, but
  /// send_message() still accepts messages (they are queued as events), which
  /// mirrors NS3 continuing to "create objects for packets it is receiving".
  void freeze() { frozen_ = true; }
  void resume() { frozen_ = false; }
  bool frozen() const { return frozen_; }

  /// Serialize the complete network state: clock, event queue (with packets
  /// in flight), link occupancy, reassembly buffers, loss RNG, statistics.
  void save(serial::Writer& w) const;

  /// Restore a state previously produced by save() on an emulator with the
  /// same NetConfig.
  void load(serial::Reader& r);

  const EmulatorStats& stats() const { return stats_; }
  const NetDevice& device(NodeId node) const { return *devices_.at(node); }

  /// The flight recorder, or nullptr when capture is disabled.
  const FlightRecorder* recorder() const { return recorder_.get(); }
  FlightRecorder* recorder() { return recorder_.get(); }

 private:
  struct LinkState {
    Time busy_until = 0;  ///< when the last serialized packet clears the NIC
  };

  /// In-progress reassembly: the fragments' zero-copy views, stitched back
  /// into one shared-buffer window on completion (no second copy when all
  /// fragments still share the sender's buffer — the untampered common case).
  struct Reassembly {
    std::uint32_t received = 0;
    std::uint32_t msg_bytes = 0;
    std::vector<MessageBuf> frags;  ///< frag_count entries, filled on arrival
    std::vector<bool> have;
  };

  /// O(1) per-message link lookup: default_link with link_overrides applied,
  /// dense nodes*nodes, row-major by src. Built once at construction (the
  /// config map never changes after that) — this is the flat replacement for
  /// the per-send std::map probe.
  const LinkSpec& link_spec(NodeId src, NodeId dst) const {
    return resolved_links_[static_cast<std::size_t>(src) * cfg_.nodes + dst];
  }

  /// Queue an event built in its queue node; `fill_packet(Packet&)` sets the
  /// packet of packet-carrying kinds.
  template <typename FillPacket>
  void push_event(Time at, EventKind kind, NodeId node, std::uint64_t a,
                  std::uint64_t b, FillPacket&& fill_packet);
  void push_event(Time at, EventKind kind, NodeId node, std::uint64_t a,
                  std::uint64_t b);
  void transmit(NodeId src, NodeId dst, MessageBuf message);
  /// Runs inside the event's queue node; may move the payload out of it.
  void dispatch(Event& ev);
  void deliver_packet(Packet& p);
  /// The completed message: a zero-copy rejoin of the shared parent buffer
  /// when possible, one materializing copy otherwise.
  MessageBuf reassemble(const Reassembly& re) const;
  /// The canonical full-size buffer (holes zeroed) snapshot save writes —
  /// byte-identical to the old copy-into-place layout.
  Bytes materialize_reassembly(const Reassembly& re) const;
  /// Keys of reassembly_ in ascending order (the canonical iteration order
  /// snapshot save requires; the flat table itself iterates in probe
  /// order).
  std::vector<std::uint64_t> sorted_reassembly_ids() const;
  Bytes snap_head(BytesView payload) const;

  NetConfig cfg_;
  Time now_ = 0;
  bool frozen_ = false;
  std::uint64_t event_budget_ = 0;  ///< 0 = unlimited
  std::uint64_t budget_used_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_msg_id_ = 1;
  EventQueue queue_;  ///< calendar queue, pops in exact (at, seq) order
  std::vector<LinkState> links_;  ///< nodes*nodes, row-major by src
  std::vector<LinkSpec> resolved_links_;  ///< nodes*nodes, see link_spec()
  FlatTable<Reassembly> reassembly_;  ///< key: msg_id
  std::vector<std::unique_ptr<NetDevice>> devices_;
  Rng loss_rng_;
  EmulatorStats stats_;
  std::unique_ptr<FlightRecorder> recorder_;  ///< null = capture disabled
  MessageSink* sink_ = nullptr;
  IngressInterceptor* proxy_ = nullptr;
};

}  // namespace turret::netem
