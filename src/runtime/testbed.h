// The Testbed: one complete emulated deployment.
//
// Owns the network emulator and one VirtualMachine per participant, routes
// emulator events into guest handlers under the CPU model, implements the
// GuestContext services, captures guest crashes, collects metrics, and
// provides whole-system snapshots using the paper's distributed snapshot
// protocol (§III-C):
//
//   save:    freeze emulator → pause VMs → save VM states → save network
//   restore: load network → load VM states → resume VMs → resume emulator
//
// The initiator is the controller (not a participant), all components share
// the virtual clock, and in-flight packets live in the emulator queue — the
// three properties the paper notes make this simpler than Chandy-Lamport.
#pragma once

#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/types.h"
#include "netem/emulator.h"
#include "runtime/metrics.h"
#include "vm/machine.h"

namespace turret::vm {
/// Inert: nothing in src/ reads it; the next benchmark change deletes it.
enum class SnapshotMode : std::uint8_t { kPlain };
/// Inert: nothing in src/ reads it; the next benchmark change deletes it.
class PageStore;
}  // namespace turret::vm

namespace turret::runtime {

/// Creates the guest for node `id`. Called at construction and again on every
/// snapshot restore (guest objects are rebuilt, then their state is loaded).
using GuestFactory =
    std::function<std::unique_ptr<vm::GuestNode>(NodeId id)>;

/// How the platform treats an exception escaping a guest call or a branch
/// attempt (DESIGN.md §5b). One classifier serves both boundaries: the
/// testbed's crash capture and the search layer's contain().
enum class FailureClass : std::uint8_t {
  /// netem::BudgetExceededError (a runaway branch) or std::logic_error (a
  /// TURRET_CHECK invariant): the same input fails the same way again, so
  /// contain() quarantines on the first hit.
  kDeterministic,
  /// fault::FaultError from an armed injection site: contain() retries.
  kTransient,
  /// Anything else: a guest crash at the guest boundary; contain() treats
  /// it as transient.
  kOther,
};

FailureClass classify_failure(const std::exception& e);

/// Inert: nothing in src/ reads it; the next benchmark change deletes it.
struct SnapshotPolicy {
  vm::SnapshotMode mode = vm::SnapshotMode::kPlain;
  std::shared_ptr<vm::PageStore> store;
};

struct TestbedConfig {
  netem::NetConfig net;
  vm::CpuModel cpu;
  std::uint64_t seed = 1;
  SnapshotPolicy snapshot;
};

/// A snapshot blob parsed once into its sections. Branching executes the same
/// injection-point snapshot many times; decoding up front means each branch
/// pays a copy of plain data structures (timers, metrics) and a per-section
/// parse of VM/emulator state instead of re-scanning the whole flat blob.
/// Immutable after decode_snapshot(), so branches on worker threads may load
/// from one shared DecodedSnapshot concurrently.
struct DecodedSnapshot {
  bool started = false;
  std::vector<Bytes> vm_sections;  ///< one VirtualMachine::save payload each
  Bytes emu_section;               ///< netem::Emulator::save payload
  std::map<std::pair<NodeId, std::uint64_t>, std::uint64_t> timers;
  MetricsCollector metrics;
};

class Testbed final : public netem::MessageSink {
 public:
  Testbed(TestbedConfig cfg, GuestFactory factory);
  ~Testbed() override;

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Invoke every guest's start() at the current time. Must be called exactly
  /// once for a fresh testbed; never after load_snapshot().
  void start();

  void run_for(Duration d) { emu_.run_for(d); }
  void run_until(Time t) { emu_.run_until(t); }
  Time now() const { return emu_.now(); }

  netem::Emulator& emulator() { return emu_; }
  const netem::Emulator& emulator() const { return emu_; }
  MetricsCollector& metrics() { return metrics_; }
  const MetricsCollector& metrics() const { return metrics_; }

  std::uint32_t nodes() const { return cfg_.net.nodes; }
  vm::VirtualMachine& machine(NodeId id) { return *vms_.at(id); }
  const vm::VirtualMachine& machine(NodeId id) const { return *vms_.at(id); }

  /// Ids of guests that have crashed so far.
  std::vector<NodeId> crashed_nodes() const;

  // --- Execution branching -------------------------------------------------

  /// Serialize the entire system state. The one snapshot encoding is a
  /// sequence of length-prefixed sections: the started flag, the VM count,
  /// one VirtualMachine::save section per VM, then the emulator, the timer
  /// generations and the metrics.
  Bytes save_snapshot();

  /// Parse a save_snapshot() blob into its sections. Pure function of the
  /// blob; safe to call from any thread. A truncated blob, or one with
  /// trailing bytes, throws serial::SerialError. The second parameter is
  /// inert: ignored, and the next benchmark change deletes it.
  static DecodedSnapshot decode_snapshot(BytesView snapshot,
                                         const vm::PageStore* = nullptr);

  /// Restore a snapshot taken from a testbed with identical config/factory.
  void load_snapshot(BytesView snapshot);

  /// Same, from a pre-decoded snapshot; `snapshot` is only read and may be
  /// shared by concurrent loads into different testbeds.
  void load_snapshot(const DecodedSnapshot& snapshot);

  // --- netem::MessageSink --------------------------------------------------

  void on_message(NodeId dst, NodeId src, MessageBuf message) override;
  void on_event(const netem::Event& ev) override;

 private:
  class Ctx;

  void enqueue_input(NodeId node, vm::GuestInput input);
  void run_handler(NodeId node);
  /// Run `call` (a guest handler invocation) inside the crash-capture
  /// boundary. A template, not std::function: the handler lambdas capture
  /// more than the small-buffer size, so type erasure would allocate on
  /// every guest call.
  template <typename Call>
  void guard_guest_call(vm::VirtualMachine& m, Call&& call);

  TestbedConfig cfg_;
  GuestFactory factory_;
  netem::Emulator emu_;
  std::vector<std::unique_ptr<vm::VirtualMachine>> vms_;
  MetricsCollector metrics_;
  /// One-shot timer generations: key (node, timer id) → latest generation.
  /// A kTimer event fires only if its generation is still current.
  std::map<std::pair<NodeId, std::uint64_t>, std::uint64_t> timer_gen_;
  bool started_ = false;
};

}  // namespace turret::runtime
