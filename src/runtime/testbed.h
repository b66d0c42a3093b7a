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

#include "common/hash.h"
#include "common/types.h"
#include "netem/emulator.h"
#include "runtime/metrics.h"
#include "vm/machine.h"
#include "vm/memory.h"
#include "vm/pagestore.h"
#include "vm/snapshot.h"

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

/// How this testbed encodes whole-system snapshots (DESIGN.md §5e).
struct SnapshotPolicy {
  vm::SnapshotMode mode = vm::SnapshotMode::kPlain;
  /// Model full OS/app/unique memory images per `profile` (benches; makes
  /// snapshots Table-II sized). Off: images hold only the heap region — the
  /// serialized guest state — so dedup works on live protocol state.
  bool model_memory = false;
  vm::MemoryProfile profile;
  /// The content-addressed store cow snapshots intern into. Must be one
  /// object shared by every testbed of a search (set it in the scenario
  /// before constructing worlds); a cow testbed without one gets a private
  /// store, which is fine standalone but useless for branching.
  std::shared_ptr<vm::PageStore> store;
};

struct TestbedConfig {
  netem::NetConfig net;
  vm::CpuModel cpu;
  std::uint64_t seed = 1;
  SnapshotPolicy snapshot;
};

/// What one save_snapshot() call wrote and what it avoided writing; the
/// accounting behind the snapshot_bytes_* telemetry counters and the
/// branch-snapshot bench. pages_written counts page contents physically
/// written anywhere (blob or page store); pages_deduped counts pages encoded
/// as references to content written earlier.
struct SnapshotSaveStats {
  vm::SnapshotMode mode = vm::SnapshotMode::kPlain;
  std::uint64_t blob_bytes = 0;
  std::uint64_t bytes_written = 0;  ///< blob + newly interned page bytes
  std::uint64_t bytes_deduped = 0;  ///< pages_deduped * kPageSize
  std::uint32_t pages_total = 0;
  std::uint32_t pages_written = 0;
  std::uint32_t pages_deduped = 0;
  std::uint32_t dirty_pages = 0;    ///< dirty at save entry (delta size)
  std::uint64_t store_pages = 0;    ///< page-store occupancy after the save
  std::uint64_t cow_faults = 0;     ///< cumulative across this testbed's images
};

/// A snapshot blob parsed once into its sections. Branching executes the same
/// injection-point snapshot many times; decoding up front means each branch
/// pays a copy of plain data structures (timers, metrics) and a per-section
/// parse of VM/emulator state instead of re-scanning the whole flat blob.
/// Immutable after decode_snapshot(), so branches on worker threads may load
/// from one shared DecodedSnapshot concurrently. In shared/cow modes the VM
/// images are exposed as refcounted immutable PageFrames: every branch that
/// loads this snapshot adopts them copy-on-write instead of memcpy'ing.
struct DecodedSnapshot {
  bool started = false;
  vm::SnapshotMode mode = vm::SnapshotMode::kPlain;
  bool has_images = false;
  std::vector<Bytes> vm_sections;  ///< one VirtualMachine::save payload each
  /// plain + model_memory: per-VM flat image sections (meta + raw pages).
  std::vector<Bytes> image_sections;
  /// shared/cow: per-VM shared immutable frames (adopted by load_snapshot).
  std::vector<std::shared_ptr<const vm::PageFrames>> frames;
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

  /// Serialize the entire system state (network + all VMs + timers + metrics)
  /// in the configured snapshot mode. In shared/cow modes only pages dirtied
  /// since the previous save are rehashed/interned (delta snapshots).
  Bytes save_snapshot();

  /// Accounting for the most recent save_snapshot() call.
  const SnapshotSaveStats& last_save_stats() const { return save_stats_; }

  /// Copy-on-write faults of the current memory images (zero after a load:
  /// adopted images start counting afresh).
  std::uint64_t cow_faults() const;

  /// Cow mode: the store pages referenced by the most recent save_snapshot()
  /// blob. A non-decoded blob references its pages only through the store,
  /// so callers that keep the blob across PageStore::evict_unreferenced()
  /// must hold this pin alongside it. Null in other modes.
  const std::shared_ptr<const std::vector<vm::PageHandle>>& last_save_pages()
      const {
    return last_save_pages_;
  }

  /// Deterministic digest of the fleet's *behavioral* state: a merkle-style
  /// fold of every VM's state (per-page content hashes when images are
  /// modeled, reusing cached PageStore keys so clean pages cost zero
  /// rehashing; raw serialized state otherwise), the emulator's pending
  /// events up to `horizon` (canonicalized, see Emulator::fingerprint),
  /// timer generations, and metric samples from `from_time` on (earlier
  /// samples are shared snapshot history; later ones feed the branch's
  /// window measurements). Freezes and resumes the world around the walk;
  /// execution is undisturbed. Interceptor (proxy) state is NOT included —
  /// the caller folds its canonical residual separately.
  Digest128 fleet_fingerprint(Time from_time, Time horizon);

  /// The content-addressed store this testbed interns into (null unless cow).
  const std::shared_ptr<vm::PageStore>& page_store() const { return store_; }

  /// Parse a save_snapshot() blob into its sections. Pure function of the
  /// blob and the page store; safe to call from any thread. `store` is
  /// required to resolve cow blobs (pass the store the saving testbed used)
  /// and ignored for other modes.
  static DecodedSnapshot decode_snapshot(BytesView snapshot,
                                         const vm::PageStore* store = nullptr);

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

  /// A page's ref in the store, remembered so clean pages re-reference
  /// without re-hashing; `valid` distinguishes "never interned" from hash 0.
  struct CachedRef {
    vm::PageRef ref;
    bool valid = false;
  };

  void enqueue_input(NodeId node, vm::GuestInput input);
  void run_handler(NodeId node);
  /// Run `call` (a guest handler invocation) inside the crash-capture
  /// boundary. A template, not std::function: the handler lambdas capture
  /// more than the small-buffer size, so type erasure would allocate on
  /// every guest call.
  template <typename Call>
  void guard_guest_call(vm::VirtualMachine& m, Call&& call);

  vm::MemoryProfile effective_profile() const;
  /// Materialize the per-VM memory mirrors on first use, then fold each VM's
  /// freshly serialized state into its heap (dirtying only changed pages).
  void sync_images(const std::vector<Bytes>& states);
  void write_cow_section(serial::Writer& w, std::size_t i);
  void write_shared_map(serial::Writer& w);
  void write_shared_section(serial::Writer& w, std::size_t i);
  void adopt_decoded_images(const DecodedSnapshot& snapshot);

  TestbedConfig cfg_;
  GuestFactory factory_;
  netem::Emulator emu_;
  std::vector<std::unique_ptr<vm::VirtualMachine>> vms_;
  MetricsCollector metrics_;
  /// Snapshot-mode state: per-VM memory mirrors, their cached store refs,
  /// the incremental KSM index, and the shared page store.
  std::vector<vm::MemoryImage> images_;
  std::vector<std::vector<CachedRef>> refs_;
  vm::KsmIndex ksm_;
  std::shared_ptr<vm::PageStore> store_;
  SnapshotSaveStats save_stats_;
  std::shared_ptr<const std::vector<vm::PageHandle>> last_save_pages_;
  std::vector<vm::PageHandle> pin_accum_;  ///< built during a cow save
  bool have_images_ = false;
  /// One-shot timer generations: key (node, timer id) → latest generation.
  /// A kTimer event fires only if its generation is still current.
  std::map<std::pair<NodeId, std::uint64_t>, std::uint64_t> timer_gen_;
  bool started_ = false;
};

}  // namespace turret::runtime
