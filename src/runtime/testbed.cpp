#include "runtime/testbed.h"

#include <limits>

#include "common/check.h"
#include "common/fault.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/trace.h"

namespace turret::runtime {

// ---------------------------------------------------------------------------
// GuestContext implementation
// ---------------------------------------------------------------------------

class Testbed::Ctx final : public vm::GuestContext {
 public:
  Ctx(Testbed& tb, vm::VirtualMachine& m) : tb_(tb), m_(m) {}

  NodeId self() const override { return m_.id(); }
  std::uint32_t cluster_size() const override { return tb_.nodes(); }
  Time now() const override { return tb_.emu_.now(); }
  Rng& rng() override { return m_.rng(); }

  void send(NodeId dst, Bytes message) override {
    if (unroutable(dst)) return;
    tb_.emu_.send_message(m_.id(), dst, std::move(message));
  }

  void send_shared(NodeId dst, const MessageBuf& message) override {
    if (unroutable(dst)) return;
    tb_.emu_.send_message(m_.id(), dst, message);
  }

  void set_timer(std::uint64_t timer_id, Duration delay) override {
    auto& gen = tb_.timer_gen_[{m_.id(), timer_id}];
    ++gen;  // invalidates any previously armed instance
    // The delay is guest input, like a send's destination: a negative one
    // fires now, and one past the end of Time arms nothing. Both are counted;
    // the emulator's own check stays for platform callers.
    if (delay < 0 || delay > std::numeric_limits<Time>::max() - now()) {
      tb_.metrics_.count("bad_timer_delay", now());
      if (delay > 0) return;
      delay = 0;
    }
    tb_.emu_.schedule(delay, netem::EventKind::kTimer, m_.id(), timer_id, gen);
  }

  void cancel_timer(std::uint64_t timer_id) override {
    auto it = tb_.timer_gen_.find({m_.id(), timer_id});
    if (it != tb_.timer_gen_.end()) ++it->second;
  }

  void consume_cpu(Duration d) override {
    if (d > 0) extra_cpu_ += d;
  }

  void count(std::string_view metric, double increment) override {
    tb_.metrics_.count(metric, now(), increment);
  }

  void record(std::string_view metric, double value) override {
    tb_.metrics_.record(metric, now(), value);
  }

  Duration extra_cpu() const { return extra_cpu_; }

 private:
  /// A send to a node id outside the cluster (a guest trusting a lied id) is
  /// guest behaviour, not a platform error: the message is dropped and
  /// counted, and the emulator's own range check stays for platform callers.
  bool unroutable(NodeId dst) {
    if (dst < tb_.nodes()) return false;
    tb_.metrics_.count("unroutable", now());
    return true;
  }

  Testbed& tb_;
  vm::VirtualMachine& m_;
  Duration extra_cpu_ = 0;
};

// ---------------------------------------------------------------------------
// Testbed
// ---------------------------------------------------------------------------

Testbed::Testbed(TestbedConfig cfg, GuestFactory factory)
    : cfg_(std::move(cfg)), factory_(std::move(factory)), emu_(cfg_.net) {
  TURRET_CHECK(factory_ != nullptr);
  emu_.set_sink(this);
  vms_.reserve(cfg_.net.nodes);
  for (NodeId id = 0; id < cfg_.net.nodes; ++id) {
    vms_.push_back(std::make_unique<vm::VirtualMachine>(
        id, factory_(id), cfg_.cpu, mix64(cfg_.seed) ^ (id + 1)));
  }
}

Testbed::~Testbed() = default;

FailureClass classify_failure(const std::exception& e) {
  if (dynamic_cast<const netem::BudgetExceededError*>(&e) != nullptr ||
      dynamic_cast<const std::logic_error*>(&e) != nullptr) {
    return FailureClass::kDeterministic;
  }
  if (dynamic_cast<const fault::FaultError*>(&e) != nullptr)
    return FailureClass::kTransient;
  return FailureClass::kOther;
}

template <typename Call>
void Testbed::guard_guest_call(vm::VirtualMachine& m, Call&& call) {
  // The crash-capture boundary: what would be a segfault or failed assert in
  // a native binary surfaces here as an exception from guest code. Platform
  // conditions (invariants, injected faults, budget aborts) are *not*
  // absorbed: they surface at the branch containment layer instead of
  // masquerading as guest crashes, which would classify as attacks.
  try {
    call();
  } catch (const std::exception& e) {
    if (classify_failure(e) != FailureClass::kOther) throw;
    m.mark_crashed(emu_.now(), e.what());
    metrics_.count("guest_crashes", emu_.now());
    TLOG_INFO("guest %u crashed at %s: %s", m.id(),
              format_time(emu_.now()).c_str(), e.what());
  }
}

void Testbed::start() {
  TURRET_CHECK_MSG(!started_, "start() called twice");
  started_ = true;
  for (auto& vm : vms_) {
    Ctx ctx(*this, *vm);
    guard_guest_call(*vm, [&] { vm->guest().start(ctx); });
  }
}

std::vector<NodeId> Testbed::crashed_nodes() const {
  std::vector<NodeId> out;
  for (const auto& vm : vms_) {
    if (vm->crashed()) out.push_back(vm->id());
  }
  return out;
}

void Testbed::enqueue_input(NodeId node, vm::GuestInput input) {
  vm::VirtualMachine& m = *vms_.at(node);
  const auto completion = m.enqueue(emu_.now(), std::move(input));
  if (completion) {
    emu_.schedule(*completion, netem::EventKind::kHandlerDone, node, 0, 0);
  }
}

void Testbed::on_message(NodeId dst, NodeId src, MessageBuf message) {
  vm::GuestInput in;
  in.kind = vm::GuestInput::Kind::kMessage;
  in.src = src;
  in.cost = cfg_.cpu.message_cost(message.size());
  in.message = std::move(message);
  enqueue_input(dst, std::move(in));
}

void Testbed::on_event(const netem::Event& ev) {
  switch (ev.kind) {
    case netem::EventKind::kTimer: {
      const auto it = timer_gen_.find({ev.node, ev.a});
      if (it == timer_gen_.end() || it->second != ev.b) return;  // cancelled
      vm::GuestInput in;
      in.kind = vm::GuestInput::Kind::kTimer;
      in.timer_id = ev.a;
      in.cost = cfg_.cpu.timer_base;
      enqueue_input(ev.node, std::move(in));
      break;
    }
    case netem::EventKind::kHandlerDone:
      run_handler(ev.node);
      break;
    case netem::EventKind::kControl:
      break;  // reserved for controllers; no platform behaviour
    default:
      TURRET_CHECK_MSG(false, "unexpected event kind reached the sink");
  }
}

void Testbed::run_handler(NodeId node) {
  fault::inject(fault::kGuestStep);
  vm::VirtualMachine& m = *vms_.at(node);
  auto input = m.begin_handler(emu_.now());
  if (!input) return;  // guest crashed while this completion was in flight

  Ctx ctx(*this, m);
  guard_guest_call(m, [&] {
    if (input->kind == vm::GuestInput::Kind::kMessage) {
      m.guest().on_message(ctx, input->src, input->message);
    } else {
      m.guest().on_timer(ctx, input->timer_id);
    }
  });

  const auto next = m.finish_handler(emu_.now(), ctx.extra_cpu());
  if (next) {
    emu_.schedule(*next, netem::EventKind::kHandlerDone, node, 0, 0);
  }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

Bytes Testbed::save_snapshot() {
  // Paper order: freeze the emulator (virtual time stops; it may still accept
  // packets), pause every VM, save VM states, then save the network.
  emu_.freeze();
  for (auto& vm : vms_) vm->pause();

  // Each component serializes into its own length-prefixed section so that
  // decode_snapshot() can split the blob without understanding component
  // internals.
  serial::Writer w;
  w.boolean(started_);
  w.u32(static_cast<std::uint32_t>(vms_.size()));
  for (const auto& vm : vms_) {
    serial::Writer section;
    vm->save(section);
    w.bytes(section.data());
  }
  {
    serial::Writer section;
    emu_.save(section);
    w.bytes(section.data());
  }
  {
    serial::Writer section;
    section.u32(static_cast<std::uint32_t>(timer_gen_.size()));
    for (const auto& [key, gen] : timer_gen_) {
      section.u32(key.first);
      section.u64(key.second);
      section.u64(gen);
    }
    w.bytes(section.data());
  }
  {
    serial::Writer section;
    metrics_.save(section);
    w.bytes(section.data());
  }

  for (auto& vm : vms_) vm->resume();
  emu_.resume();

  Bytes blob = w.take();
  trace::add(trace::Counter::snapshot_bytes_written, blob.size());
  return blob;
}

DecodedSnapshot Testbed::decode_snapshot(BytesView snapshot,
                                         const vm::PageStore*) {
  fault::inject(fault::kSnapshotDecode);
  serial::Reader r(snapshot);
  DecodedSnapshot d;
  d.started = r.boolean();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) d.vm_sections.push_back(r.bytes());
  d.emu_section = r.bytes();
  {
    const Bytes section = r.bytes();
    serial::Reader tr(section);
    const std::uint32_t nt = tr.u32();
    for (std::uint32_t i = 0; i < nt; ++i) {
      const NodeId node = tr.u32();
      const std::uint64_t timer_id = tr.u64();
      const std::uint64_t gen = tr.u64();
      d.timers[{node, timer_id}] = gen;
    }
    if (!tr.exhausted())
      throw serial::SerialError("trailing bytes in timer section");
  }
  {
    const Bytes section = r.bytes();
    serial::Reader mr(section);
    d.metrics.load(mr);
    if (!mr.exhausted())
      throw serial::SerialError("trailing bytes in metrics section");
  }
  if (!r.exhausted())
    throw serial::SerialError("trailing bytes in testbed snapshot");
  return d;
}

void Testbed::load_snapshot(BytesView snapshot) {
  load_snapshot(decode_snapshot(snapshot));
}

void Testbed::load_snapshot(const DecodedSnapshot& snapshot) {
  fault::inject(fault::kSnapshotLoad);
  started_ = snapshot.started;
  TURRET_CHECK_MSG(snapshot.vm_sections.size() == vms_.size(),
                   "snapshot VM count does not match testbed config");
  // Restore order (reverse of save): network first, then VMs, then resume.
  // Guests are rebuilt fresh, then their state is loaded from their section.
  for (NodeId id = 0; id < vms_.size(); ++id) {
    vms_[id] = std::make_unique<vm::VirtualMachine>(
        id, factory_(id), cfg_.cpu, /*seed=*/0);  // RNG state overwritten by load
    serial::Reader r(snapshot.vm_sections[id]);
    vms_[id]->load(r);
    TURRET_CHECK_MSG(r.exhausted(), "trailing bytes in VM section");
  }
  {
    serial::Reader r(snapshot.emu_section);
    emu_.load(r);
    TURRET_CHECK_MSG(r.exhausted(), "trailing bytes in emulator section");
  }
  timer_gen_ = snapshot.timers;
  metrics_ = snapshot.metrics;

  for (auto& vm : vms_) vm->resume();  // they were saved in the paused state
  emu_.resume();
}

}  // namespace turret::runtime
