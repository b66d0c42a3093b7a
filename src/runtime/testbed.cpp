#include "runtime/testbed.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <unordered_map>

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
  store_ = cfg_.snapshot.store;
  if (cfg_.snapshot.mode == vm::SnapshotMode::kCow && store_ == nullptr) {
    // Standalone cow testbed: private store. Branching searches must share
    // one store across worlds via cfg.snapshot.store instead.
    store_ = std::make_shared<vm::PageStore>();
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

vm::MemoryProfile Testbed::effective_profile() const {
  if (cfg_.snapshot.model_memory) return cfg_.snapshot.profile;
  // Live default: no synthetic OS/app/unique regions — the image is exactly
  // the heap holding the serialized guest state, so dedup and deltas work on
  // real protocol state, not modeled filler.
  vm::MemoryProfile p;
  p.os_pages = 0;
  p.app_pages = 0;
  p.unique_pages = 0;
  return p;
}

void Testbed::sync_images(const std::vector<Bytes>& states) {
  if (!have_images_) {
    images_.clear();
    images_.resize(vms_.size());
    refs_.assign(vms_.size(), {});
    ksm_ = vm::KsmIndex{};
    const vm::MemoryProfile prof = effective_profile();
    for (std::size_t i = 0; i < vms_.size(); ++i) {
      // vm_uid is the node id (stable across testbeds of one scenario, so
      // identical nodes produce identical unique-region pages and cross-world
      // interning dedups them).
      images_[i].materialize(prof, i + 1, states[i]);
    }
    have_images_ = true;
  } else {
    for (std::size_t i = 0; i < vms_.size(); ++i) {
      images_[i].update_heap(states[i]);
    }
  }
}

void Testbed::write_cow_section(serial::Writer& w, std::size_t i) {
  vm::MemoryImage& img = images_[i];
  std::vector<CachedRef>& refs = refs_[i];
  refs.resize(img.page_count());
  serial::Writer s;
  img.save_meta(s);
  s.u32(static_cast<std::uint32_t>(img.page_count()));
  for (std::size_t p = 0; p < img.page_count(); ++p) {
    if (!refs[p].valid || img.dirty(p)) {
      const vm::PageStore::Interned in =
          store_->intern(img.page(p), img.page_hash(p));
      refs[p] = {in.ref, true};
      if (in.inserted) ++save_stats_.pages_written;
    }
    s.u64(refs[p].ref.hash);
    s.u32(refs[p].ref.slot);
    pin_accum_.push_back(store_->get(refs[p].ref));
  }
  w.bytes(s.data());
}

void Testbed::write_shared_map(serial::Writer& w) {
  serial::Writer s;
  s.u32(static_cast<std::uint32_t>(ksm_.canonical().size()));
  for (const auto& [v, p] : ksm_.canonical()) {
    s.u64(ksm_.page_key(v, p));
    s.raw_bytes(images_[v].page(p));
  }
  w.bytes(s.data());
  save_stats_.pages_written +=
      static_cast<std::uint32_t>(ksm_.canonical().size());
}

void Testbed::write_shared_section(serial::Writer& w, std::size_t i) {
  const vm::MemoryImage& img = images_[i];
  serial::Writer s;
  img.save_meta(s);
  s.u32(static_cast<std::uint32_t>(img.page_count()));
  for (std::size_t p = 0; p < img.page_count(); ++p) {
    if (ksm_.is_shared(i, p)) {
      s.u8(1);
      s.u64(ksm_.page_key(i, p));
    } else {
      s.u8(0);
      s.raw_bytes(img.page(p));
      ++save_stats_.pages_written;
    }
  }
  w.bytes(s.data());
}

Bytes Testbed::save_snapshot() {
  // Paper order: freeze the emulator (virtual time stops; it may still accept
  // packets), pause every VM, save VM states, then save the network.
  emu_.freeze();
  for (auto& vm : vms_) vm->pause();

  std::vector<Bytes> states;
  states.reserve(vms_.size());
  for (const auto& vm : vms_) {
    serial::Writer section;
    vm->save(section);
    states.push_back(section.take());
  }

  const vm::SnapshotMode mode = cfg_.snapshot.mode;
  const bool images =
      mode != vm::SnapshotMode::kPlain || cfg_.snapshot.model_memory;
  save_stats_ = SnapshotSaveStats{};
  save_stats_.mode = mode;

  // Each component serializes into its own length-prefixed section so that
  // decode_snapshot() can split the blob without understanding component
  // internals.
  serial::Writer w;
  w.boolean(started_);
  w.u8(static_cast<std::uint8_t>(mode));
  w.boolean(images);
  w.u32(static_cast<std::uint32_t>(vms_.size()));

  if (images) {
    sync_images(states);
    for (const auto& img : images_) {
      save_stats_.pages_total += static_cast<std::uint32_t>(img.page_count());
      save_stats_.dirty_pages += static_cast<std::uint32_t>(img.dirty_count());
    }
    save_stats_.cow_faults = cow_faults();
  }

  switch (mode) {
    case vm::SnapshotMode::kPlain:
      if (!images) {
        for (const Bytes& state : states) w.bytes(state);
      } else {
        for (std::size_t i = 0; i < images_.size(); ++i) {
          serial::Writer s;
          images_[i].save_meta(s);
          s.u32(static_cast<std::uint32_t>(images_[i].page_count()));
          s.bytes(images_[i].flatten());
          w.bytes(s.data());
        }
        save_stats_.pages_written = save_stats_.pages_total;
      }
      break;
    case vm::SnapshotMode::kShared:
      // Incremental KSM: only pages dirtied since the previous save are
      // rehashed before the shared map is emitted.
      {
        std::vector<const vm::MemoryImage*> ptrs;
        ptrs.reserve(images_.size());
        for (const auto& img : images_) ptrs.push_back(&img);
        ksm_.rescan(ptrs);
      }
      write_shared_map(w);
      for (std::size_t i = 0; i < images_.size(); ++i)
        write_shared_section(w, i);
      break;
    case vm::SnapshotMode::kCow:
      pin_accum_.clear();
      for (std::size_t i = 0; i < images_.size(); ++i) write_cow_section(w, i);
      last_save_pages_ = std::make_shared<const std::vector<vm::PageHandle>>(
          std::move(pin_accum_));
      pin_accum_ = {};
      break;
  }
  if (images) {
    // New epoch: the next save's delta is relative to this snapshot.
    for (auto& img : images_) img.clear_dirty();
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
  save_stats_.pages_deduped =
      save_stats_.pages_total - save_stats_.pages_written;
  save_stats_.blob_bytes = blob.size();
  // cow pages live in the store, not the blob; everything else is inline.
  save_stats_.bytes_written =
      save_stats_.blob_bytes +
      (mode == vm::SnapshotMode::kCow
           ? static_cast<std::uint64_t>(save_stats_.pages_written) *
                 vm::kPageSize
           : 0);
  save_stats_.bytes_deduped =
      static_cast<std::uint64_t>(save_stats_.pages_deduped) * vm::kPageSize;
  if (store_) save_stats_.store_pages = store_->stats().stored_pages;
  trace::add(trace::Counter::snapshot_bytes_written, save_stats_.bytes_written);
  trace::add(trace::Counter::snapshot_bytes_deduped, save_stats_.bytes_deduped);
  trace::set_gauge(trace::Counter::pagestore_pages, save_stats_.store_pages);
  return blob;
}

std::uint64_t Testbed::cow_faults() const {
  std::uint64_t n = 0;
  for (const vm::MemoryImage& img : images_) n += img.cow_faults();
  return n;
}

Digest128 Testbed::fleet_fingerprint(Time from_time, Time horizon) {
  // Same stop-the-world discipline as save_snapshot, minus any serialization
  // of the full system: freeze, walk, resume. Nothing here perturbs future
  // execution, so a branch that continues running afterwards behaves exactly
  // as if the fingerprint had never been taken.
  emu_.freeze();
  for (auto& vm : vms_) vm->pause();

  std::vector<Bytes> states;
  states.reserve(vms_.size());
  for (const auto& vm : vms_) {
    serial::Writer section;
    vm->save(section);
    states.push_back(section.take());
  }

  Hasher128 h;
  const bool images = cfg_.snapshot.mode != vm::SnapshotMode::kPlain ||
                      cfg_.snapshot.model_memory;
  if (images) {
    // Merkle-style fold over per-page content hashes. Clean pages reuse the
    // cached store key from the snapshot this branch was restored from (or
    // its last save) — zero rehashing; only pages dirtied since then are
    // hashed. Page keys are 64-bit, so the backstop against a page-level
    // collision is the 128-bit combine plus the emulator/timer/metric state
    // folded in below, not a byte compare (documented in DESIGN.md §5f).
    sync_images(states);
    h.update_u64(images_.size());
    for (std::size_t i = 0; i < images_.size(); ++i) {
      const vm::MemoryImage& img = images_[i];
      std::vector<CachedRef>& refs = refs_[i];
      refs.resize(img.page_count());
      h.update_u64(img.page_count());
      for (std::size_t p = 0; p < img.page_count(); ++p) {
        if (refs[p].valid && !img.dirty(p)) {
          h.update_u64(refs[p].ref.hash);
        } else {
          h.update_u64(img.page_hash(p));
        }
      }
    }
  } else {
    h.update_u64(states.size());
    for (const Bytes& s : states) {
      h.update_u64(s.size());
      h.update(s);
    }
  }

  emu_.fingerprint(h, horizon);

  // Timer generations disambiguate pending kTimer events (a stale generation
  // means "cancelled"); two branches with identical queues but different
  // cancellation state must not collapse.
  h.update_u64(timer_gen_.size());
  for (const auto& [key, gen] : timer_gen_) {
    h.update_u64(key.first);
    h.update_u64(key.second);
    h.update_u64(gen);
  }

  // Metric samples from the injection on feed the branch's window
  // measurements; earlier history is identical by construction (both
  // branches restored the same snapshot).
  for (const std::string& name : metrics_.metric_names()) {
    const std::vector<MetricPoint> pts =
        metrics_.points(name, from_time, horizon);
    h.update(std::string_view(name));
    h.update_u64(pts.size());
    for (const MetricPoint& p : pts) {
      h.update_i64(p.t);
      h.update_u64(std::bit_cast<std::uint64_t>(p.v));
    }
  }

  for (auto& vm : vms_) vm->resume();
  emu_.resume();
  return h.digest();
}

DecodedSnapshot Testbed::decode_snapshot(BytesView snapshot,
                                         const vm::PageStore* store) {
  fault::inject(fault::kSnapshotDecode);
  serial::Reader r(snapshot);
  DecodedSnapshot d;
  d.started = r.boolean();
  const std::uint8_t mode_byte = r.u8();
  if (mode_byte > static_cast<std::uint8_t>(vm::SnapshotMode::kCow)) {
    throw serial::SerialError("unknown snapshot mode " +
                              std::to_string(mode_byte));
  }
  d.mode = static_cast<vm::SnapshotMode>(mode_byte);
  d.has_images = r.boolean();
  const std::uint32_t n = r.u32();

  // Shared mode carries its dedup dictionary up front: content key → page.
  std::unordered_map<std::uint64_t, vm::PageHandle> shared;
  if (d.mode == vm::SnapshotMode::kShared) {
    const Bytes section = r.bytes();
    serial::Reader sr(section);
    const std::uint32_t count = sr.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t key = sr.u64();
      const Bytes raw = sr.raw_bytes(vm::kPageSize);
      auto page = std::make_shared<vm::Page>();
      std::memcpy(page->bytes.data(), raw.data(), vm::kPageSize);
      shared.emplace(key, std::move(page));
    }
    if (!sr.exhausted())
      throw serial::SerialError("trailing bytes in shared-page map");
  }
  if (d.mode == vm::SnapshotMode::kCow) {
    TURRET_CHECK_MSG(store != nullptr,
                     "cow snapshot decode requires the search's PageStore");
  }

  d.vm_sections.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Bytes section = r.bytes();
    if (d.mode == vm::SnapshotMode::kPlain && !d.has_images) {
      d.vm_sections.push_back(section);
      continue;
    }
    serial::Reader vr(section);
    const std::uint32_t heap_start = vr.u32();
    const std::uint32_t heap_pages = vr.u32();
    const std::uint32_t state_bytes = vr.u32();
    const std::uint32_t pages = vr.u32();
    if (static_cast<std::uint64_t>(heap_start) + heap_pages > pages ||
        state_bytes > static_cast<std::uint64_t>(heap_pages) * vm::kPageSize) {
      throw serial::SerialError("inconsistent snapshot image metadata");
    }
    if (d.mode == vm::SnapshotMode::kPlain) {
      const Bytes flat = vr.bytes();
      if (flat.size() != static_cast<std::size_t>(pages) * vm::kPageSize)
        throw serial::SerialError("snapshot image size/page-count mismatch");
      if (!vr.exhausted())
        throw serial::SerialError("trailing bytes in snapshot image section");
      const std::size_t off =
          static_cast<std::size_t>(heap_start) * vm::kPageSize;
      d.vm_sections.emplace_back(flat.begin() + static_cast<std::ptrdiff_t>(off),
                                 flat.begin() +
                                     static_cast<std::ptrdiff_t>(off +
                                                                 state_bytes));
      d.image_sections.push_back(section);
      continue;
    }
    // shared / cow: rebuild immutable PageFrames the loader can adopt.
    auto frames = std::make_shared<vm::PageFrames>();
    frames->heap_start_pfn = heap_start;
    frames->heap_pages = heap_pages;
    frames->state_bytes = state_bytes;
    frames->pages.reserve(pages);
    if (d.mode == vm::SnapshotMode::kShared) {
      for (std::uint32_t p = 0; p < pages; ++p) {
        const std::uint8_t marker = vr.u8();
        if (marker == 0) {
          const Bytes raw = vr.raw_bytes(vm::kPageSize);
          auto page = std::make_shared<vm::Page>();
          std::memcpy(page->bytes.data(), raw.data(), vm::kPageSize);
          frames->pages.push_back(std::move(page));
        } else if (marker == 1) {
          const std::uint64_t key = vr.u64();
          const auto it = shared.find(key);
          if (it == shared.end())
            throw serial::SerialError(
                "shared snapshot references a page missing from its map");
          frames->pages.push_back(it->second);
        } else {
          throw serial::SerialError("bad page marker in shared snapshot");
        }
      }
    } else {
      frames->refs.reserve(pages);
      for (std::uint32_t p = 0; p < pages; ++p) {
        vm::PageRef ref;
        ref.hash = vr.u64();
        ref.slot = vr.u32();
        frames->pages.push_back(store->get(ref));
        frames->refs.push_back(ref);
      }
    }
    if (!vr.exhausted())
      throw serial::SerialError("trailing bytes in snapshot image section");
    // The guest-state section is the heap prefix of the image.
    Bytes state(state_bytes);
    std::size_t copied = 0;
    for (std::uint32_t hp = 0; hp < heap_pages && copied < state_bytes; ++hp) {
      const std::size_t chunk =
          std::min<std::size_t>(vm::kPageSize, state_bytes - copied);
      std::memcpy(state.data() + copied,
                  frames->pages[heap_start + hp]->bytes.data(), chunk);
      copied += chunk;
    }
    d.vm_sections.push_back(std::move(state));
    d.frames.push_back(std::move(frames));
  }
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
    TURRET_CHECK_MSG(tr.exhausted(), "trailing bytes in timer section");
  }
  {
    const Bytes section = r.bytes();
    serial::Reader mr(section);
    d.metrics.load(mr);
    TURRET_CHECK_MSG(mr.exhausted(), "trailing bytes in metrics section");
  }
  TURRET_CHECK_MSG(r.exhausted(), "trailing bytes in testbed snapshot");
  return d;
}

void Testbed::load_snapshot(BytesView snapshot) {
  load_snapshot(decode_snapshot(snapshot, store_.get()));
}

void Testbed::adopt_decoded_images(const DecodedSnapshot& snapshot) {
  // The restored world starts a fresh dedup epoch; any incremental KSM state
  // belongs to the world we just discarded.
  ksm_ = vm::KsmIndex{};
  if (!snapshot.has_images) {
    have_images_ = false;
    images_.clear();
    refs_.clear();
    return;
  }
  images_.clear();
  images_.resize(vms_.size());
  refs_.assign(vms_.size(), {});
  if (!snapshot.frames.empty()) {
    TURRET_CHECK_MSG(snapshot.frames.size() == vms_.size(),
                     "snapshot frame count does not match testbed config");
    for (std::size_t i = 0; i < vms_.size(); ++i) {
      images_[i].adopt(snapshot.frames[i]);
      const auto& fr = *snapshot.frames[i];
      if (!fr.refs.empty()) {
        // cow: the decoded refs are already interned — reuse them so the next
        // save only interns pages this branch actually dirtied.
        refs_[i].resize(fr.pages.size());
        for (std::size_t p = 0; p < fr.pages.size(); ++p) {
          refs_[i][p] = {fr.refs[p], true};
        }
      }
    }
  } else {
    TURRET_CHECK_MSG(snapshot.image_sections.size() == vms_.size(),
                     "snapshot image count does not match testbed config");
    for (std::size_t i = 0; i < vms_.size(); ++i) {
      serial::Reader r(snapshot.image_sections[i]);
      images_[i].load_meta(r);
      r.u32();  // page count, validated by decode
      images_[i].assign_pages(r.bytes());
      images_[i].clear_dirty();
    }
  }
  have_images_ = true;
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
  adopt_decoded_images(snapshot);

  for (auto& vm : vms_) vm->resume();  // they were saved in the paused state
  emu_.resume();
}

}  // namespace turret::runtime
