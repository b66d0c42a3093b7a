// VM layer tests: machine CPU semantics, crash capture state, memory
// paging, and the page-sharing snapshot manager.
#include <gtest/gtest.h>

#include <cstring>

#include "vm/machine.h"
#include "vm/memory.h"
#include "vm/snapshot.h"

namespace turret::vm {
namespace {

// A trivial guest for machine tests.
struct EchoGuest : GuestNode {
  int messages = 0;
  int timers = 0;
  void start(GuestContext&) override {}
  void on_message(GuestContext&, NodeId, BytesView) override { ++messages; }
  void on_timer(GuestContext&, std::uint64_t) override { ++timers; }
  void save(serial::Writer& w) const override {
    w.i32(messages);
    w.i32(timers);
  }
  void load(serial::Reader& r) override {
    messages = r.i32();
    timers = r.i32();
  }
  std::string_view kind() const override { return "echo"; }
};

GuestInput msg_input(Duration cost) {
  GuestInput in;
  in.kind = GuestInput::Kind::kMessage;
  in.src = 1;
  in.message = Bytes{1, 2, 3};
  in.cost = cost;
  return in;
}

TEST(Machine, IdleCpuAnnouncesCompletion) {
  VirtualMachine m(0, std::make_unique<EchoGuest>(), CpuModel{}, 1);
  auto d = m.enqueue(0, msg_input(100));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 100);
  // Second input queues silently behind the pending one.
  EXPECT_FALSE(m.enqueue(10, msg_input(50)).has_value());
  EXPECT_EQ(m.queued_inputs(), 2u);
}

TEST(Machine, BusyPeriodSerializesInputs) {
  VirtualMachine m(0, std::make_unique<EchoGuest>(), CpuModel{}, 1);
  m.enqueue(0, msg_input(100));
  m.enqueue(0, msg_input(100));
  auto in1 = m.begin_handler(100);
  ASSERT_TRUE(in1.has_value());
  // Handler consumed 40 extra: next completion = 40 (extra) + 100 (cost).
  auto next = m.finish_handler(100, 40);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 140);
  EXPECT_EQ(m.busy_until(), 240);
}

TEST(Machine, CrashDropsQueueAndFutureInputs) {
  VirtualMachine m(0, std::make_unique<EchoGuest>(), CpuModel{}, 1);
  m.enqueue(0, msg_input(100));
  m.enqueue(0, msg_input(100));
  m.mark_crashed(50, "segfault");
  EXPECT_TRUE(m.crashed());
  EXPECT_EQ(m.crash_reason(), "segfault");
  EXPECT_EQ(m.crash_time(), 50);
  EXPECT_EQ(m.queued_inputs(), 0u);
  EXPECT_FALSE(m.begin_handler(100).has_value());  // stale completion
  EXPECT_FALSE(m.enqueue(60, msg_input(10)).has_value());
}

TEST(Machine, PauseResumeRoundTrip) {
  VirtualMachine m(0, std::make_unique<EchoGuest>(), CpuModel{}, 1);
  EXPECT_EQ(m.state(), VmState::kRunning);
  m.pause();
  EXPECT_EQ(m.state(), VmState::kPaused);
  m.resume();
  EXPECT_EQ(m.state(), VmState::kRunning);
  // Crash is sticky: pause/resume cannot revive it.
  m.mark_crashed(1, "x");
  m.pause();
  m.resume();
  EXPECT_TRUE(m.crashed());
}

TEST(Machine, SaveLoadPreservesQueueAndGuest) {
  VirtualMachine a(0, std::make_unique<EchoGuest>(), CpuModel{}, 1);
  a.enqueue(0, msg_input(100));
  a.enqueue(0, msg_input(70));
  static_cast<EchoGuest&>(a.guest()).messages = 5;
  serial::Writer w;
  a.save(w);

  VirtualMachine b(0, std::make_unique<EchoGuest>(), CpuModel{}, 999);
  serial::Reader r(w.data());
  b.load(r);
  EXPECT_EQ(b.queued_inputs(), 2u);
  EXPECT_EQ(b.busy_until(), a.busy_until());
  EXPECT_EQ(static_cast<EchoGuest&>(b.guest()).messages, 5);
  // RNG state transferred: next draws are identical.
  EXPECT_EQ(a.rng().next_u64(), b.rng().next_u64());
}

TEST(Machine, SaveLoadAfterInputsWereConsumedFromTheFront) {
  // Three queued inputs, one handled: the consumed slot is still in front
  // of the waiting ones, and a snapshot must carry only those.
  VirtualMachine a(0, std::make_unique<EchoGuest>(), CpuModel{}, 1);
  for (const Duration cost : {100, 70, 40}) {
    GuestInput in = msg_input(cost);
    in.message = Bytes{static_cast<std::uint8_t>(cost), 9};
    a.enqueue(0, std::move(in));
  }
  ASSERT_TRUE(a.begin_handler(100).has_value());
  ASSERT_TRUE(a.finish_handler(100, 0).has_value());
  ASSERT_EQ(a.queued_inputs(), 2u);
  serial::Writer w;
  a.save(w);

  VirtualMachine b(0, std::make_unique<EchoGuest>(), CpuModel{}, 999);
  serial::Reader r(w.data());
  b.load(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(b.queued_inputs(), 2u);
  serial::Writer again;
  b.save(again);
  EXPECT_EQ(again.data(), w.data());

  // Both machines hand out the same remaining inputs in the same order.
  for (const Duration cost : {70, 40}) {
    const auto from_a = a.begin_handler(a.busy_until());
    const auto from_b = b.begin_handler(b.busy_until());
    ASSERT_TRUE(from_a.has_value());
    ASSERT_TRUE(from_b.has_value());
    EXPECT_EQ(from_a->cost, cost);
    EXPECT_EQ(from_b->cost, cost);
    EXPECT_EQ(from_a->message.to_bytes(), from_b->message.to_bytes());
    EXPECT_EQ(from_b->message.to_bytes(),
              (Bytes{static_cast<std::uint8_t>(cost), 9}));
    a.finish_handler(a.busy_until(), 0);
    b.finish_handler(b.busy_until(), 0);
  }
  EXPECT_EQ(a.queued_inputs(), 0u);
  EXPECT_EQ(b.queued_inputs(), 0u);
}

// --- Memory images ---------------------------------------------------------

MemoryProfile small_profile() {
  MemoryProfile p;
  p.os_pages = 16;
  p.app_pages = 8;
  p.unique_pages = 8;
  return p;
}

TEST(MemoryImage, LayoutAndGuestStateRoundTrip) {
  const MemoryProfile p = small_profile();
  Bytes state = to_bytes("guest protocol state, longer than one line");
  MemoryImage img;
  img.materialize(p, 1, state);
  EXPECT_EQ(img.page_count(), 16u + 8 + 1 + 8);
  EXPECT_EQ(img.extract_guest_state(), state);
}

TEST(MemoryImage, OsPagesIdenticalAcrossVms) {
  const MemoryProfile p = small_profile();
  MemoryImage a, b;
  a.materialize(p, 1, to_bytes("aaa"));
  b.materialize(p, 2, to_bytes("bbbbbb"));
  for (std::size_t i = 0; i < p.os_pages + p.app_pages; ++i) {
    EXPECT_EQ(a.page_hash(i), b.page_hash(i)) << "page " << i;
  }
  // Unique region differs.
  EXPECT_NE(a.page_hash(a.page_count() - 1), b.page_hash(b.page_count() - 1));
}

// --- Snapshot manager -------------------------------------------------------

std::vector<MemoryImage> make_fleet(std::size_t n) {
  std::vector<MemoryImage> fleet(n);
  const MemoryProfile p = small_profile();
  for (std::size_t i = 0; i < n; ++i) {
    fleet[i].materialize(p, i + 1,
                         to_bytes("state of vm #" + std::to_string(i)));
  }
  return fleet;
}

std::vector<const MemoryImage*> const_ptrs(const std::vector<MemoryImage>& v) {
  std::vector<const MemoryImage*> out;
  for (const auto& m : v) out.push_back(&m);
  return out;
}

TEST(Snapshot, PlainSaveLoadRoundTrips) {
  auto fleet = make_fleet(3);
  MemoryBlobStore store;
  const auto ptrs = const_ptrs(fleet);
  const SaveReport rep = SnapshotManager::save_plain(ptrs, store, "t");
  EXPECT_EQ(rep.total_pages, 3 * fleet[0].page_count());
  EXPECT_EQ(rep.shared_pages, 0u);

  std::vector<MemoryImage> restored(3);
  std::vector<MemoryImage*> rp{&restored[0], &restored[1], &restored[2]};
  SnapshotManager::load_plain(rp, store, "t");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(restored[i].raw(), fleet[i].raw()) << "vm " << i;
    EXPECT_EQ(restored[i].extract_guest_state(), fleet[i].extract_guest_state());
  }
}

TEST(Snapshot, SharedSaveDeduplicatesOsPages) {
  auto fleet = make_fleet(5);
  MemoryBlobStore plain_store, shared_store;
  const auto ptrs = const_ptrs(fleet);
  const SaveReport plain = SnapshotManager::save_plain(ptrs, plain_store, "p");
  const SaveReport shared = SnapshotManager::save_shared(ptrs, shared_store, "s");

  // 24 sharable pages per VM (os+app) of 33 total: substantial reduction.
  EXPECT_GT(shared.shared_pages, 5u * 20);
  EXPECT_LT(shared.bytes_written, plain.bytes_written * 0.6)
      << "plain=" << plain.bytes_written << " shared=" << shared.bytes_written;
  // The shared map holds each distinct page once.
  EXPECT_LE(shared.shared_unique, 24u + 2);
}

TEST(Snapshot, SharedSaveLoadRoundTrips) {
  auto fleet = make_fleet(4);
  MemoryBlobStore store;
  SnapshotManager::save_shared(const_ptrs(fleet), store, "t");
  std::vector<MemoryImage> restored(4);
  std::vector<MemoryImage*> rp;
  for (auto& m : restored) rp.push_back(&m);
  SnapshotManager::load_shared(rp, store, "t");
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(restored[i].raw(), fleet[i].raw()) << "vm " << i;
    EXPECT_EQ(restored[i].extract_guest_state(), fleet[i].extract_guest_state());
  }
}

TEST(Snapshot, SharedModeHandlesSingleVm) {
  auto fleet = make_fleet(1);
  MemoryBlobStore store;
  const SaveReport rep =
      SnapshotManager::save_shared(const_ptrs(fleet), store, "solo");
  EXPECT_EQ(rep.shared_pages, 0u) << "nothing to share across one VM";
  std::vector<MemoryImage> restored(1);
  std::vector<MemoryImage*> rp{&restored[0]};
  SnapshotManager::load_shared(rp, store, "solo");
  EXPECT_EQ(restored[0].raw(), fleet[0].raw());
}

TEST(Snapshot, FileStoreRoundTrips) {
  auto fleet = make_fleet(2);
  FileBlobStore store("/tmp/turret_test_snapshots");
  SnapshotManager::save_shared(const_ptrs(fleet), store, "f");
  EXPECT_TRUE(store.contains("f.shared"));
  EXPECT_TRUE(store.contains("f.vm0"));
  std::vector<MemoryImage> restored(2);
  std::vector<MemoryImage*> rp{&restored[0], &restored[1]};
  SnapshotManager::load_shared(rp, store, "f");
  EXPECT_EQ(restored[0].raw(), fleet[0].raw());
  EXPECT_EQ(restored[1].raw(), fleet[1].raw());
}

// --- KsmIndex hardening and snapshot corruption -----------------------------

TEST(KsmIndex, SafeDefaultsBeforeScan) {
  KsmIndex ksm;
  EXPECT_FALSE(ksm.scanned());
  EXPECT_FALSE(ksm.is_shared(0, 0));
  EXPECT_EQ(ksm.page_key(0, 0), 0u);
  EXPECT_TRUE(ksm.canonical().empty());
}

TEST(KsmIndex, OutOfRangeQueriesAreSafeAfterScan) {
  std::vector<MemoryImage> fleet(2);
  for (std::size_t i = 0; i < 2; ++i)
    fleet[i].materialize(small_profile(), i + 1, to_bytes("s"));
  std::vector<const MemoryImage*> ptrs{&fleet[0], &fleet[1]};
  KsmIndex ksm;
  ksm.scan(ptrs);
  EXPECT_TRUE(ksm.scanned());
  EXPECT_FALSE(ksm.is_shared(99, 0));
  EXPECT_FALSE(ksm.is_shared(0, 99999));
  EXPECT_EQ(ksm.page_key(99, 0), 0u);
  EXPECT_EQ(ksm.page_key(0, 99999), 0u);
  // In-range OS pages are shared across the two VMs.
  EXPECT_TRUE(ksm.is_shared(0, 0));
  EXPECT_NE(ksm.page_key(0, 0), 0u);
}

TEST(SnapshotErrors, LoadSharedMissingResidualBlob) {
  auto fleet = make_fleet(2);
  std::vector<const MemoryImage*> ptrs{&fleet[0], &fleet[1]};
  MemoryBlobStore store;
  SnapshotManager::save_shared(ptrs, store, "t");

  std::vector<MemoryImage> restored(3);  // one VM more than was saved
  std::vector<MemoryImage*> rp{&restored[0], &restored[1], &restored[2]};
  EXPECT_THROW(SnapshotManager::load_shared(rp, store, "t"), std::logic_error);
}

TEST(SnapshotErrors, LoadSharedTruncatedSharedMap) {
  auto fleet = make_fleet(2);
  std::vector<const MemoryImage*> ptrs{&fleet[0], &fleet[1]};
  MemoryBlobStore store;
  SnapshotManager::save_shared(ptrs, store, "t");

  Bytes map = store.get("t.shared");
  ASSERT_FALSE(map.empty());
  map.pop_back();  // no longer a whole number of (hash, page) records
  store.put("t.shared", map);

  std::vector<MemoryImage> restored(2);
  std::vector<MemoryImage*> rp{&restored[0], &restored[1]};
  EXPECT_THROW(SnapshotManager::load_shared(rp, store, "t"),
               serial::SerialError);
}

TEST(SnapshotErrors, LoadSharedMissingSharedPage) {
  auto fleet = make_fleet(2);
  std::vector<const MemoryImage*> ptrs{&fleet[0], &fleet[1]};
  MemoryBlobStore store;
  SnapshotManager::save_shared(ptrs, store, "t");

  store.put("t.shared", Bytes{});  // drop the whole map: every ref dangles
  std::vector<MemoryImage> restored(2);
  std::vector<MemoryImage*> rp{&restored[0], &restored[1]};
  EXPECT_THROW(SnapshotManager::load_shared(rp, store, "t"),
               serial::SerialError);
}

TEST(SnapshotErrors, LoadSharedTruncatedResidual) {
  auto fleet = make_fleet(2);
  std::vector<const MemoryImage*> ptrs{&fleet[0], &fleet[1]};
  MemoryBlobStore store;
  SnapshotManager::save_shared(ptrs, store, "t");

  Bytes residual = store.get("t.vm0");
  residual.resize(residual.size() / 2);
  store.put("t.vm0", residual);

  std::vector<MemoryImage> restored(2);
  std::vector<MemoryImage*> rp{&restored[0], &restored[1]};
  EXPECT_THROW(SnapshotManager::load_shared(rp, store, "t"),
               serial::SerialError);
}

TEST(SnapshotErrors, LoadPlainPageCountMismatch) {
  auto fleet = make_fleet(1);
  std::vector<const MemoryImage*> ptrs{&fleet[0]};
  MemoryBlobStore store;
  SnapshotManager::save_plain(ptrs, store, "t");

  // Bump the page count without providing the pages.
  Bytes blob = store.get("t.vm0");
  serial::Reader r(blob);
  MemoryImage scratch;
  scratch.load_meta(r);
  const std::size_t count_off = r.position();
  std::uint32_t pages;
  std::memcpy(&pages, blob.data() + count_off, 4);
  ++pages;
  std::memcpy(blob.data() + count_off, &pages, 4);
  store.put("t.vm0", blob);

  std::vector<MemoryImage> restored(1);
  std::vector<MemoryImage*> rp{&restored[0]};
  EXPECT_THROW(SnapshotManager::load_plain(rp, store, "t"),
               serial::SerialError);
}

// Property: shared-mode reduction grows with fleet size (more VMs share the
// same OS image).
class SnapshotScaling : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotScaling, ReductionGrowsWithFleet) {
  const int n = GetParam();
  auto fleet = make_fleet(static_cast<std::size_t>(n));
  MemoryBlobStore plain_store, shared_store;
  const auto ptrs = const_ptrs(fleet);
  const auto plain = SnapshotManager::save_plain(ptrs, plain_store, "p");
  const auto shared = SnapshotManager::save_shared(ptrs, shared_store, "s");
  const double ratio = static_cast<double>(shared.bytes_written) /
                       static_cast<double>(plain.bytes_written);
  // With 24/33 sharable pages, the ratio tends to (9 + 24/n)/33.
  const double expected = (9.0 + 24.0 / n) / 33.0;
  EXPECT_NEAR(ratio, expected, 0.06) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(FleetSizes, SnapshotScaling,
                         ::testing::Values(2, 5, 10, 15));

}  // namespace
}  // namespace turret::vm
