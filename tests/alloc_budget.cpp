// Allocation budgets of the per-message platform path: encoding a guest
// message, quorum bookkeeping, the VM input queue and the signed wire's seal
// and open. A counting replacement of the global operator new measures them,
// so this suite is its own executable (it would count every other suite's
// allocations too) and is not built under sanitizers, whose runtimes bring
// their own allocator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/msgbuf.h"
#include "systems/minbft/minbft_messages.h"
#include "systems/pbft/pbft_messages.h"
#include "systems/replication/node_set.h"
#include "vm/machine.h"
#include "wire/schema.h"
#include "wire/signed_adapter.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace turret {
namespace {

/// Heap allocations `fn` makes. Results must land in a variable outside
/// `fn`, or the compiler may elide the allocation being measured.
template <typename Fn>
std::uint64_t allocations_in(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

/// Every message of a system, filled the way its normal case fills it:
/// 64-byte client payloads, 8-byte digests, a whole request in PrePrepare.
template <typename... Msgs>
void expect_one_allocation_each(const Msgs&... msgs) {
  Bytes sink;
  const auto check = [&](const auto& msg) {
    EXPECT_LE(allocations_in([&] { sink = msg.encode(); }), 1u)
        << "tag " << (sink.size() >= 2 ? sink[0] | (sink[1] << 8) : -1)
        << ", " << sink.size() << " bytes";
  };
  (check(msgs), ...);
}

TEST(AllocBudget, EncodingEachPbftMessageAllocatesOnce) {
  namespace p = systems::pbft;
  const Bytes payload(64, 7), digest(8, 3);
  const Bytes request = p::Request{5, 9, payload}.encode();
  expect_one_allocation_each(
      p::Request{5, 9, payload}, p::PrePrepare{0, 12, 0, 1, digest, request},
      p::Prepare{0, 12, 2, digest}, p::Commit{0, 12, 2, digest},
      p::Reply{0, 9, 5, 2, Bytes(1, 1)}, p::Checkpoint{128, 2, digest},
      p::Status{0, 2, 12, 0, 0}, p::ViewChange{1, 2, 0, 1, 1, Bytes(16, 4)},
      p::NewView{1, 1, 3, Bytes(16, 4)});
}

TEST(AllocBudget, EncodingEachMinbftMessageAllocatesOnce) {
  namespace m = systems::minbft;
  const Bytes payload(64, 7);
  expect_one_allocation_each(
      m::Request{3, 9, payload}, m::Prepare{0, 12, 40, 0, 9, 3, payload},
      m::Commit{0, 12, 41, 40, 1}, m::Reply{0, 9, 3, 1},
      m::Checkpoint{16, 1, Bytes(16, 5)}, m::ReqViewChange{1, 2},
      m::NewView{1, 1, 12});
}

TEST(AllocBudget, NodeSetInsertsOfSmallIdsAllocateNothing) {
  systems::NodeSet votes;
  EXPECT_EQ(allocations_in([&] {
              for (std::uint32_t id = 0; id < 64; ++id) votes.insert(id);
            }),
            0u);
  EXPECT_EQ(votes.size(), 64u);
}

struct IdleGuest : vm::GuestNode {
  void start(vm::GuestContext&) override {}
  void on_message(vm::GuestContext&, NodeId, BytesView) override {}
  void on_timer(vm::GuestContext&, std::uint64_t) override {}
  void save(serial::Writer&) const override {}
  void load(serial::Reader&) override {}
  std::string_view kind() const override { return "idle"; }
};

TEST(AllocBudget, WarmVmInputCycleAllocatesNothing) {
  vm::VirtualMachine machine(0, std::make_unique<IdleGuest>(), vm::CpuModel{},
                             1);
  vm::GuestInput input;
  input.kind = vm::GuestInput::Kind::kMessage;
  input.src = 1;
  input.message = Bytes(40, 1);
  input.cost = 10;
  Time now = 0;
  const auto cycle = [&](int inputs) {
    for (int i = 0; i < inputs; ++i) machine.enqueue(now, input);
    for (int i = 0; i < inputs; ++i) {
      now = machine.busy_until();
      ASSERT_TRUE(machine.begin_handler(now).has_value());
      machine.finish_handler(now, 5);
    }
  };
  cycle(4);  // warm-up: the queue reaches its working capacity
  EXPECT_EQ(allocations_in([&] {
              for (int round = 0; round < 100; ++round) cycle(1 + round % 4);
            }),
            0u);
  EXPECT_EQ(machine.queued_inputs(), 0u);
}

/// A thread's first seal or open allocates its verification memo; every
/// budget below is for a thread past that.
void warm_signing_thread(const wire::SignedAdapter& adapter) {
  (void)adapter.open(adapter.seal(0, systems::minbft::ReqViewChange{1, 2}
                                         .encode()));
}

TEST(AllocBudget, SealAllocatesOnceAndOpenAllocatesNothing) {
  const wire::Schema schema = wire::parse_schema(systems::minbft::kSchema);
  const wire::SignedAdapter adapter(schema, 0xfeed);
  // Same keys, another memo identity: its opens compute the MAC.
  const wire::SignedAdapter computing(schema, 0xfeed);
  warm_signing_thread(adapter);
  const Bytes inner =
      systems::minbft::Prepare{0, 12, 40, 0, 9, 3, Bytes(64, 7)}.encode();
  Bytes sealed;
  EXPECT_EQ(allocations_in([&] { sealed = adapter.seal(0, inner); }), 1u);
  // `adapter` first: it answers from the entry its seal left, which the
  // computing open then overwrites (same trailer, same slot).
  for (const wire::SignedAdapter* opener : {&adapter, &computing}) {
    bool verified = false;
    EXPECT_EQ(allocations_in([&] {
                const auto opened = opener->open(sealed);
                verified = opened.has_value() && opened->verified;
              }),
              0u);
    EXPECT_TRUE(verified);
  }
}

TEST(AllocBudget, MovedInSealOfEachMinbftMessageAllocatesNothing) {
  namespace m = systems::minbft;
  const wire::Schema schema = wire::parse_schema(m::kSchema);
  const wire::SignedAdapter adapter(schema, 0xfeed);
  warm_signing_thread(adapter);
  const Bytes payload(64, 7);
  Bytes sealed;
  const auto check = [&](const auto& msg) {
    Bytes inner = msg.encode();
    const std::size_t size = inner.size();
    EXPECT_EQ(allocations_in(
                  [&] { sealed = adapter.seal(1, std::move(inner)); }),
              0u)
        << "tag " << (sealed[0] | (sealed[1] << 8)) << ", " << size
        << " inner bytes";
    EXPECT_EQ(sealed.size(), size + wire::SignedAdapter::kTrailerSize);
  };
  check(m::Request{3, 9, payload});
  check(m::Prepare{0, 12, 40, 0, 9, 3, payload});
  check(m::Commit{0, 12, 41, 40, 1});
  check(m::Reply{0, 9, 3, 1});
  check(m::Checkpoint{16, 1, Bytes(16, 5)});
  check(m::ReqViewChange{1, 2});
  check(m::NewView{1, 1, 12});
}

}  // namespace
}  // namespace turret
