// Network emulator tests: event ordering, link model, fragmentation,
// devices, loss, freeze/resume, save/load.
#include <gtest/gtest.h>

#include "netem/emulator.h"

namespace turret::netem {
namespace {

struct Recorder : MessageSink {
  struct Delivery {
    NodeId dst, src;
    Bytes msg;
    Time at;
  };
  std::vector<Delivery> deliveries;
  std::vector<Event> events;
  Emulator* emu = nullptr;

  void on_message(NodeId dst, NodeId src, MessageBuf message) override {
    deliveries.push_back({dst, src, message.to_bytes(), emu->now()});
  }
  void on_event(const Event& ev) override { events.push_back(ev); }
};

NetConfig lan(std::uint32_t nodes) {
  NetConfig cfg;
  cfg.nodes = nodes;
  cfg.default_link.delay = kMillisecond;
  cfg.default_link.bandwidth_bps = 1e9;
  return cfg;
}

TEST(Emulator, DeliversMessageAfterLinkDelay) {
  Emulator emu(lan(2));
  Recorder rec;
  rec.emu = &emu;
  emu.set_sink(&rec);
  emu.send_message(0, 1, to_bytes("hi"));
  emu.run_for(10 * kMillisecond);
  ASSERT_EQ(rec.deliveries.size(), 1u);
  EXPECT_EQ(rec.deliveries[0].dst, 1u);
  EXPECT_EQ(rec.deliveries[0].src, 0u);
  EXPECT_EQ(to_string(rec.deliveries[0].msg), "hi");
  // 1 ms propagation + serialization of a tiny packet.
  EXPECT_GE(rec.deliveries[0].at, kMillisecond);
  EXPECT_LT(rec.deliveries[0].at, kMillisecond + 100 * kMicrosecond);
}

TEST(Emulator, SameLinkPreservesFifoOrder) {
  Emulator emu(lan(2));
  Recorder rec;
  rec.emu = &emu;
  emu.set_sink(&rec);
  for (int i = 0; i < 20; ++i) emu.send_message(0, 1, Bytes{std::uint8_t(i)});
  emu.run_for(kSecond);
  ASSERT_EQ(rec.deliveries.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rec.deliveries[i].msg[0], i);
}

TEST(Emulator, FragmentsAndReassemblesLargeMessages) {
  NetConfig cfg = lan(2);
  cfg.mtu = 256;
  Emulator emu(cfg);
  Recorder rec;
  rec.emu = &emu;
  emu.set_sink(&rec);
  Bytes big(5000);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 7);
  emu.send_message(0, 1, big);
  emu.run_for(kSecond);
  ASSERT_EQ(rec.deliveries.size(), 1u);
  EXPECT_EQ(rec.deliveries[0].msg, big);
  EXPECT_EQ(emu.stats().packets_delivered, (5000 + 255) / 256);
}

TEST(Emulator, EmptyMessageStillDelivers) {
  Emulator emu(lan(2));
  Recorder rec;
  rec.emu = &emu;
  emu.set_sink(&rec);
  emu.send_message(0, 1, Bytes{});
  emu.run_for(kSecond);
  ASSERT_EQ(rec.deliveries.size(), 1u);
  EXPECT_TRUE(rec.deliveries[0].msg.empty());
}

TEST(Emulator, BandwidthSerializationSpacesPackets) {
  NetConfig cfg = lan(2);
  cfg.default_link.bandwidth_bps = 1e6;  // 1 Mbps: 1500 B ≈ 12 ms on the wire
  cfg.mtu = 1500;
  Emulator emu(cfg);
  Recorder rec;
  rec.emu = &emu;
  emu.set_sink(&rec);
  emu.send_message(0, 1, Bytes(1500, 1));
  emu.send_message(0, 1, Bytes(1500, 2));
  emu.run_for(kSecond);
  ASSERT_EQ(rec.deliveries.size(), 2u);
  const Time gap = rec.deliveries[1].at - rec.deliveries[0].at;
  EXPECT_GT(gap, 10 * kMillisecond);
  EXPECT_LT(gap, 16 * kMillisecond);
}

TEST(Emulator, DownLinkDropsSilently) {
  NetConfig cfg = lan(2);
  LinkSpec dead = cfg.default_link;
  dead.up = false;
  cfg.link_overrides[NetConfig::pair_key(0, 1)] = dead;
  Emulator emu(cfg);
  Recorder rec;
  rec.emu = &emu;
  emu.set_sink(&rec);
  emu.send_message(0, 1, to_bytes("x"));
  emu.send_message(1, 0, to_bytes("y"));  // reverse direction still up
  emu.run_for(kSecond);
  ASSERT_EQ(rec.deliveries.size(), 1u);
  EXPECT_EQ(rec.deliveries[0].dst, 0u);
}

TEST(Emulator, LossRateDropsRoughlyThatFraction) {
  NetConfig cfg = lan(2);
  cfg.default_link.loss_rate = 0.3;
  cfg.seed = 7;
  Emulator emu(cfg);
  Recorder rec;
  rec.emu = &emu;
  emu.set_sink(&rec);
  for (int i = 0; i < 1000; ++i) emu.send_message(0, 1, Bytes{1});
  emu.run_for(10 * kSecond);
  const double got = static_cast<double>(rec.deliveries.size());
  EXPECT_GT(got, 600);
  EXPECT_LT(got, 800);
  EXPECT_EQ(emu.stats().packets_lost, 1000 - rec.deliveries.size());
}

TEST(Emulator, TimerEventsReachSinkInOrder) {
  Emulator emu(lan(1));
  Recorder rec;
  rec.emu = &emu;
  emu.set_sink(&rec);
  emu.schedule(5 * kMillisecond, EventKind::kTimer, 0, 2, 0);
  emu.schedule(kMillisecond, EventKind::kTimer, 0, 1, 0);
  emu.schedule(5 * kMillisecond, EventKind::kTimer, 0, 3, 0);  // same time: FIFO
  emu.run_for(kSecond);
  ASSERT_EQ(rec.events.size(), 3u);
  EXPECT_EQ(rec.events[0].a, 1u);
  EXPECT_EQ(rec.events[1].a, 2u);
  EXPECT_EQ(rec.events[2].a, 3u);
}

TEST(Emulator, FreezeStopsTimeButAcceptsTraffic) {
  Emulator emu(lan(2));
  Recorder rec;
  rec.emu = &emu;
  emu.set_sink(&rec);
  emu.freeze();
  EXPECT_TRUE(emu.frozen());
  emu.send_message(0, 1, to_bytes("queued"));  // accepted while frozen
  emu.run_for(kSecond);
  EXPECT_TRUE(rec.deliveries.empty());
  EXPECT_EQ(emu.now(), 0);
  emu.resume();
  emu.run_for(kSecond);
  ASSERT_EQ(rec.deliveries.size(), 1u);
}

TEST(Emulator, SaveLoadRestoresInFlightPackets) {
  NetConfig cfg = lan(3);
  Emulator a(cfg);
  Recorder rec_a;
  rec_a.emu = &a;
  a.set_sink(&rec_a);
  a.send_message(0, 1, to_bytes("one"));
  a.send_message(2, 1, to_bytes("two"));
  a.run_for(200 * kMicrosecond);  // both still in flight (1 ms links)
  ASSERT_TRUE(rec_a.deliveries.empty());

  serial::Writer w;
  a.save(w);
  const Bytes snap = w.take();

  Emulator b(cfg);
  Recorder rec_b;
  rec_b.emu = &b;
  b.set_sink(&rec_b);
  serial::Reader r(snap);
  b.load(r);
  EXPECT_EQ(b.now(), a.now());
  b.run_for(kSecond);
  ASSERT_EQ(rec_b.deliveries.size(), 2u);

  // The original keeps running identically.
  a.run_for(kSecond);
  ASSERT_EQ(rec_a.deliveries.size(), 2u);
  EXPECT_EQ(rec_a.deliveries[0].at, rec_b.deliveries[0].at);
  EXPECT_EQ(rec_a.deliveries[1].msg, rec_b.deliveries[1].msg);
}

TEST(Emulator, SaveLoadPreservesPartialReassembly) {
  NetConfig cfg = lan(2);
  cfg.mtu = 100;
  cfg.default_link.bandwidth_bps = 1e6;  // slow: fragments spread out
  Emulator a(cfg);
  Recorder rec_a;
  rec_a.emu = &a;
  a.set_sink(&rec_a);
  Bytes big(1000, 0x5a);
  a.send_message(0, 1, big);
  a.run_for(3 * kMillisecond);  // some fragments delivered, some in flight

  serial::Writer w;
  a.save(w);
  Emulator b(cfg);
  Recorder rec_b;
  rec_b.emu = &b;
  b.set_sink(&rec_b);
  serial::Reader r(w.data());
  b.load(r);
  b.run_for(kSecond);
  ASSERT_EQ(rec_b.deliveries.size(), 1u);
  EXPECT_EQ(rec_b.deliveries[0].msg, big);
}

TEST(Emulator, EvictsStrandedReassemblies) {
  // A lost fragment makes its message uncompletable; the partial entry must
  // be reaped (counted in reassembly_evicted), not leak into every later
  // snapshot. 50 four-fragment messages at 25% loss strand plenty.
  NetConfig cfg = lan(2);
  cfg.mtu = 100;
  cfg.default_link.loss_rate = 0.25;
  cfg.seed = 11;
  Emulator emu(cfg);
  Recorder rec;
  rec.emu = &emu;
  emu.set_sink(&rec);
  for (int i = 0; i < 50; ++i)
    emu.send_message(0, 1, Bytes(350, static_cast<std::uint8_t>(i)));
  emu.run_for(10 * kSecond);
  EXPECT_EQ(emu.pending_events(), 0u);  // expire events drained too
  EXPECT_GT(emu.stats().reassembly_evicted, 0u);
  // Every message was delivered whole, reaped after partial loss, or lost
  // entirely (no entry ever formed) — the three are disjoint.
  EXPECT_LE(emu.stats().messages_delivered + emu.stats().reassembly_evicted,
            50u);
  for (const auto& d : rec.deliveries) EXPECT_EQ(d.msg.size(), 350u);

  // The drained state round-trips byte-identically: nothing stranded rides
  // along in the reassembly section.
  serial::Writer w1;
  emu.save(w1);
  Emulator b(cfg);
  serial::Reader r(w1.data());
  b.load(r);
  serial::Writer w2;
  b.save(w2);
  EXPECT_EQ(w1.data(), w2.data());
  EXPECT_EQ(b.stats().reassembly_evicted, emu.stats().reassembly_evicted);
}

TEST(Emulator, LoadRejectsMismatchedTopology) {
  Emulator a(lan(2));
  serial::Writer w;
  a.save(w);
  Emulator b(lan(3));
  serial::Reader r(w.data());
  EXPECT_THROW(b.load(r), std::logic_error);
}

TEST(Interceptor, SeesOnlyConfiguredTraffic) {
  struct Tap : IngressInterceptor {
    int calls = 0;
    std::vector<Delivery> on_send(Time, NodeId src, NodeId dst,
                                  const MessageBuf& message) override {
      ++calls;
      return {{dst, message, 0}};
    }
  };
  Emulator emu(lan(2));
  Recorder rec;
  rec.emu = &emu;
  emu.set_sink(&rec);
  Tap tap;
  emu.set_interceptor(&tap);
  emu.send_message(0, 1, to_bytes("a"));
  emu.set_interceptor(nullptr);
  emu.send_message(0, 1, to_bytes("b"));
  emu.run_for(kSecond);
  EXPECT_EQ(tap.calls, 1);
  EXPECT_EQ(rec.deliveries.size(), 2u);
}

TEST(Interceptor, DelayedReleaseBypassesReinterception) {
  struct DelayAll : IngressInterceptor {
    int calls = 0;
    std::vector<Delivery> on_send(Time, NodeId src, NodeId dst,
                                  const MessageBuf& message) override {
      ++calls;
      return {{dst, message, 5 * kMillisecond}};
    }
  };
  Emulator emu(lan(2));
  Recorder rec;
  rec.emu = &emu;
  emu.set_sink(&rec);
  DelayAll proxy;
  emu.set_interceptor(&proxy);
  emu.send_message(0, 1, to_bytes("x"));
  emu.run_for(kSecond);
  EXPECT_EQ(proxy.calls, 1) << "release must not re-enter the proxy";
  ASSERT_EQ(rec.deliveries.size(), 1u);
  EXPECT_GE(rec.deliveries[0].at, 6 * kMillisecond);
}

// Device behaviour.
TEST(Devices, BothDeliverValidFrames) {
  for (DeviceKind kind : {DeviceKind::kBundled, DeviceKind::kCsma}) {
    auto dev = make_device(kind, 4);
    Packet p;
    p.src = 0;
    p.dst = 1;
    p.frag_count = 1;
    p.msg_bytes = 3;
    p.payload = Bytes{1, 2, 3};
    EXPECT_GE(dev->receive(p), 0) << dev->name();
    EXPECT_EQ(dev->stats().packets, 1u);
  }
}

TEST(Devices, RejectMalformedFragments) {
  for (DeviceKind kind : {DeviceKind::kBundled, DeviceKind::kCsma}) {
    auto dev = make_device(kind, 4);
    Packet p;
    p.frag_index = 2;
    p.frag_count = 1;  // index out of range
    EXPECT_LT(dev->receive(p), 0) << dev->name();
    EXPECT_EQ(dev->stats().drops, 1u);
  }
}

TEST(Devices, BundledDeliveryIsNeverCountedAsADrop) {
  // {0xde, 0xad} folds to checksum 0xdead, a value the device once counted
  // as a drop while still delivering the frame.
  BundledDevice dev;
  Packet p;
  p.src = 0;
  p.dst = 1;
  p.frag_count = 1;
  p.msg_bytes = 2;
  p.payload = Bytes{0xde, 0xad};
  EXPECT_GE(dev.receive(p), 0);
  EXPECT_EQ(dev.last_checksum(), 0xdeadu);
  EXPECT_EQ(dev.stats().packets, 1u);
  EXPECT_EQ(dev.stats().drops, 0u);
}

TEST(Devices, CsmaAddsMoreLatencyThanBundled) {
  auto csma = make_device(DeviceKind::kCsma, 16);
  auto bundled = make_device(DeviceKind::kBundled, 16);
  Packet p;
  p.src = 0;
  p.dst = 1;
  p.frag_count = 1;
  p.msg_bytes = 100;
  p.payload = Bytes(100, 0xee);
  EXPECT_GT(csma->receive(p), bundled->receive(p));
}

}  // namespace
}  // namespace turret::netem
