// Runtime tests: metrics collector, testbed timer semantics, CPU model
// integration, crash capture, and whole-testbed snapshot behaviour.
#include <gtest/gtest.h>

#include "runtime/metrics.h"
#include "runtime/testbed.h"
#include "serial/serial.h"

namespace turret::runtime {
namespace {

// --- MetricsCollector -------------------------------------------------------

TEST(Metrics, RateOverWindow) {
  MetricsCollector m;
  for (int i = 0; i < 10; ++i) m.count("updates", i * 100 * kMillisecond);
  // 10 events over [0, 1 s): 10/s.
  EXPECT_DOUBLE_EQ(m.rate("updates", 0, kSecond), 10.0);
  // Half the window: events at 0..400 ms.
  EXPECT_DOUBLE_EQ(m.total("updates", 0, 500 * kMillisecond), 5.0);
  EXPECT_DOUBLE_EQ(m.rate("updates", kSecond, 2 * kSecond), 0.0);
  EXPECT_DOUBLE_EQ(m.rate("missing", 0, kSecond), 0.0);
}

TEST(Metrics, WindowBoundariesAreHalfOpen) {
  MetricsCollector m;
  m.count("x", kSecond);
  EXPECT_DOUBLE_EQ(m.total("x", 0, kSecond), 0.0);
  EXPECT_DOUBLE_EQ(m.total("x", kSecond, 2 * kSecond), 1.0);
}

TEST(Metrics, SummaryMinMeanMax) {
  MetricsCollector m;
  m.record("lat", 1, 4.0);
  m.record("lat", 2, 6.0);
  m.record("lat", 3, 11.0);
  const SeriesSummary s = m.summary("lat", 0, 10);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 11.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
  EXPECT_EQ(m.summary("lat", 5, 10).count, 0u);
}

TEST(Metrics, EmptyAndInvertedWindowsAreZero) {
  MetricsCollector m;
  m.count("x", kSecond);
  m.record("lat", kSecond, 5.0);
  // Empty window (t1 == t0): nothing can fall in a half-open empty interval.
  EXPECT_DOUBLE_EQ(m.total("x", kSecond, kSecond), 0.0);
  EXPECT_DOUBLE_EQ(m.rate("x", kSecond, kSecond), 0.0);
  EXPECT_EQ(m.summary("lat", kSecond, kSecond).count, 0u);
  // Inverted window (t1 < t0): same, never a negative rate or a wild sum.
  EXPECT_DOUBLE_EQ(m.total("x", 2 * kSecond, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.rate("x", 2 * kSecond, 0), 0.0);
  EXPECT_EQ(m.summary("lat", 2 * kSecond, 0).count, 0u);
  // Inverted with negative times, in case a caller subtracts past zero.
  EXPECT_DOUBLE_EQ(m.total("x", kSecond, -kSecond), 0.0);
  EXPECT_DOUBLE_EQ(m.rate("x", kSecond, -kSecond), 0.0);
}

TEST(Metrics, SummaryOfEmptyWindowHasSafeMean) {
  MetricsCollector m;
  m.record("lat", kSecond, 5.0);
  const SeriesSummary s = m.summary("lat", 3 * kSecond, 2 * kSecond);
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  // mean() on an empty summary must not divide by zero.
  const double mean = s.mean();
  EXPECT_TRUE(mean == mean) << "mean of empty summary is NaN";
}

TEST(Metrics, RejectsOutOfOrderSamples) {
  MetricsCollector m;
  m.count("x", 100);
  EXPECT_THROW(m.count("x", 50), std::logic_error);
}

TEST(Metrics, SaveLoadRoundTrips) {
  MetricsCollector a;
  a.count("updates", 10, 1);
  a.count("updates", 20, 1);
  a.record("lat", 15, 2.5);
  serial::Writer w;
  a.save(w);
  MetricsCollector b;
  serial::Reader r(w.data());
  b.load(r);
  EXPECT_DOUBLE_EQ(b.total("updates", 0, 100), 2.0);
  EXPECT_DOUBLE_EQ(b.summary("lat", 0, 100).mean(), 2.5);
  EXPECT_EQ(b.metric_names().size(), 2u);
}

// --- Testbed ----------------------------------------------------------------

// A guest that exercises timers, sends, CPU consumption and crash paths.
struct Worker : vm::GuestNode {
  int started = 0;
  int msgs = 0;
  int timer_fires = 0;
  bool crash_on_message = false;

  void start(vm::GuestContext& ctx) override {
    ++started;
    ctx.set_timer(1, 10 * kMillisecond);
  }
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView m) override {
    if (crash_on_message) throw vm::GuestFault("boom");
    ++msgs;
    ctx.count("received");
    if (!m.empty() && m[0] == 'p') {  // ping: reply pong
      ctx.send(src, to_bytes("q"));
    }
  }
  void on_timer(vm::GuestContext& ctx, std::uint64_t id) override {
    ++timer_fires;
    if (id == 1 && timer_fires < 3) ctx.set_timer(1, 10 * kMillisecond);
    if (id == 2) ADD_FAILURE() << "cancelled timer fired";
    ctx.record("fires", timer_fires);
  }
  void save(serial::Writer& w) const override {
    w.i32(started);
    w.i32(msgs);
    w.i32(timer_fires);
    w.boolean(crash_on_message);
  }
  void load(serial::Reader& r) override {
    started = r.i32();
    msgs = r.i32();
    timer_fires = r.i32();
    crash_on_message = r.boolean();
  }
  std::string_view kind() const override { return "worker"; }
};

TestbedConfig two_nodes() {
  TestbedConfig cfg;
  cfg.net.nodes = 2;
  cfg.net.default_link.delay = kMillisecond;
  return cfg;
}

TEST(Testbed, StartsGuestsAndRunsTimers) {
  Testbed tb(two_nodes(),
             [](NodeId) { return std::make_unique<Worker>(); });
  tb.start();
  tb.run_for(100 * kMillisecond);
  auto& g = dynamic_cast<Worker&>(tb.machine(0).guest());
  EXPECT_EQ(g.started, 1);
  EXPECT_EQ(g.timer_fires, 3);  // re-armed twice, then stops
}

TEST(Testbed, RoutesMessagesBetweenGuests) {
  Testbed tb(two_nodes(),
             [](NodeId) { return std::make_unique<Worker>(); });
  tb.start();
  tb.emulator().send_message(0, 1, to_bytes("p"));
  tb.run_for(100 * kMillisecond);
  auto& g0 = dynamic_cast<Worker&>(tb.machine(0).guest());
  auto& g1 = dynamic_cast<Worker&>(tb.machine(1).guest());
  EXPECT_EQ(g1.msgs, 1);
  EXPECT_EQ(g0.msgs, 1) << "pong should come back";
  EXPECT_DOUBLE_EQ(tb.metrics().total("received", 0, kSecond), 2.0);
}

TEST(Testbed, CancelledTimerNeverFires) {
  struct Canceller : Worker {
    void start(vm::GuestContext& ctx) override {
      ctx.set_timer(2, 5 * kMillisecond);
      ctx.cancel_timer(2);
      ctx.set_timer(1, 50 * kMillisecond);
    }
  };
  Testbed tb(two_nodes(), [](NodeId) { return std::make_unique<Canceller>(); });
  tb.start();
  tb.run_for(200 * kMillisecond);  // Worker::on_timer fails the test if id 2 fires
}

TEST(Testbed, RearmReplacesPreviousTimer) {
  struct Rearm : Worker {
    void start(vm::GuestContext& ctx) override {
      ctx.set_timer(1, 5 * kMillisecond);
      ctx.set_timer(1, 50 * kMillisecond);  // replaces the 5 ms instance
    }
    void on_timer(vm::GuestContext& ctx, std::uint64_t id) override {
      ++timer_fires;
      EXPECT_GE(ctx.now(), 50 * kMillisecond);
    }
  };
  Testbed tb(two_nodes(), [](NodeId) { return std::make_unique<Rearm>(); });
  tb.start();
  tb.run_for(200 * kMillisecond);
  EXPECT_EQ(dynamic_cast<Rearm&>(tb.machine(0).guest()).timer_fires, 1);
}

TEST(Testbed, GuestFaultBecomesCrashNotAbort) {
  Testbed tb(two_nodes(), [](NodeId id) {
    auto g = std::make_unique<Worker>();
    g->crash_on_message = (id == 1);
    return g;
  });
  tb.start();
  tb.emulator().send_message(0, 1, to_bytes("x"));
  tb.run_for(100 * kMillisecond);
  ASSERT_EQ(tb.crashed_nodes().size(), 1u);
  EXPECT_EQ(tb.crashed_nodes()[0], 1u);
  EXPECT_EQ(tb.machine(1).crash_reason(), "boom");
  EXPECT_DOUBLE_EQ(tb.metrics().total("guest_crashes", 0, kSecond), 1.0);
  // The dead guest receives nothing further.
  tb.emulator().send_message(0, 1, to_bytes("y"));
  tb.run_for(100 * kMillisecond);
  EXPECT_EQ(dynamic_cast<Worker&>(tb.machine(1).guest()).msgs, 0);
}

TEST(Testbed, ConsumeCpuDelaysQueuedInput) {
  struct Burner : Worker {
    void on_message(vm::GuestContext& ctx, NodeId, BytesView) override {
      ++msgs;
      ctx.consume_cpu(20 * kMillisecond);
      ctx.count("done");
    }
  };
  TestbedConfig cfg = two_nodes();
  Testbed tb(cfg, [](NodeId) { return std::make_unique<Burner>(); });
  tb.start();
  tb.emulator().send_message(0, 1, to_bytes("a"));
  tb.emulator().send_message(0, 1, to_bytes("b"));
  tb.run_for(kSecond);
  // Second handler must start only after the first's 20 ms burn.
  EXPECT_DOUBLE_EQ(tb.metrics().total("done", 0, 21 * kMillisecond), 1.0);
  EXPECT_DOUBLE_EQ(tb.metrics().total("done", 0, 50 * kMillisecond), 2.0);
}

TEST(Testbed, SnapshotCapturesTimersInFlight) {
  Testbed a(two_nodes(), [](NodeId) { return std::make_unique<Worker>(); });
  a.start();
  a.run_for(5 * kMillisecond);  // first timer (10 ms) still pending
  const Bytes snap = a.save_snapshot();

  Testbed b(two_nodes(), [](NodeId) { return std::make_unique<Worker>(); });
  b.load_snapshot(snap);
  b.run_until(100 * kMillisecond);
  EXPECT_EQ(dynamic_cast<Worker&>(b.machine(0).guest()).timer_fires, 3);
  // start() must not be called again on a restored testbed.
  EXPECT_EQ(dynamic_cast<Worker&>(b.machine(0).guest()).started, 1);
}

TEST(Testbed, SnapshotPreservesCrashState) {
  Testbed a(two_nodes(), [](NodeId id) {
    auto g = std::make_unique<Worker>();
    g->crash_on_message = (id == 1);
    return g;
  });
  a.start();
  a.emulator().send_message(0, 1, to_bytes("x"));
  a.run_for(50 * kMillisecond);
  ASSERT_EQ(a.crashed_nodes().size(), 1u);
  const Bytes snap = a.save_snapshot();

  Testbed b(two_nodes(), [](NodeId) { return std::make_unique<Worker>(); });
  b.load_snapshot(snap);
  ASSERT_EQ(b.crashed_nodes().size(), 1u);
  EXPECT_EQ(b.machine(1).crash_reason(), "boom");
}

TEST(Testbed, DoubleStartIsAPlatformBug) {
  Testbed tb(two_nodes(), [](NodeId) { return std::make_unique<Worker>(); });
  tb.start();
  EXPECT_THROW(tb.start(), std::logic_error);
}

// --- Testbed snapshot encoding ---------------------------------------------

// A guest that accumulates visible state from traffic and timers, so a bad
// restore shows up as diverging counters.
struct PingPong : vm::GuestNode {
  int msgs = 0;
  int fires = 0;
  Bytes log;

  void start(vm::GuestContext& ctx) override {
    ctx.set_timer(1, 10 * kMillisecond);
  }
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView m) override {
    ++msgs;
    log.insert(log.end(), m.begin(), m.end());
    ctx.count("received");
    ctx.record("log_bytes", static_cast<double>(log.size()));
    if (!m.empty() && m[0] == 'p') ctx.send(src, to_bytes("q"));
  }
  void on_timer(vm::GuestContext& ctx, std::uint64_t) override {
    ++fires;
    // Keep traffic flowing so state keeps changing between snapshots.
    ctx.send((ctx.self() + 1) % ctx.cluster_size(), to_bytes("p"));
    ctx.set_timer(1, 10 * kMillisecond);
  }
  void save(serial::Writer& w) const override {
    w.i32(msgs);
    w.i32(fires);
    w.bytes(log);
  }
  void load(serial::Reader& r) override {
    msgs = r.i32();
    fires = r.i32();
    log = r.bytes();
  }
  std::string_view kind() const override { return "pingpong"; }
};

TestbedConfig pingpong_fleet() {
  TestbedConfig cfg;
  cfg.net.nodes = 3;
  cfg.net.default_link.delay = kMillisecond;
  return cfg;
}

GuestFactory pingpong_factory() {
  return [](NodeId) { return std::make_unique<PingPong>(); };
}

void expect_same_world(Testbed& a, Testbed& b) {
  for (NodeId id = 0; id < a.nodes(); ++id) {
    const auto& ga = dynamic_cast<const PingPong&>(a.machine(id).guest());
    const auto& gb = dynamic_cast<const PingPong&>(b.machine(id).guest());
    EXPECT_EQ(ga.msgs, gb.msgs) << "node " << id;
    EXPECT_EQ(ga.fires, gb.fires) << "node " << id;
    EXPECT_EQ(ga.log, gb.log) << "node " << id;
  }
  EXPECT_EQ(a.now(), b.now());
  EXPECT_DOUBLE_EQ(a.metrics().total("received", 0, 10 * kSecond),
                   b.metrics().total("received", 0, 10 * kSecond));
  EXPECT_EQ(a.metrics().points("log_bytes", 0, 10 * kSecond).size(),
            b.metrics().points("log_bytes", 0, 10 * kSecond).size());
}

TEST(TestbedSnapshot, RoundTripsAndContinuesIdentically) {
  Testbed original(pingpong_fleet(), pingpong_factory());
  original.start();
  original.run_for(300 * kMillisecond);
  const Bytes snap = original.save_snapshot();

  // The original continues; a fresh testbed restored from the blob must
  // evolve identically (same virtual clock, same traffic, same state).
  original.run_for(300 * kMillisecond);
  Testbed restored(pingpong_fleet(), pingpong_factory());
  restored.load_snapshot(snap);
  restored.run_for(300 * kMillisecond);
  expect_same_world(original, restored);
  EXPECT_EQ(restored.save_snapshot(), original.save_snapshot());

  // And the restored world snapshots/restores again without loss.
  const Bytes snap2 = restored.save_snapshot();
  Testbed again(pingpong_fleet(), pingpong_factory());
  again.load_snapshot(snap2);
  again.run_for(100 * kMillisecond);
  restored.run_for(100 * kMillisecond);
  expect_same_world(restored, again);
}

TEST(TestbedSnapshot, DecodeRejectsEveryTruncationAndATrailingByte) {
  Testbed tb(pingpong_fleet(), pingpong_factory());
  tb.start();
  tb.run_for(200 * kMillisecond);
  const Bytes snap = tb.save_snapshot();
  ASSERT_NO_THROW(Testbed::decode_snapshot(snap));

  for (std::size_t n = 0; n < snap.size(); ++n) {
    EXPECT_THROW(Testbed::decode_snapshot(BytesView(snap.data(), n)),
                 serial::SerialError)
        << "prefix of " << n << " of " << snap.size() << " bytes";
  }
  Bytes trailing = snap;
  trailing.push_back(0);
  EXPECT_THROW(Testbed::decode_snapshot(trailing), serial::SerialError);
}

}  // namespace
}  // namespace turret::runtime
