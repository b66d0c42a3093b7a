// Trace/telemetry layer: disarmed no-op, virtual-mode determinism (content
// sort, tid normalization, push-order independence), counter snapshots,
// buffer overflow accounting, Chrome JSON shape, stats-block splicing, and
// the counter table every counter list is generated from.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "search/telemetry.h"
#include "serial/serial.h"

namespace turret {
namespace {

using trace::Clock;
using trace::ScopedTrace;
using trace::TraceEvent;
using trace::Tracer;

TEST(Trace, DisabledByDefaultAndSpansAreNoOps) {
  ASSERT_FALSE(trace::active());
  {
    trace::Span s("test", "noop");
    s.at(5 * kSecond).lasted(kSecond).arg("k", std::int64_t{1});
  }
  trace::instant("test", "noop", kSecond);
  // Nothing was enabled, so nothing may have been recorded since the last
  // enable (there was none; buffer starts empty).
  EXPECT_TRUE(Tracer::instance().events().empty());
}

TEST(Trace, EnableResetsEventsAndCounters) {
  {
    ScopedTrace t(Clock::kVirtual);
    trace::instant("test", "a", kSecond);
    trace::add(trace::Counter::branch_attempts, 7);
  }
  EXPECT_EQ(Tracer::instance().events().size(), 1u);
  ScopedTrace t(Clock::kVirtual);
  EXPECT_TRUE(Tracer::instance().events().empty());
  EXPECT_EQ(Tracer::instance().counters().snapshot().branch_attempts, 0u);
}

TEST(Trace, VirtualSpanStampsVirtualTimeAndTidZero) {
  ScopedTrace t(Clock::kVirtual);
  {
    trace::Span s("test", "branch");
    s.at(3 * kSecond).lasted(2 * kSecond).arg("outcome", "ok");
  }
  const std::vector<TraceEvent> evs = Tracer::instance().events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].name, "branch");
  EXPECT_EQ(evs[0].phase, 'X');
  EXPECT_EQ(evs[0].tid, 0u);
  EXPECT_EQ(evs[0].ts_us, 3 * kSecond / kMicrosecond);
  EXPECT_EQ(evs[0].dur_us, 2 * kSecond / kMicrosecond);
  EXPECT_EQ(evs[0].args, "\"outcome\":\"ok\"");
}

TEST(Trace, VirtualModeSortsByContentNotPushOrder) {
  const auto emit = [](bool reversed) {
    ScopedTrace t(Clock::kVirtual);
    if (reversed) {
      trace::instant("test", "b", 2 * kSecond);
      trace::instant("test", "a", kSecond);
    } else {
      trace::instant("test", "a", kSecond);
      trace::instant("test", "b", 2 * kSecond);
    }
    return Tracer::instance().chrome_json();
  };
  EXPECT_EQ(emit(false), emit(true));
}

TEST(Trace, VirtualModeIdenticalAcrossThreads) {
  // The same event multiset pushed from one thread and from four threads
  // must serialize identically — the property branch spans rely on.
  const auto emit = [](unsigned jobs) {
    ScopedTrace t(Clock::kVirtual);
    const auto work = [](int i) {
      trace::Span s("test", "w");
      s.at(i * kSecond).lasted(kSecond).arg("i", static_cast<std::int64_t>(i));
    };
    if (jobs == 1) {
      for (int i = 0; i < 32; ++i) work(i);
    } else {
      ThreadPool pool(jobs);
      std::vector<std::future<void>> futures;
      for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit([&work, i] { work(i); }));
      for (auto& f : futures) f.get();
    }
    return Tracer::instance().chrome_json();
  };
  const std::string serial = emit(1);
  EXPECT_EQ(serial, emit(4));
  EXPECT_NE(serial.find("\"clock\":\"virtual\""), std::string::npos);
}

TEST(Trace, WallModeRecordsWorkerIds) {
  ScopedTrace t(Clock::kWall);
  EXPECT_EQ(current_worker_id(), 0u);  // main thread is worker 0
  ThreadPool pool(3);
  std::vector<std::future<unsigned>> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(pool.submit([] {
      trace::Span s("test", "wall");
      return current_worker_id();
    }));
  for (auto& f : ids) {
    const unsigned id = f.get();
    EXPECT_GE(id, 1u);
    EXPECT_LE(id, 3u);
  }
  for (const TraceEvent& e : Tracer::instance().events()) {
    EXPECT_GE(e.tid, 1u);
    EXPECT_LE(e.tid, 3u);
    EXPECT_GE(e.ts_us, 0);
    EXPECT_GE(e.dur_us, 0);
  }
}

TEST(Trace, OverflowDropsNewestAndCounts) {
  ScopedTrace t(Clock::kVirtual, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) trace::instant("test", "e", i * kSecond);
  EXPECT_EQ(Tracer::instance().events().size(), 4u);
  EXPECT_EQ(Tracer::instance().counters().snapshot().dropped_events, 6u);
}

TEST(Trace, ChromeJsonEscapesArgStrings) {
  ScopedTrace t(Clock::kVirtual);
  trace::instant("test", "esc", 0,
                 trace::Args().add("s", "a\"b\\c\nd\x01").take());
  const std::string json = Tracer::instance().chrome_json();
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\u0001"), std::string::npos);
}

TEST(Trace, ChromeJsonCarriesCounterSamples) {
  ScopedTrace t(Clock::kVirtual);
  trace::add(trace::Counter::decode_hits, 5);
  trace::add(trace::Counter::decode_misses, 2);
  const std::string json = Tracer::instance().chrome_json();
  EXPECT_NE(json.find("{\"name\":\"decode_hits\",\"cat\":\"counter\",\"ph\":"
                      "\"C\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"value\":"
                      "5}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"otherData\":{\"clock\":\"virtual\"}"),
            std::string::npos);
}

TEST(Telemetry, DerivedRates) {
  search::TelemetrySnapshot t;
  EXPECT_EQ(t.branches_per_sec(), 0.0);
  EXPECT_EQ(t.decode_hit_rate(), 0.0);
  t.counters.branch_attempts = 120;
  t.counters.evaluate_ns = 30ull * kSecond;
  t.counters.classify_ns = 10ull * kSecond;
  EXPECT_DOUBLE_EQ(t.branches_per_sec(), 3.0);
  t.counters.decode_hits = 3;
  t.counters.decode_misses = 1;
  EXPECT_DOUBLE_EQ(t.decode_hit_rate(), 0.75);
}

TEST(Telemetry, StatsBlockIsFixedOrderJsonWithoutWallInVirtualMode) {
  search::TelemetrySnapshot t;
  t.clock = Clock::kVirtual;
  t.wall_us = 1234;
  const std::string json = t.to_json();
  EXPECT_EQ(json.find("{\"clock\":\"virtual\",\"branches_per_sec\":"), 0u);
  EXPECT_EQ(json.find("wall_us"), std::string::npos);
  t.clock = Clock::kWall;
  EXPECT_NE(t.to_json().find("\"wall_us\":1234"), std::string::npos);
}

TEST(Telemetry, AppendStatsSplicesIntoReportJson) {
  search::TelemetrySnapshot t;
  t.counters.branch_attempts = 9;
  const std::string spliced = search::append_stats("{\"algorithm\":\"x\"}", t);
  EXPECT_EQ(spliced.find("{\"algorithm\":\"x\",\"stats\":{"), 0u);
  EXPECT_EQ(spliced.back(), '}');
  EXPECT_NE(spliced.find("\"branch_attempts\":9"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The counter table: every output that lists counters covers each row once
// ---------------------------------------------------------------------------

std::size_t occurrences(const std::string& haystack,
                        const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

/// A snapshot whose i-th row holds 1000 + i, so every value names its row.
trace::CounterSnapshot numbered_snapshot() {
  trace::CounterSnapshot s;
  std::uint64_t v = 1000;
  for (const trace::CounterRow& row : trace::kCounterRows) s.*row.value = v++;
  return s;
}

TEST(CounterTable, EveryRowAppearsOnceAcrossTheStatsAndFleetBlocks) {
  search::TelemetrySnapshot t;
  t.counters = numbered_snapshot();
  const std::string stats = t.to_json();
  const std::string fleet = t.fleet_json();
  const std::string blocks =
      stats + fleet.substr(0, fleet.find("\"per_worker\""));
  for (const trace::CounterRow& row : trace::kCounterRows) {
    const std::string key = std::string("\"") + row.key + "\":";
    EXPECT_EQ(occurrences(blocks, key), 1u) << row.name;
    const std::string member = key + std::to_string(t.counters.*row.value);
    const std::string& home = row.block == trace::Block::kFleet ? fleet : stats;
    EXPECT_EQ(occurrences(home, member), 1u) << row.name;
  }
  // The phase rows nest under one "phase_ns" object.
  EXPECT_EQ(occurrences(stats, "\"phase_ns\":{"), 1u);
}

TEST(CounterTable, EveryRowIsOneChromeCounterSample) {
  ScopedTrace t(Clock::kVirtual);
  const trace::CounterSnapshot want = numbered_snapshot();
  for (const trace::CounterRow& row : trace::kCounterRows)
    trace::add(row.id, want.*row.value);
  const std::string json = Tracer::instance().chrome_json();
  EXPECT_EQ(occurrences(json, "\"ph\":\"C\""),
            std::size(trace::kCounterRows));
  for (const trace::CounterRow& row : trace::kCounterRows) {
    const std::string sample =
        std::string("{\"name\":\"") + row.name +
        "\",\"cat\":\"counter\",\"ph\":\"C\",\"pid\":1,\"tid\":0,"
        "\"ts\":0,\"args\":{\"value\":" +
        std::to_string(want.*row.value) + "}}";
    EXPECT_EQ(occurrences(json, sample), 1u) << row.name;
  }
}

TEST(CounterTable, PerWorkerListsExactlyTheExecutionSiteRows) {
  search::TelemetrySnapshot t;
  search::WorkerTelemetry w;
  w.worker = 3;
  w.units = 5;
  w.counters = numbered_snapshot();
  t.per_worker.push_back(w);
  std::string want = "\"per_worker\":[{\"worker\":3,\"units\":5";
  std::size_t sites = 0;
  for (const trace::CounterRow& row : trace::kCounterRows) {
    if (!row.execution_site) continue;
    ++sites;
    want += std::string(",\"") + row.key +
            "\":" + std::to_string(w.counters.*row.value);
  }
  want += "}]}";
  const std::string fleet = t.fleet_json();
  ASSERT_NE(fleet.find("\"per_worker\":["), std::string::npos);
  EXPECT_EQ(fleet.substr(fleet.find("\"per_worker\":[")), want);
  // budget_aborts, emu_events, reassembly_evicted, proxy_observed,
  // proxy_injected, cow_page_faults, dist_bytes_sent, dist_bytes_recv.
  EXPECT_EQ(sites, 8u);
}

// The dist wire format of a counter snapshot: a u32 row count, then one u64
// per row in table order. Adding a row changes it, and with it the protocol.
TEST(CounterTable, WireEncodingIsTheRowCountThenOneU64PerRow) {
  trace::CounterSnapshot s;
  std::uint64_t v = 1;
  for (const trace::CounterRow& row : trace::kCounterRows) s.*row.value = v++;
  serial::Writer got;
  trace::save_counters(s, got);
  serial::Writer want;
  want.u32(39);
  for (std::uint64_t i = 1; i <= 39; ++i) want.u64(i);
  const Bytes bytes = got.take();
  EXPECT_EQ(bytes, want.take());
  EXPECT_EQ(bytes.size(), 4u + 39u * 8u);

  serial::Reader r(bytes);
  const trace::CounterSnapshot back = trace::load_counters(r);
  EXPECT_TRUE(r.exhausted());
  for (const trace::CounterRow& row : trace::kCounterRows)
    EXPECT_EQ(back.*row.value, s.*row.value) << row.name;
}

}  // namespace
}  // namespace turret
