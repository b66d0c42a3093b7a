// The branch memo (DESIGN.md §5f): a branch whose exact identity — point tag
// and time, window count, the action's wire form and the injection
// snapshot's content — matches a result merged earlier in the search takes
// that result instead of executing. Greedy re-scans every injection point on
// each repetition, so it is the search the memo serves. The headline
// guarantee under test: hits change no artifact but the execution counters —
// greedy's SearchResult matches the golden written before the memo existed,
// at any --jobs, and its provenance stays complete and byte-identical.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "search/algorithms.h"
#include "search/provenance.h"
#include "search/telemetry.h"
#include "systems/pbft/pbft_scenario.h"
#include "systems/registry.h"

namespace turret::search {
namespace {

// The PBFT focus subset test_parallel_search uses.
constexpr char kFocusSchema[] = R"(
protocol pbft;
message Prepare = 3 {
  u32   view;
  u64   seq;
  u32   replica;
  bytes digest;
}
message Status = 7 {
  u32   view;
  u32   replica;
  u64   last_exec;
  u64   stable_seq;
  i32   n_pending;
}
)";

const wire::Schema& focus_schema() {
  static const wire::Schema s = wire::parse_schema(kFocusSchema);
  return s;
}

Scenario pbft_scenario() {
  Scenario sc = systems::pbft::make_pbft_scenario();
  sc.schema = &focus_schema();
  sc.warmup = 2 * kSecond;
  sc.duration = 8 * kSecond;
  sc.window = 2 * kSecond;
  sc.actions.drop_probabilities = {1.0};
  sc.actions.delays = {kSecond};
  sc.actions.duplicate_counts = {2};
  sc.actions.divert = false;
  sc.actions.lie_random = false;
  sc.actions.relative_operands = {1000};
  return sc;
}

GreedyOptions greedy_options() {
  GreedyOptions opt;
  opt.confirmations = 2;
  opt.max_repetitions = 2;
  return opt;
}

std::string read_golden(const std::string& file) {
  std::ifstream in(std::string(TURRET_GOLDEN_DIR) + "/" + file,
                   std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Greedy's SearchResult on the focus scenario was first written to the
/// golden file by the executor that ran every repeat, and regenerated once
/// when greedy's first round at a point stopped reusing the previous
/// repetition's baseline. The memo must reproduce it byte for byte at any
/// --jobs, and must actually fire. Regenerate with TURRET_UPDATE_GOLDEN=1
/// only for an intended change to greedy's result.
TEST(BranchMemo, GreedyMatchesTheGoldenWrittenWithoutTheMemo) {
  if (std::getenv("TURRET_UPDATE_GOLDEN") != nullptr) {
    const std::string path =
        std::string(TURRET_GOLDEN_DIR) + "/pbft_greedy_search.json";
    set_default_jobs(1);
    const SearchResult res = greedy_search(pbft_scenario(), greedy_options());
    set_default_jobs(0);
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << res.to_json();
    GTEST_SKIP() << "golden file regenerated: " << path;
  }
  const std::string golden = read_golden("pbft_greedy_search.json");
  ASSERT_FALSE(golden.empty()) << "missing golden pbft_greedy_search.json";
  for (const unsigned jobs : {1u, 4u}) {
    set_default_jobs(jobs);
    trace::ScopedTrace t(trace::Clock::kVirtual);
    const SearchResult res = greedy_search(pbft_scenario(), greedy_options());
    const TelemetrySnapshot stats = capture_telemetry();
    set_default_jobs(0);
    EXPECT_EQ(res.to_json(), golden) << "jobs=" << jobs;
    EXPECT_GT(stats.counters.branches_pruned, 0u)
        << "greedy re-scans its points every repetition; nothing was reused";
    EXPECT_EQ(stats.counters.branch_attempts, res.cost.branches)
        << "a hit charges like an execution";
  }
}

/// Executor level: a branch repeated in a later batch is a hit — it adds no
/// emulator events, and its outcome and charge equal the execution's. A
/// baseline from a second point sharing the blob under another tag is not.
TEST(BranchMemo, RepeatInALaterBatchHitsButAnotherTagDoesNot) {
  // Zyzzyva's primary sends its first OrderRequest and SpecReply in one
  // emulator step, so their injection points share one blob.
  const systems::SystemEntry* zyzzyva = systems::find_system("zyzzyva");
  ASSERT_NE(zyzzyva, nullptr);
  Scenario sc = zyzzyva->make({});
  sc.duration = 4 * kSecond;
  sc.window = kSecond;
  set_default_jobs(1);
  BranchExecutor exec(sc);
  const auto& points = exec.discover();
  const BranchExecutor::InjectionPoint* ip = nullptr;
  const BranchExecutor::InjectionPoint* other = nullptr;
  for (std::size_t i = 0; i < points.size() && other == nullptr; ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      if (points[i].snapshot == points[j].snapshot) {
        ip = &points[i];
        other = &points[j];
        break;
      }
    }
  }
  ASSERT_NE(other, nullptr) << "no two injection points share a blob";

  proxy::MaliciousAction drop;
  drop.target_tag = ip->tag;
  drop.message_name = ip->message_name;
  drop.kind = proxy::ActionKind::kDrop;
  drop.drop_probability = 1.0;

  trace::ScopedTrace t(trace::Clock::kVirtual);
  const auto counters = [] { return trace::counters().snapshot(); };

  const auto first = exec.run_branches(*ip, {&drop, nullptr}, 1);
  const trace::CounterSnapshot after_first = counters();
  ASSERT_TRUE(first[0].ok());
  EXPECT_GT(after_first.emu_events, 0u);
  EXPECT_EQ(after_first.branches_pruned, 0u);

  const auto repeat = exec.run_branches(*ip, {&drop}, 1);
  const trace::CounterSnapshot after_repeat = counters();
  ASSERT_TRUE(repeat[0].ok());
  EXPECT_EQ(after_repeat.emu_events, after_first.emu_events)
      << "the repeat executed";
  EXPECT_EQ(after_repeat.branches_pruned, 1u);
  EXPECT_EQ(repeat[0].charged, first[0].charged);
  EXPECT_EQ(repeat[0].attempts, first[0].attempts);
  ASSERT_EQ(repeat[0].outcome->windows.size(), 1u);
  EXPECT_EQ(repeat[0].outcome->windows[0].value,
            first[0].outcome->windows[0].value);
  EXPECT_EQ(repeat[0].outcome->windows[0].samples,
            first[0].outcome->windows[0].samples);
  EXPECT_EQ(repeat[0].outcome->new_crashes, first[0].outcome->new_crashes);

  // The other point's baseline: same blob, time and windows, another tag.
  ASSERT_EQ(other->time, ip->time);
  const auto base = exec.run_branches(*other, {nullptr}, 1);
  const trace::CounterSnapshot after_other = counters();
  set_default_jobs(0);
  ASSERT_TRUE(base[0].ok());
  EXPECT_EQ(after_other.branches_pruned, 1u) << "another tag is not a repeat";
  EXPECT_GT(after_other.emu_events, after_repeat.emu_events);
  EXPECT_EQ(base[0].outcome->windows[0].value,
            first[1].outcome->windows[0].value)
      << "the baseline does not depend on the tag";
}

/// Every attack greedy reports keeps its provenance — a hit shares its
/// branch_key with the execution it repeats — and the artifacts are
/// byte-identical at --jobs 1 and 4.
TEST(BranchMemo, GreedyProvenanceIsCompleteAndByteIdenticalAcrossJobs) {
  const auto run = [](unsigned jobs) {
    Scenario sc = pbft_scenario();
    sc.testbed.net.capture.enabled = true;
    set_default_jobs(jobs);
    trace::ScopedTrace t(trace::Clock::kVirtual);
    ProvenanceStore store;
    const SearchResult res =
        greedy_search(sc, greedy_options(), nullptr, &store);
    EXPECT_GT(capture_telemetry().counters.branches_pruned, 0u);
    set_default_jobs(0);
    EXPECT_FALSE(res.attacks.empty());
    return std::make_pair(provenance_json(sc, res, store),
                          provenance_markdown(sc, res, store));
  };

  const auto serial = run(1);
  const auto parallel = run(4);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  EXPECT_EQ(serial.first.find("\"available\":false"), std::string::npos);
  EXPECT_NE(serial.first.find("\"available\":true"), std::string::npos);
}

}  // namespace
}  // namespace turret::search
