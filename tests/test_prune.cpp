// Branch-equivalence pruning (DESIGN.md §5f): with --prune on, a branch whose
// fleet-state fingerprint matches an already-claimed one inherits the
// canonical branch's outcome instead of executing its observation windows.
// The headline guarantee under test: pruning is a wall-clock optimization
// ONLY — the SearchResult (attacks, damage numbers, found_after, cost
// accounting) is byte-identical with pruning on or off, at any --jobs, and a
// journaled prune-on run resumes to the identical result. The action space
// here is deliberately widened with a delay past the observation horizon so
// drop and delay-past-timeout provably collapse into one equivalence class.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "search/algorithms.h"
#include "search/journal.h"
#include "search/provenance.h"
#include "search/telemetry.h"
#include "systems/pbft/pbft_scenario.h"
#include "vm/pagestore.h"

namespace turret::search {
namespace {

// The same PBFT focus subset test_parallel_search uses, with one addition:
// a 60 s delay. The observation horizon is at most 2 windows * 2 s, so
// delaying a message 60 s is indistinguishable from dropping it — the two
// actions must land in the same prune equivalence class.
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

Scenario prune_scenario(bool prune) {
  Scenario sc = systems::pbft::make_pbft_scenario();
  sc.schema = &focus_schema();
  sc.warmup = 2 * kSecond;
  sc.duration = 8 * kSecond;
  sc.window = 2 * kSecond;
  sc.actions.drop_probabilities = {1.0};
  sc.actions.delays = {kSecond, 60 * kSecond};
  sc.actions.duplicate_counts = {2};
  sc.actions.divert = false;
  sc.actions.lie_random = false;
  sc.actions.relative_operands = {1000};
  // Cow snapshots over a fresh content-addressed store: the fleet fingerprint
  // reuses the store's page keys, so this is the mode pruning is built for.
  sc.testbed.snapshot.mode = vm::SnapshotMode::kCow;
  sc.testbed.snapshot.store = std::make_shared<vm::PageStore>();
  sc.prune.enabled = prune;
  return sc;
}

void expect_identical(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_DOUBLE_EQ(a.baseline_performance, b.baseline_performance);
  EXPECT_EQ(a.cost.execution, b.cost.execution);
  EXPECT_EQ(a.cost.snapshots, b.cost.snapshots);
  EXPECT_EQ(a.cost.branches, b.cost.branches);
  EXPECT_EQ(a.cost.saves, b.cost.saves);
  EXPECT_EQ(a.cost.loads, b.cost.loads);
  ASSERT_EQ(a.attacks.size(), b.attacks.size());
  for (std::size_t i = 0; i < a.attacks.size(); ++i) {
    const AttackReport& x = a.attacks[i];
    const AttackReport& y = b.attacks[i];
    EXPECT_EQ(x.action.describe(), y.action.describe()) << "attack " << i;
    EXPECT_EQ(x.effect, y.effect) << "attack " << i;
    EXPECT_DOUBLE_EQ(x.baseline_performance, y.baseline_performance);
    EXPECT_DOUBLE_EQ(x.attacked_performance, y.attacked_performance);
    EXPECT_DOUBLE_EQ(x.recovery_performance, y.recovery_performance);
    EXPECT_DOUBLE_EQ(x.damage, y.damage) << "attack " << i;
    EXPECT_EQ(x.crashed_nodes, y.crashed_nodes) << "attack " << i;
    EXPECT_EQ(x.injection_time, y.injection_time) << "attack " << i;
    EXPECT_EQ(x.found_after, y.found_after) << "attack " << i;
  }
}

struct Run {
  SearchResult res;
  std::uint64_t pruned = 0;
  std::uint64_t fingerprints = 0;
};

/// One search under a fresh scenario (own PageStore), traced so the prune
/// counters are observable.
template <typename Fn>
Run run_search(bool prune, unsigned jobs, Fn&& search) {
  const Scenario sc = prune_scenario(prune);
  set_default_jobs(jobs);
  trace::ScopedTrace t(trace::Clock::kVirtual);
  Run r;
  r.res = search(sc);
  const TelemetrySnapshot stats = capture_telemetry();
  r.pruned = stats.counters.branches_pruned;
  r.fingerprints = stats.counters.fingerprints;
  set_default_jobs(0);
  return r;
}

/// The 2x2 grid the issue demands: {prune off, on} x {jobs 1, 4}, all four
/// SearchResults identical, and the prune-on runs actually pruned something
/// (otherwise the equivalence claim is vacuous).
template <typename Fn>
void check_prune_invariance(Fn&& search) {
  const Run off1 = run_search(false, 1, search);
  const Run off4 = run_search(false, 4, search);
  const Run on1 = run_search(true, 1, search);
  const Run on4 = run_search(true, 4, search);

  ASSERT_FALSE(off1.res.attacks.empty())
      << "scenario found no attacks; the determinism check would be vacuous";
  EXPECT_EQ(off1.pruned, 0u) << "prune off must not consult the table";
  EXPECT_GT(on1.pruned, 0u)
      << "the 60 s delay must collapse with drop; nothing was pruned";
  EXPECT_EQ(on1.pruned, on4.pruned)
      << "the canonical/follower split must not depend on --jobs";
  EXPECT_GT(on1.fingerprints, 0u);

  expect_identical(off1.res, off4.res);
  expect_identical(off1.res, on1.res);
  expect_identical(off1.res, on4.res);
}

TEST(PruneDeterminism, BruteForce) {
  check_prune_invariance([](const Scenario& sc) {
    return brute_force_search(sc);
  });
}

TEST(PruneDeterminism, Greedy) {
  check_prune_invariance([](const Scenario& sc) {
    GreedyOptions opt;
    opt.confirmations = 2;
    opt.max_repetitions = 2;
    return greedy_search(sc, opt);
  });
}

TEST(PruneDeterminism, WeightedGreedy) {
  check_prune_invariance([](const Scenario& sc) {
    return weighted_greedy_search(sc);
  });
}

// The provable collapse, at the executor level: drop (p=1) and delay-60s on
// the same injection message leave the fleet in the same state at the settle
// point with the same canonical residual ("suppressed past the horizon"), so
// the second branch must prune against the first — exactly one guest
// execution for the pair, one table entry, identical outcomes, identical
// virtual cost charges, and an equivalent-to provenance alias.
TEST(PruneDeterminism, DropAndDelayPastTimeoutCollapse) {
  Scenario sc = prune_scenario(true);
  sc.testbed.net.capture.enabled = true;
  set_default_jobs(1);
  ProvenanceStore store;
  BranchExecutor exec(sc);
  exec.set_provenance(&store);

  const auto& points = exec.discover();
  ASSERT_FALSE(points.empty());
  // Any message type works: the collapse argument (suppressed now vs held
  // past the horizon) does not depend on the message's semantics.
  const BranchExecutor::InjectionPoint* ip = &points.front();

  proxy::MaliciousAction drop;
  drop.target_tag = ip->tag;
  drop.message_name = ip->message_name;
  drop.kind = proxy::ActionKind::kDrop;
  drop.drop_probability = 1.0;
  proxy::MaliciousAction delay = drop;
  delay.kind = proxy::ActionKind::kDelay;
  delay.delay = 60 * kSecond;  // far past the 2 s observation horizon

  const SearchCost before = exec.cost();
  // Trace only the batch itself: every execution past the settle point shows
  // up as a "branch" span, so the span count IS the guest-execution count.
  trace::ScopedTrace t(trace::Clock::kVirtual);
  const auto out = exec.run_branches(*ip, {&drop, &delay}, 1);
  const TelemetrySnapshot stats = capture_telemetry();
  const std::string trace_json = trace::Tracer::instance().chrome_json();
  set_default_jobs(0);

  ASSERT_EQ(out.size(), 2u);
  ASSERT_TRUE(out[0].ok());
  ASSERT_TRUE(out[1].ok());
  EXPECT_FALSE(out[0].pruned) << "first writer is canonical";
  EXPECT_TRUE(out[1].pruned) << "delay past the horizon must collapse";
  const std::string drop_key = BranchExecutor::branch_key(*ip, &drop, 1);
  const std::string delay_key = BranchExecutor::branch_key(*ip, &delay, 1);
  EXPECT_EQ(out[1].equivalent_to, drop_key);
  ASSERT_TRUE(out[0].fingerprint.has_value());
  EXPECT_FALSE(out[1].fingerprint.has_value());

  // The inherited outcome is the canonical outcome, verbatim.
  ASSERT_EQ(out[0].outcome->windows.size(), out[1].outcome->windows.size());
  for (std::size_t i = 0; i < out[0].outcome->windows.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[0].outcome->windows[i].value,
                     out[1].outcome->windows[i].value);
    EXPECT_EQ(out[0].outcome->windows[i].samples,
              out[1].outcome->windows[i].samples);
  }
  EXPECT_EQ(out[0].outcome->new_crashes, out[1].outcome->new_crashes);

  // Virtual cost charges are identical to the prune-off run: both branches
  // charged in full.
  EXPECT_EQ(exec.cost().branches - before.branches, 2u);
  EXPECT_EQ(exec.cost().loads - before.loads, 2u);

  // Exactly one guest execution: both branches were fingerprinted, one table
  // entry claimed, one "branch" span in the trace.
  EXPECT_EQ(stats.counters.fingerprints, 2u);
  EXPECT_EQ(stats.counters.branches_pruned, 1u);
  EXPECT_EQ(stats.counters.prune_table_entries, 1u);
  std::size_t branch_spans = 0;
  for (std::size_t pos = trace_json.find("\"name\":\"branch\"");
       pos != std::string::npos;
       pos = trace_json.find("\"name\":\"branch\"", pos + 1)) {
    ++branch_spans;
  }
  EXPECT_EQ(branch_spans, 1u)
      << "the follower must not execute its observation windows";
  EXPECT_NE(trace_json.find("\"name\":\"prune\""), std::string::npos);

  // The pruned branch harvested nothing; its provenance resolves through the
  // equivalent-to alias to the canonical branch's harvest.
  EXPECT_TRUE(store.is_alias(delay_key));
  EXPECT_FALSE(store.is_alias(drop_key));
  EXPECT_EQ(store.resolve(delay_key), drop_key);
  const auto p = store.find(delay_key);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->key, drop_key);
}

// Journaled prune-on runs: the fingerprint rides in the journal record, so a
// resumed search re-seeds the prune table and replays the original run's
// prune decisions — the resumed result is byte-identical to the uninterrupted
// one (which in turn equals the prune-off result, per the tests above).
TEST(PruneDeterminism, WeightedGreedyResumesFromAKilledRunsPrefix) {
  const std::string full_path =
      (std::filesystem::path(::testing::TempDir()) / "turret_prune_wg_full")
          .string();
  set_default_jobs(1);

  SearchResult live;
  {
    const Scenario sc = prune_scenario(true);
    auto j = Journal::open(full_path, false);
    live = weighted_greedy_search(sc, {}, nullptr, j.get());
    EXPECT_GT(j->appended(), 0u);
  }

  // Simulate the controller being killed mid-search: keep only the first
  // half of the journal, then resume from the prefix. Journal appends are in
  // input order, so a canonical record always precedes its followers — any
  // prefix re-seeds a consistent prune table.
  const auto entries = Journal::read_all(full_path);
  ASSERT_GT(entries.size(), 2u);
  const std::string prefix_path =
      (std::filesystem::path(::testing::TempDir()) / "turret_prune_wg_prefix")
          .string();
  {
    auto j = Journal::open(prefix_path, false);
    for (std::size_t i = 0; i < entries.size() / 2; ++i)
      j->append(entries[i].key, entries[i].payload);
  }

  SearchResult resumed;
  {
    const Scenario sc = prune_scenario(true);
    auto j = Journal::open(prefix_path, true);
    resumed = weighted_greedy_search(sc, {}, nullptr, j.get());
    EXPECT_EQ(j->replayed(), entries.size() / 2);
    EXPECT_EQ(j->appended(), entries.size() - entries.size() / 2)
        << "only the missing branches execute";
  }
  set_default_jobs(0);
  expect_identical(live, resumed);

  // And the prune-on journal replays cleanly into a prune-off executor: the
  // fingerprint trailer is part of the payload, not a format fork.
  SearchResult replayed;
  {
    set_default_jobs(1);
    const Scenario sc = prune_scenario(false);
    auto j = Journal::open(prefix_path, true);
    replayed = weighted_greedy_search(sc, {}, nullptr, j.get());
    EXPECT_EQ(j->appended(), 0u);
    set_default_jobs(0);
  }
  expect_identical(live, replayed);
}

TEST(PruneDeterminism, BruteForceResumesFromAKilledRunsPrefix) {
  const std::string full_path =
      (std::filesystem::path(::testing::TempDir()) / "turret_prune_bf_full")
          .string();
  set_default_jobs(1);

  SearchResult live;
  {
    const Scenario sc = prune_scenario(true);
    auto j = Journal::open(full_path, false);
    live = brute_force_search(sc, j.get());
  }

  const auto entries = Journal::read_all(full_path);
  ASSERT_GT(entries.size(), 2u);
  const std::string prefix_path =
      (std::filesystem::path(::testing::TempDir()) / "turret_prune_bf_prefix")
          .string();
  {
    auto j = Journal::open(prefix_path, false);
    for (std::size_t i = 0; i < entries.size() / 2; ++i)
      j->append(entries[i].key, entries[i].payload);
  }

  SearchResult resumed;
  {
    const Scenario sc = prune_scenario(true);
    auto j = Journal::open(prefix_path, true);
    resumed = brute_force_search(sc, j.get());
    EXPECT_EQ(j->replayed(), entries.size() / 2);
    EXPECT_EQ(j->appended(), entries.size() - entries.size() / 2);
  }
  set_default_jobs(0);
  expect_identical(live, resumed);
}

// Provenance artifacts with pruning on are still deterministic across worker
// counts, and every attack keeps a live provenance block — a pruned
// classification branch resolves through its equivalent-to alias to the
// canonical branch's harvest instead of going unavailable.
TEST(PruneDeterminism, ProvenanceArtifactsAreByteIdenticalAcrossJobs) {
  const auto run = [](unsigned jobs) {
    Scenario sc = prune_scenario(true);
    sc.testbed.net.capture.enabled = true;
    set_default_jobs(jobs);
    ProvenanceStore store;
    const SearchResult res =
        weighted_greedy_search(sc, {}, nullptr, nullptr, &store);
    auto artifacts = std::make_pair(provenance_json(sc, res, store),
                                    provenance_markdown(sc, res, store));
    set_default_jobs(0);
    return artifacts;
  };

  const auto serial = run(1);
  const auto parallel = run(4);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  // Pruning must not strand any attack without provenance.
  EXPECT_EQ(serial.first.find("\"available\":false"), std::string::npos);
  EXPECT_NE(serial.first.find("\"available\":true"), std::string::npos);
}

// Greedy re-evaluates its first injection point on every repetition, so a
// branch can follow its own earlier run (same key, same digest). Its
// provenance is already harvested under that key: no self-alias is added,
// and the search completes with the prune-off result.
TEST(PruneDeterminism, GreedyWithProvenanceFollowsItsOwnEarlierRun) {
  GreedyOptions opt;
  opt.confirmations = 2;
  opt.max_repetitions = 2;
  set_default_jobs(1);
  const SearchResult off = greedy_search(prune_scenario(false), opt);
  Scenario sc = prune_scenario(true);
  sc.testbed.net.capture.enabled = true;
  ProvenanceStore store;
  SearchResult on;
  ASSERT_NO_THROW(on = greedy_search(sc, opt, nullptr, &store));
  set_default_jobs(0);
  expect_identical(off, on);
}

}  // namespace
}  // namespace turret::search
