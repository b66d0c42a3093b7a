// Fault-tolerant search runtime: deterministic fault injection, branch
// retry/quarantine containment and its failure classes, runaway branch
// budgets, and the distinction between platform faults (retried) and guest
// crashes (an attack outcome).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "netem/emulator.h"
#include "search/algorithms.h"
#include "search/executor.h"
#include "search/telemetry.h"
#include "systems/pbft/pbft_scenario.h"

namespace turret::search {
namespace {

// ---------------------------------------------------------------------------
// Toy system (same shape as test_search's ticker): client sends Work every
// 5 ms, server acks, acks count "updates". The server trusts Work.count —
// negative crashes it (guest crash surface), and the Bomb variant spins a
// zero-delay timer storm on large counts (runaway surface).
// ---------------------------------------------------------------------------

const wire::Schema& toy_schema() {
  static const wire::Schema s = wire::parse_schema(R"(
protocol toy;
message Work = 1 {
  u64 seq;
  i32 count;
}
message Ack = 2 {
  u64 seq;
}
)");
  return s;
}

struct ToyServer final : vm::GuestNode {
  void start(vm::GuestContext&) override {}
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView m) override {
    wire::MessageReader r(m);
    if (r.tag() != 1) return;
    const std::uint64_t seq = r.u64();
    const std::int32_t count = r.i32();
    if (count < 0) throw vm::GuestFault("negative count trusted");
    ctx.send(src, wire::MessageWriter(2).u64(seq).take());
  }
  void on_timer(vm::GuestContext&, std::uint64_t) override {}
  void save(serial::Writer&) const override {}
  void load(serial::Reader&) override {}
  std::string_view kind() const override { return "toy-server"; }
};

/// Server that degenerates into a zero-delay timer storm when it sees a large
/// count: virtual time stops advancing, so only the emulator event budget can
/// end the branch.
struct BombServer final : vm::GuestNode {
  bool bombing = false;
  void start(vm::GuestContext&) override {}
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView m) override {
    wire::MessageReader r(m);
    if (r.tag() != 1) return;
    const std::uint64_t seq = r.u64();
    const std::int32_t count = r.i32();
    if (count > 500) {
      bombing = true;
      ctx.set_timer(7, 0);
      return;
    }
    ctx.send(src, wire::MessageWriter(2).u64(seq).take());
  }
  void on_timer(vm::GuestContext& ctx, std::uint64_t id) override {
    if (id == 7) ctx.set_timer(7, 0);  // never yields virtual time
  }
  void save(serial::Writer& w) const override { w.boolean(bombing); }
  void load(serial::Reader& r) override { bombing = r.boolean(); }
  std::string_view kind() const override { return "bomb-server"; }
};

/// Server whose handler throws std::logic_error (what TURRET_CHECK throws) on
/// a large count: a deterministic failure that every retry reproduces.
struct InvariantServer final : vm::GuestNode {
  void start(vm::GuestContext&) override {}
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView m) override {
    wire::MessageReader r(m);
    if (r.tag() != 1) return;
    const std::uint64_t seq = r.u64();
    if (r.i32() > 500) throw std::logic_error("count invariant violated");
    ctx.send(src, wire::MessageWriter(2).u64(seq).take());
  }
  void on_timer(vm::GuestContext&, std::uint64_t) override {}
  void save(serial::Writer&) const override {}
  void load(serial::Reader&) override {}
  std::string_view kind() const override { return "invariant-server"; }
};

/// Server that hands the platform timer delays no platform caller would: on
/// every Work it arms timer 1 with a negative delay and timer 2 with one past
/// the end of Time (a guest trusting a lied timeout could do either). Timer 1
/// must fire at once; timer 2 must never fire.
struct TimerServer final : vm::GuestNode {
  void start(vm::GuestContext&) override {}
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView m) override {
    wire::MessageReader r(m);
    if (r.tag() != 1) return;
    const std::uint64_t seq = r.u64();
    ctx.set_timer(1, -5 * kMillisecond);
    ctx.set_timer(2, std::numeric_limits<Duration>::max());
    ctx.send(src, wire::MessageWriter(2).u64(seq).take());
  }
  void on_timer(vm::GuestContext& ctx, std::uint64_t id) override {
    ctx.count(id == 1 ? "early" : "late");
  }
  void save(serial::Writer&) const override {}
  void load(serial::Reader&) override {}
  std::string_view kind() const override { return "timer-server"; }
};

struct ToyClient final : vm::GuestNode {
  std::uint64_t seq = 0;
  void start(vm::GuestContext& ctx) override {
    ctx.set_timer(1, 5 * kMillisecond);
  }
  void on_message(vm::GuestContext& ctx, NodeId, BytesView m) override {
    wire::MessageReader r(m);
    if (r.tag() == 2) ctx.count("updates");
  }
  void on_timer(vm::GuestContext& ctx, std::uint64_t) override {
    ctx.send(1, wire::MessageWriter(1).u64(++seq).i32(1).take());
    ctx.set_timer(1, 5 * kMillisecond);
  }
  void save(serial::Writer& w) const override { w.u64(seq); }
  void load(serial::Reader& r) override { seq = r.u64(); }
  std::string_view kind() const override { return "toy-client"; }
};

enum class Server { kToy, kBomb, kInvariant, kTimer };

Scenario toy_scenario(Server server = Server::kToy) {
  Scenario sc;
  sc.system_name = "toy";
  sc.schema = &toy_schema();
  sc.testbed.net.nodes = 2;
  sc.testbed.net.default_link.delay = kMillisecond;
  sc.factory = [server](NodeId id) -> std::unique_ptr<vm::GuestNode> {
    if (id == 0) return std::make_unique<ToyClient>();
    if (server == Server::kBomb) return std::make_unique<BombServer>();
    if (server == Server::kInvariant)
      return std::make_unique<InvariantServer>();
    if (server == Server::kTimer) return std::make_unique<TimerServer>();
    return std::make_unique<ToyServer>();
  };
  sc.malicious = {0};
  sc.metric.name = "updates";
  sc.metric.kind = MetricSpec::Kind::kRate;
  sc.warmup = 500 * kMillisecond;
  sc.duration = 3 * kSecond;
  sc.window = kSecond;
  sc.delta = 0.1;
  sc.actions.delays = {500 * kMillisecond};
  sc.actions.drop_probabilities = {1.0};
  sc.actions.duplicate_counts = {2};
  sc.actions.divert = false;
  sc.actions.lie_random = false;
  sc.actions.relative_operands = {1000};
  return sc;
}

proxy::MaliciousAction lie_on_count(proxy::LieStrategy strategy,
                                    std::int64_t operand) {
  proxy::MaliciousAction a;
  a.target_tag = 1;
  a.message_name = "Work";
  a.kind = proxy::ActionKind::kLie;
  a.field_index = 1;  // Work.count
  a.field_name = "count";
  a.strategy = strategy;
  a.operand = operand;
  return a;
}

// ---------------------------------------------------------------------------
// Fault spec parsing and the injector itself
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesProbAndHitForms) {
  const auto plan = fault::parse_fault_spec(
      "snapshot-load:prob:0.25:42,branch-exec:hit:5x3,guest-step:hit:2");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].site, fault::kSnapshotLoad);
  EXPECT_EQ(plan[0].mode, fault::SiteSpec::Mode::kProb);
  EXPECT_DOUBLE_EQ(plan[0].probability, 0.25);
  EXPECT_EQ(plan[0].seed, 42u);
  EXPECT_EQ(plan[1].site, fault::kBranchExec);
  EXPECT_EQ(plan[1].mode, fault::SiteSpec::Mode::kHit);
  EXPECT_EQ(plan[1].first_hit, 5u);
  EXPECT_EQ(plan[1].span, 3u);
  EXPECT_EQ(plan[2].first_hit, 2u);
  EXPECT_EQ(plan[2].span, 1u);
  EXPECT_TRUE(fault::parse_fault_spec("").empty());
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(fault::parse_fault_spec("no-such-site:prob:0.5"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("guest-step:prob:1.5"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("guest-step:maybe:1"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("guest-step:hit:0"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("guest-step"), std::invalid_argument);
}

TEST(FaultInjectorTest, HitModeFiresOnTheExactHitRange) {
  fault::ScopedFaults plan("guest-step:hit:3x2");
  const auto passes = [](const char* site) {
    try {
      fault::inject(site);
      return true;
    } catch (const fault::FaultError&) {
      return false;
    }
  };
  EXPECT_TRUE(passes(fault::kGuestStep));   // hit 1
  EXPECT_TRUE(passes(fault::kGuestStep));   // hit 2
  EXPECT_FALSE(passes(fault::kGuestStep));  // hit 3 fires
  EXPECT_FALSE(passes(fault::kGuestStep));  // hit 4 fires
  EXPECT_TRUE(passes(fault::kGuestStep));   // hit 5
  // Other sites have independent counters and are not armed.
  EXPECT_TRUE(passes(fault::kSnapshotLoad));
  EXPECT_EQ(fault::FaultInjector::instance().hits(fault::kGuestStep), 5u);
}

TEST(FaultInjectorTest, ProbabilityDecisionsAreAPureFunctionOfSeedAndHit) {
  const auto pattern = [](std::uint64_t seed) {
    fault::ScopedFaults plan("guest-step:prob:0.5:" + std::to_string(seed));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      try {
        fault::inject(fault::kGuestStep);
        fired.push_back(false);
      } catch (const fault::FaultError&) {
        fired.push_back(true);
      }
    }
    return fired;
  };
  const std::vector<bool> a = pattern(7);
  const std::vector<bool> b = pattern(7);
  EXPECT_EQ(a, b) << "same seed must fire the same hits";
  const std::size_t fires = std::count(a.begin(), a.end(), true);
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 64u);
  EXPECT_NE(a, pattern(8)) << "different seed should pick different hits";
}

TEST(FaultInjectorTest, ScopedFaultsDisarmsOnExit) {
  {
    fault::ScopedFaults plan("guest-step:hit:1x1000000");
    EXPECT_TRUE(fault::FaultInjector::instance().armed());
    EXPECT_THROW(fault::inject(fault::kGuestStep), fault::FaultError);
  }
  EXPECT_FALSE(fault::FaultInjector::instance().armed());
  EXPECT_NO_THROW(fault::inject(fault::kGuestStep));
}

// ---------------------------------------------------------------------------
// Branch containment: retry, quarantine, runaway budget
// ---------------------------------------------------------------------------

TEST(FaultTolerance, RetriedBranchReproducesTheFaultFreeOutcome) {
  const Scenario sc = toy_scenario();
  set_default_jobs(1);

  BranchExecutor clean(sc);
  const auto& clean_points = clean.discover();
  const auto clean_out = clean.run_branch(clean_points[0], nullptr, 1);

  BranchExecutor exec(sc);
  const auto& points = exec.discover();
  fault::ScopedFaults plan("snapshot-load:hit:1");
  const auto r = exec.try_run_branch(points[0], nullptr, 1);
  set_default_jobs(0);

  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.attempts, 2u) << "first load faulted, the retry succeeded";
  EXPECT_DOUBLE_EQ(r.outcome->windows[0].value, clean_out.windows[0].value)
      << "a retried branch must reproduce the fault-free execution";
  EXPECT_EQ(exec.cost().retries, 1u);
  EXPECT_EQ(exec.cost().branches, 2u) << "both attempts are charged";
  EXPECT_EQ(exec.cost().loads, 2u);
  EXPECT_EQ(exec.cost().execution,
            sc.duration + 2 * sc.window)  // discovery + 2 × one window
      << "each attempt pays its window";
  EXPECT_TRUE(exec.failed().empty());
}

TEST(FaultTolerance, RetryExhaustionQuarantinesInsteadOfAborting) {
  Scenario sc = toy_scenario();
  sc.fault.max_retries = 2;  // 3 attempts total
  set_default_jobs(1);
  BranchExecutor exec(sc);
  const auto& points = exec.discover();

  fault::ScopedFaults plan("snapshot-load:hit:1x100");
  const auto r = exec.try_run_branch(points[0], nullptr, 1);
  set_default_jobs(0);

  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_NE(r.error.find("snapshot-load"), std::string::npos) << r.error;
  ASSERT_EQ(exec.failed().size(), 1u);
  const FailedBranch& f = exec.failed()[0];
  EXPECT_FALSE(f.had_action);
  EXPECT_EQ(f.message_name, "Work");
  EXPECT_EQ(f.attempts, 3u);
  EXPECT_EQ(exec.cost().retries, 2u);
  // The throwing entry point reports the quarantine instead of re-running.
  EXPECT_THROW(exec.run_branch(points[0], nullptr, 1), std::runtime_error);
}

TEST(FaultTolerance, SnapshotDecodeFailureQuarantinesEveryPendingBranch) {
  const Scenario sc = toy_scenario();
  set_default_jobs(1);
  BranchExecutor exec(sc);
  const auto& points = exec.discover();

  proxy::MaliciousAction drop;
  drop.target_tag = 1;
  drop.message_name = "Work";
  drop.kind = proxy::ActionKind::kDrop;
  const proxy::MaliciousAction dup = [] {
    proxy::MaliciousAction a;
    a.target_tag = 1;
    a.message_name = "Work";
    a.kind = proxy::ActionKind::kDuplicate;
    a.copies = 2;
    return a;
  }();

  fault::ScopedFaults plan("snapshot-decode:hit:1x100");
  const auto rs = exec.run_branches(points[0], {&drop, &dup}, 1);
  set_default_jobs(0);

  ASSERT_EQ(rs.size(), 2u);
  EXPECT_FALSE(rs[0].ok());
  EXPECT_FALSE(rs[1].ok());
  EXPECT_EQ(rs[0].error, rs[1].error)
      << "both branches inherit the decode failure";
  EXPECT_EQ(exec.failed().size(), 2u);
}

TEST(FaultTolerance, RunawayBranchHitsTheEventBudgetAndSkipsRetry) {
  Scenario sc = toy_scenario(Server::kBomb);
  sc.fault.max_branch_events = 20'000;
  set_default_jobs(1);
  BranchExecutor exec(sc);
  const auto& points = exec.discover();

  // +1000 pushes Work.count over the bomb threshold: the branch stops
  // advancing virtual time and only the event budget can end it.
  const proxy::MaliciousAction bomb = lie_on_count(proxy::LieStrategy::kAdd, 1000);
  const auto r = exec.try_run_branch(points[0], &bomb, 1);
  set_default_jobs(0);

  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.attempts, 1u)
      << "a deterministic runaway must not burn the retry budget";
  EXPECT_NE(r.error.find("budget"), std::string::npos) << r.error;
  ASSERT_EQ(exec.failed().size(), 1u);
  EXPECT_TRUE(exec.failed()[0].had_action);
  EXPECT_EQ(exec.cost().retries, 0u);
}

TEST(FaultTolerance, InjectedPlatformFaultIsNotMistakenForAGuestCrash) {
  const Scenario sc = toy_scenario();
  set_default_jobs(1);
  BranchExecutor exec(sc);
  const auto& points = exec.discover();

  // A FaultError thrown inside a guest dispatch must surface as a platform
  // fault (retried), not be absorbed by the crash-capture boundary as a
  // phantom node crash.
  fault::ScopedFaults plan("guest-step:hit:1");
  const auto r = exec.try_run_branch(points[0], nullptr, 1);
  set_default_jobs(0);

  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_EQ(r.outcome->new_crashes, 0u)
      << "injected faults must never count as guest crashes";
}

TEST(FaultTolerance, ProxyAndEmulatorSitesAreRetriedLikeAnyBranchFault) {
  const Scenario sc = toy_scenario();
  set_default_jobs(1);
  BranchExecutor exec(sc);
  const auto& points = exec.discover();

  proxy::MaliciousAction drop;
  drop.target_tag = 1;
  drop.message_name = "Work";
  drop.kind = proxy::ActionKind::kDrop;
  {
    fault::ScopedFaults plan("proxy-mutate:hit:1");
    const auto r = exec.try_run_branch(points[0], &drop, 1);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.attempts, 2u);
  }
  {
    fault::ScopedFaults plan("emu-dispatch:hit:1");
    const auto r = exec.try_run_branch(points[0], nullptr, 1);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.attempts, 2u);
  }
  set_default_jobs(0);
  EXPECT_TRUE(exec.failed().empty());
}

// ---------------------------------------------------------------------------
// Containment taxonomy: one classifier, one contain() for every attempt kind
// ---------------------------------------------------------------------------

TEST(Containment, ClassifierSortsFailuresIntoThreeClasses) {
  using runtime::FailureClass;
  EXPECT_EQ(runtime::classify_failure(netem::BudgetExceededError("runaway")),
            FailureClass::kDeterministic);
  EXPECT_EQ(runtime::classify_failure(std::logic_error("invariant")),
            FailureClass::kDeterministic);
  EXPECT_EQ(runtime::classify_failure(fault::FaultError("armed site")),
            FailureClass::kTransient);
  EXPECT_EQ(runtime::classify_failure(vm::GuestFault("guest bug")),
            FailureClass::kOther);
  EXPECT_EQ(runtime::classify_failure(std::runtime_error("anything else")),
            FailureClass::kOther);
}

TEST(Containment, InvariantViolationQuarantinesOnTheFirstAttempt) {
  Scenario sc = toy_scenario(Server::kInvariant);
  sc.fault.max_retries = 2;
  set_default_jobs(1);
  BranchExecutor exec(sc);
  const auto& points = exec.discover();

  const proxy::MaliciousAction trip =
      lie_on_count(proxy::LieStrategy::kAdd, 1000);
  const auto r = exec.try_run_branch(points[0], &trip, 1);
  set_default_jobs(0);

  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.attempts, 1u)
      << "a deterministic failure must not burn the retry budget";
  EXPECT_NE(r.error.find("count invariant"), std::string::npos) << r.error;
  ASSERT_EQ(exec.failed().size(), 1u);
  EXPECT_EQ(exec.cost().retries, 0u);
}

TEST(Containment, ContinuationRetriesATransientLoadFault) {
  const Scenario sc = toy_scenario();
  set_default_jobs(1);
  BranchExecutor clean(sc);
  const auto clean_next =
      clean.try_continue_branch(clean.discover()[0], nullptr, sc.window);
  ASSERT_TRUE(clean_next.has_value());

  BranchExecutor exec(sc);
  const auto& points = exec.discover();
  const SearchCost before = exec.cost();
  std::optional<BranchExecutor::InjectionPoint> next;
  {
    fault::ScopedFaults plan("snapshot-load:hit:1");
    next = exec.try_continue_branch(points[0], nullptr, sc.window);
  }
  set_default_jobs(0);

  ASSERT_TRUE(next.has_value()) << "the second attempt must succeed";
  EXPECT_EQ(next->time, clean_next->time);
  EXPECT_EQ(*next->snapshot, *clean_next->snapshot)
      << "a retried continuation must reproduce the fault-free snapshot";
  // Both attempts are charged: one load, one save and the advance each.
  const SearchCost& c = exec.cost();
  EXPECT_EQ(c.loads - before.loads, 2u);
  EXPECT_EQ(c.saves - before.saves, 2u);
  EXPECT_EQ(c.retries - before.retries, 1u);
  EXPECT_EQ(c.branches, before.branches) << "a continuation is not a branch";
  EXPECT_EQ(c.snapshots - before.snapshots,
            2 * (sc.branch_cost.load_cost + sc.branch_cost.save_cost));
  EXPECT_EQ(c.execution - before.execution, 2 * sc.window);
  EXPECT_TRUE(exec.failed().empty());
}

// A timer delay is guest input: a negative one fires now and one past the end
// of Time arms nothing, each counted as bad_timer_delay, where they used to
// trip the emulator's delay check (negative) or overflow now + delay.
TEST(Containment, OutOfRangeGuestTimerDelaysNeverTripAPlatformCheck) {
  Scenario sc = toy_scenario(Server::kTimer);
  sc.metric.name = "early";
  set_default_jobs(1);
  BranchExecutor exec(sc);
  const auto& points = exec.discover();
  ASSERT_FALSE(points.empty());
  const auto r = exec.try_run_branch(points[0], nullptr, 1);
  set_default_jobs(0);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(exec.failed().empty());
  EXPECT_GT(r.outcome->windows[0].samples, 0u)
      << "the negative-delay timer never fired";

  ScenarioWorld w = make_scenario_world(sc);
  w.testbed->start();
  w.testbed->run_until(sc.duration);
  const runtime::MetricsCollector& m = w.testbed->metrics();
  const double early = m.total("early", 0, sc.duration);
  EXPECT_GT(early, 0);
  EXPECT_EQ(m.total("late", 0, sc.duration), 0);
  EXPECT_EQ(m.total("bad_timer_delay", 0, sc.duration), 2 * early);
}

// ---------------------------------------------------------------------------
// Guest-crash accounting (crashes are outcomes, not faults)
// ---------------------------------------------------------------------------

TEST(FaultTolerance, GuestCrashIsCountedPerBranchAndOnTheTestbed) {
  const Scenario sc = toy_scenario();
  set_default_jobs(1);
  BranchExecutor exec(sc);
  const auto& points = exec.discover();

  // -1000 makes Work.count negative: the server's trust in the field is the
  // crash surface.
  const proxy::MaliciousAction crash = lie_on_count(proxy::LieStrategy::kSub, 1000);
  const auto r = exec.try_run_branch(points[0], &crash, 1);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.attempts, 1u) << "a guest crash is an outcome, never retried";
  EXPECT_EQ(r.outcome->new_crashes, 1u);
  EXPECT_TRUE(exec.failed().empty());

  // Same surface straight on a testbed: crashed_nodes() names the server.
  ScenarioWorld w = make_scenario_world(sc);
  w.proxy->arm(crash);
  w.testbed->start();
  w.testbed->run_until(kSecond);
  const std::vector<NodeId> crashed = w.testbed->crashed_nodes();
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_EQ(crashed[0], NodeId{1});

  // And through a whole search it classifies as a crash attack.
  const SearchResult res = brute_force_search(sc);
  set_default_jobs(0);
  bool found_crash = false;
  for (const AttackReport& a : res.attacks) {
    if (a.effect != AttackEffect::kCrash) continue;
    found_crash = true;
    EXPECT_EQ(a.crashed_nodes, 1u);
    EXPECT_EQ(a.action.field_name, "count");
  }
  EXPECT_TRUE(found_crash);
}

// ---------------------------------------------------------------------------
// Acceptance: a full search under injected branch faults
// ---------------------------------------------------------------------------

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

TEST(FaultAcceptance, BruteForceOnPbftSurvivesBranchFaults) {
  Scenario sc = pbft_scenario();
  sc.fault.max_retries = 2;
  set_default_jobs(1);
  const SearchResult clean = brute_force_search(sc);
  ASSERT_FALSE(clean.attacks.empty());

  SearchResult faulted;
  {
    // 8% of branch starts fault (fixed seed, serial hit order) and hits 4-6
    // fire consecutively, exhausting one branch's whole retry budget — so
    // the run must both retry and quarantine, and still complete.
    fault::ScopedFaults plan(
        "branch-exec:prob:0.08:42,branch-exec:hit:4x3");
    ASSERT_NO_THROW(faulted = brute_force_search(sc));
  }
  set_default_jobs(0);

  EXPECT_FALSE(faulted.failed.empty()) << "the hit range guarantees one"
                                          " exhausted branch";
  EXPECT_GT(faulted.cost.retries, 0u);
  EXPECT_DOUBLE_EQ(faulted.baseline_performance, clean.baseline_performance);

  // Survived branches replay the deterministic execution, so the faulted run
  // reports no attack the clean run did not.
  std::set<std::string> clean_attacks;
  for (const AttackReport& a : clean.attacks)
    clean_attacks.insert(a.action.describe());
  for (const AttackReport& a : faulted.attacks)
    EXPECT_TRUE(clean_attacks.count(a.action.describe()))
        << "phantom attack under faults: " << a.action.describe();

  // And every clean attack is either found again or accounted for by a
  // quarantine record (its own branch, or its message type's baseline).
  std::set<std::string> faulted_attacks;
  for (const AttackReport& a : faulted.attacks)
    faulted_attacks.insert(a.action.describe());
  std::set<std::string> quarantined_actions;
  std::set<wire::TypeTag> quarantined_baselines;
  for (const FailedBranch& f : faulted.failed) {
    if (f.had_action)
      quarantined_actions.insert(f.action.describe());
    else
      quarantined_baselines.insert(f.tag);
  }
  for (const AttackReport& a : clean.attacks) {
    EXPECT_TRUE(faulted_attacks.count(a.action.describe()) ||
                quarantined_actions.count(a.action.describe()) ||
                quarantined_baselines.count(a.action.target_tag))
        << "attack lost without a quarantine record: "
        << a.action.describe();
  }
}

TEST(FaultAcceptance, ParallelSearchUnderFaultsCompletes) {
  // Scheduling decides which branch a shared-counter fault lands on when
  // jobs > 1, so this only asserts containment: the search completes, every
  // branch is either an attack candidate or quarantined, nothing aborts.
  // (Also the TSan exercise for the fault/containment paths.)
  Scenario sc = toy_scenario();
  sc.fault.max_retries = 1;
  set_default_jobs(4);
  SearchResult res;
  {
    fault::ScopedFaults plan("branch-exec:prob:0.3:9");
    ASSERT_NO_THROW(res = weighted_greedy_search(sc));
  }
  set_default_jobs(0);
  EXPECT_GT(res.cost.branches, 0u);
  for (const FailedBranch& f : res.failed) {
    EXPECT_EQ(f.attempts, 2u) << f.describe();
    EXPECT_NE(f.error.find("branch-exec"), std::string::npos) << f.error;
  }
}

// The telemetry counters are bumped at the exact sites that charge
// SearchCost, so even under injected faults — retries firing, branches
// quarantining — the stats block must agree with the SearchResult exactly.
TEST(FaultAcceptance, TelemetryCountersMatchResultUnderFaults) {
  Scenario sc = toy_scenario();
  sc.fault.max_retries = 1;
  for (const unsigned jobs : {1u, 4u}) {
    set_default_jobs(jobs);
    trace::ScopedTrace t(trace::Clock::kVirtual);
    SearchResult res;
    {
      fault::ScopedFaults plan("branch-exec:prob:0.3:9");
      ASSERT_NO_THROW(res = weighted_greedy_search(sc));
    }
    const TelemetrySnapshot stats = capture_telemetry();
    set_default_jobs(0);

    EXPECT_GT(res.cost.retries, 0u) << "fault plan produced no retries at "
                                    << jobs << " jobs; assertions are vacuous";
    EXPECT_EQ(stats.counters.branch_retries, res.cost.retries)
        << "jobs=" << jobs;
    EXPECT_EQ(stats.counters.branch_quarantines, res.failed.size())
        << "jobs=" << jobs;
    EXPECT_EQ(stats.counters.branch_attempts, res.cost.branches)
        << "jobs=" << jobs;
    EXPECT_EQ(stats.counters.snapshot_loads, res.cost.loads)
        << "jobs=" << jobs;
    EXPECT_EQ(stats.counters.snapshot_saves, res.cost.saves)
        << "jobs=" << jobs;
    EXPECT_EQ(static_cast<Duration>(stats.counters.execution_ns()),
              res.cost.execution)
        << "jobs=" << jobs;

    // And the quarantine instants in the trace match the quarantine count.
    std::size_t quarantine_events = 0;
    for (const trace::TraceEvent& e : trace::Tracer::instance().events()) {
      if (e.name == "quarantine") ++quarantine_events;
    }
    EXPECT_EQ(quarantine_events, res.failed.size()) << "jobs=" << jobs;
  }
}

// Same agreement for brute force, whose cold-point branches the executor
// charges at the same site.
TEST(FaultAcceptance, BruteForceTelemetryMatchesResultUnderFaults) {
  Scenario sc = pbft_scenario();
  sc.fault.max_retries = 2;
  set_default_jobs(1);
  trace::ScopedTrace t(trace::Clock::kVirtual);
  SearchResult res;
  {
    fault::ScopedFaults plan("branch-exec:prob:0.08:42,branch-exec:hit:4x3");
    ASSERT_NO_THROW(res = brute_force_search(sc));
  }
  const TelemetrySnapshot stats = capture_telemetry();
  set_default_jobs(0);

  EXPECT_GT(res.cost.retries, 0u);
  EXPECT_FALSE(res.failed.empty());
  EXPECT_EQ(stats.counters.branch_retries, res.cost.retries);
  EXPECT_EQ(stats.counters.branch_quarantines, res.failed.size());
  EXPECT_EQ(stats.counters.branch_attempts, res.cost.branches);
  EXPECT_EQ(static_cast<Duration>(stats.counters.execution_ns()),
            res.cost.execution);
}

}  // namespace
}  // namespace turret::search
