// Prefetch (DESIGN.md §5a): BranchExecutor::prefetch starts branches on the
// pool before run_branches asks for them, and run_branches still commits
// each one only when, and in the order, it is asked for. Under test: a
// prefetched batch commits exactly what an executor that never prefetched
// commits; a prefetched branch nobody requests is never charged, journaled
// or quarantined; destroying the executor, or cancelling the search, skips
// the branches still queued; and a journal prefix resumed at --jobs 4
// executes none of its journaled branches and ends byte-identical to a
// --jobs 1 resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "proxy/enumerate.h"
#include "search/algorithms.h"
#include "search/executor.h"
#include "search/journal.h"
#include "systems/pbft/pbft_scenario.h"
#include "wire/message.h"

namespace turret::search {
namespace {

// Toy system: the client sends Work{seq, count} every 5 ms and the server
// acks; each ack counts one update. The server's handler throws
// std::logic_error on count > 500 — a deterministic failure — so a lie that
// raises count quarantines on its first attempt, and the batches below have
// quarantines to commit as well as outcomes.
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
    if (r.i32() > 500) throw std::logic_error("count invariant violated");
    ctx.send(src, wire::MessageWriter(2).u64(seq).take());
  }
  void on_timer(vm::GuestContext&, std::uint64_t) override {}
  void save(serial::Writer&) const override {}
  void load(serial::Reader&) override {}
  std::string_view kind() const override { return "toy-server"; }
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

Scenario toy_scenario() {
  Scenario sc;
  sc.system_name = "toy";
  sc.schema = &toy_schema();
  sc.testbed.net.nodes = 2;
  sc.testbed.net.default_link.delay = kMillisecond;
  sc.factory = [](NodeId id) -> std::unique_ptr<vm::GuestNode> {
    if (id == 0) return std::make_unique<ToyClient>();
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

std::vector<proxy::MaliciousAction> work_actions(const Scenario& sc) {
  return proxy::enumerate_actions(*sc.schema->by_tag(1), sc.actions);
}

std::vector<const proxy::MaliciousAction*> pointers(
    const std::vector<proxy::MaliciousAction>& actions) {
  std::vector<const proxy::MaliciousAction*> ptrs;
  for (const proxy::MaliciousAction& a : actions) ptrs.push_back(&a);
  return ptrs;
}

/// `branch` spans recorded so far, and how many of them quarantined.
struct BranchSpans {
  std::size_t total = 0;
  std::size_t quarantined = 0;
};

BranchSpans branch_spans() {
  BranchSpans n;
  for (const trace::TraceEvent& e : trace::Tracer::instance().events()) {
    if (e.name != "branch") continue;
    ++n.total;
    if (e.args.find("\"outcome\":\"quarantined\"") != std::string::npos)
      ++n.quarantined;
  }
  return n;
}

/// Waits until `n` branch spans are recorded; false after a minute.
bool wait_for_branch_spans(std::size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (branch_spans().total < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

std::string tmp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) /
          ("prefetch_" + name + ".journal"))
      .string();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Prefetch, PrefetchedBatchesCommitLikeBatchesThatWereNot) {
  const Scenario sc = toy_scenario();
  const std::vector<proxy::MaliciousAction> actions = work_actions(sc);
  const std::vector<const proxy::MaliciousAction*> ptrs = pointers(actions);
  set_default_jobs(4);
  BranchExecutor plain(sc);
  BranchExecutor fetched(sc);
  ASSERT_EQ(plain.discover().size(), 1u);
  const BranchExecutor::InjectionPoint& ip = fetched.discover()[0];
  // The two-window batch is started first, so the commit order differs
  // from the start order.
  fetched.prefetch(ip, ptrs, 2);
  fetched.prefetch(ip, {nullptr}, 1);
  fetched.prefetch(ip, ptrs, 1);

  const auto batches = [&](BranchExecutor& exec) {
    const BranchExecutor::InjectionPoint& p = exec.discover()[0];
    std::vector<BranchExecutor::BranchResult> all;
    for (const auto& [batch, windows] :
         {std::pair{std::vector<const proxy::MaliciousAction*>{nullptr}, 1},
          std::pair{ptrs, 1}, std::pair{ptrs, 2}}) {
      for (BranchExecutor::BranchResult& r :
           exec.run_branches(p, batch, windows))
        all.push_back(std::move(r));
    }
    return all;
  };
  const std::vector<BranchExecutor::BranchResult> want = batches(plain);
  const std::vector<BranchExecutor::BranchResult> got = batches(fetched);
  set_default_jobs(0);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(encode_branch_result(got[i]), encode_branch_result(want[i]))
        << "entry " << i;
    EXPECT_EQ(got[i].charged, want[i].charged) << "entry " << i;
  }
  EXPECT_EQ(fetched.cost().total(), plain.cost().total());
  EXPECT_EQ(fetched.cost().branches, plain.cost().branches);
  EXPECT_EQ(fetched.cost().loads, plain.cost().loads);
  EXPECT_EQ(fetched.cost().retries, plain.cost().retries);
  ASSERT_FALSE(plain.failed().empty())
      << "no quarantine to commit; the failed() check would be vacuous";
  ASSERT_EQ(fetched.failed().size(), plain.failed().size());
  for (std::size_t i = 0; i < plain.failed().size(); ++i) {
    EXPECT_EQ(fetched.failed()[i].describe(), plain.failed()[i].describe());
    EXPECT_EQ(fetched.failed()[i].attempts, plain.failed()[i].attempts);
    EXPECT_EQ(fetched.failed()[i].error, plain.failed()[i].error);
  }
}

TEST(Prefetch, UnrequestedBranchesAreNeitherChargedNorJournaledNorQuarantined) {
  const Scenario sc = toy_scenario();
  const std::vector<proxy::MaliciousAction> actions = work_actions(sc);
  const std::string path = tmp_path("unrequested");
  set_default_jobs(4);
  trace::ScopedTrace t(trace::Clock::kVirtual);
  auto journal = Journal::open(path, false);
  {
    BranchExecutor exec(sc);
    exec.set_journal(journal.get());
    exec.prefetch(exec.discover()[0], pointers(actions), 1);
    // Let every prefetched branch finish, the failing ones included.
    ASSERT_TRUE(wait_for_branch_spans(actions.size()));
    ASSERT_GT(branch_spans().quarantined, 0u)
        << "no prefetched branch failed; the failed() check would be vacuous";
    EXPECT_EQ(exec.cost().branches, 0u);
    EXPECT_TRUE(exec.failed().empty());
    EXPECT_EQ(journal->appended(), 0u);
  }
  set_default_jobs(0);
  EXPECT_EQ(journal->appended(), 0u);
  EXPECT_EQ(trace::counters().get(trace::Counter::branch_attempts), 0u);
  EXPECT_EQ(trace::counters().get(trace::Counter::branch_quarantines), 0u);
  std::remove(path.c_str());
}

TEST(Prefetch, DestroyingTheExecutorSkipsQueuedBranches) {
  // A PBFT branch runs for milliseconds, so two workers are far from the
  // end of the queue when the executor goes away right after prefetch.
  const Scenario sc = systems::pbft::make_pbft_scenario();
  set_default_jobs(2);
  trace::ScopedTrace t(trace::Clock::kVirtual);
  std::size_t prefetched = 0;
  {
    BranchExecutor exec(sc);
    const BranchExecutor::InjectionPoint* widest = nullptr;
    std::vector<proxy::MaliciousAction> actions;
    for (const BranchExecutor::InjectionPoint& ip : exec.discover()) {
      std::vector<proxy::MaliciousAction> a =
          proxy::enumerate_actions(*sc.schema->by_tag(ip.tag), sc.actions);
      if (a.size() > actions.size()) {
        widest = &ip;
        actions = std::move(a);
      }
    }
    ASSERT_NE(widest, nullptr);
    ASSERT_GE(actions.size(), 40u);
    exec.prefetch(*widest, pointers(actions), 1);
    prefetched = actions.size();
  }
  set_default_jobs(0);
  EXPECT_LT(branch_spans().total, prefetched)
      << "every queued branch ran although nothing would ever request it";
}

TEST(Prefetch, ACancelledSearchRunsNoQueuedBranch) {
  const Scenario sc = toy_scenario();
  const std::vector<proxy::MaliciousAction> actions = work_actions(sc);
  set_default_jobs(2);
  trace::ScopedTrace t(trace::Clock::kVirtual);
  clear_cancel();
  {
    BranchExecutor exec(sc);
    const BranchExecutor::InjectionPoint& ip = exec.discover()[0];
    request_cancel();
    exec.prefetch(ip, pointers(actions), 1);
    // Time enough for two workers to reach every queued toy branch: each
    // must see the cancellation and skip, since no batch claimed it.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_EQ(branch_spans().total, 0u);
    EXPECT_THROW(exec.run_branches(ip, pointers(actions), 1), CancelledError);
  }
  clear_cancel();
  set_default_jobs(0);
  EXPECT_EQ(branch_spans().total, 0u);
}

TEST(Prefetch, ResumedJournalPrefixExecutesNoJournaledBranch) {
  const Scenario sc = toy_scenario();
  const std::string full = tmp_path("full");
  set_default_jobs(1);
  {
    auto j = Journal::open(full, false);
    weighted_greedy_search(sc, {}, nullptr, j.get());
  }
  const std::vector<Journal::RawEntry> entries = Journal::read_all(full);
  ASSERT_GT(entries.size(), 2u);
  const std::size_t kept = entries.size() / 2;
  const auto write_prefix = [&](const std::string& path) {
    auto j = Journal::open(path, false);
    for (std::size_t i = 0; i < kept; ++i)
      j->append(entries[i].key, entries[i].payload);
  };

  const std::string serial_path = tmp_path("resume_j1");
  write_prefix(serial_path);
  SearchResult serial;
  {
    auto j = Journal::open(serial_path, true);
    serial = weighted_greedy_search(sc, {}, nullptr, j.get());
  }

  const std::string parallel_path = tmp_path("resume_j4");
  write_prefix(parallel_path);
  set_default_jobs(4);
  SearchResult parallel;
  {
    trace::ScopedTrace t(trace::Clock::kVirtual);
    auto j = Journal::open(parallel_path, true);
    parallel = weighted_greedy_search(sc, {}, nullptr, j.get());
    EXPECT_EQ(j->replayed(), kept);
    EXPECT_EQ(j->appended(), entries.size() - kept);
    // Weighted greedy executes each missing branch once and journals it, so
    // one more span than appended record would be a journaled branch run.
    EXPECT_EQ(branch_spans().total, j->appended())
        << "a journaled branch was executed";
  }
  set_default_jobs(0);

  EXPECT_EQ(parallel.to_json(), serial.to_json());
  EXPECT_EQ(file_bytes(parallel_path), file_bytes(serial_path));
  EXPECT_EQ(file_bytes(parallel_path), file_bytes(full));
  for (const std::string& p : {full, serial_path, parallel_path})
    std::remove(p.c_str());
}

}  // namespace
}  // namespace turret::search
