// Write-ahead search journal: record framing, truncated-tail recovery,
// per-key FIFO replay, and the headline guarantee — a search killed mid-run
// and resumed from its journal produces a SearchResult byte-identical to the
// uninterrupted run, including cost accounting and quarantine records.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "search/algorithms.h"
#include "search/executor.h"
#include "search/journal.h"

namespace turret::search {
namespace {

std::string tmp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) /
          ("turret_journal_" + name))
      .string();
}

Bytes bytes_of(std::string_view s) { return Bytes(s.begin(), s.end()); }

TEST(Journal, AppendsAndReplaysPerKeyFifo) {
  const std::string path = tmp_path("fifo");
  {
    auto j = Journal::open(path, /*resume=*/false);
    j->append("k1", bytes_of("first"));
    j->append("k2", bytes_of("other"));
    j->append("k1", bytes_of("second"));
    EXPECT_EQ(j->appended(), 3u);
    EXPECT_EQ(j->recorded(), 0u);
  }
  const auto entries = Journal::read_all(path);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].key, "k1");
  EXPECT_EQ(entries[1].key, "k2");
  EXPECT_EQ(entries[2].payload, bytes_of("second"));

  auto j = Journal::open(path, /*resume=*/true);
  EXPECT_EQ(j->recorded(), 3u);
  // Duplicate keys replay oldest-first — greedy legitimately revisits the
  // same (point, action) key across repetitions.
  EXPECT_EQ(j->replay("k1"), bytes_of("first"));
  EXPECT_EQ(j->replay("k1"), bytes_of("second"));
  EXPECT_EQ(j->replay("k1"), std::nullopt);
  EXPECT_EQ(j->replay("k2"), bytes_of("other"));
  EXPECT_EQ(j->replay("missing"), std::nullopt);
  EXPECT_EQ(j->replayed(), 3u);
}

TEST(Journal, FreshOpenTruncatesAndResumeRejectsForeignFiles) {
  const std::string path = tmp_path("truncate");
  {
    auto j = Journal::open(path, false);
    j->append("k", bytes_of("v"));
  }
  { auto j = Journal::open(path, false); }
  EXPECT_TRUE(Journal::read_all(path).empty());

  const std::string garbage = tmp_path("garbage");
  {
    std::FILE* f = std::fopen(garbage.c_str(), "wb");
    std::fputs("not a journal at all", f);
    std::fclose(f);
  }
  EXPECT_THROW(Journal::open(garbage, true), std::runtime_error);
  EXPECT_THROW(Journal::open(tmp_path("does-not-exist"), true),
               std::runtime_error);
}

TEST(Journal, ToleratesATruncatedTailRecord) {
  const std::string path = tmp_path("tail");
  {
    auto j = Journal::open(path, false);
    j->append("a", bytes_of("payload-a"));
    j->append("b", bytes_of("payload-b"));
  }
  // A kill mid-append leaves a partial record at the tail.
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 3);

  {
    auto j = Journal::open(path, true);
    EXPECT_EQ(j->recorded(), 1u) << "the torn record must be dropped";
    EXPECT_EQ(j->replay("a"), bytes_of("payload-a"));
    EXPECT_EQ(j->replay("b"), std::nullopt);
    // Resume truncated the tear, so this append lands where the next
    // resume's loader will read it.
    j->append("c", bytes_of("payload-c"));
  }
  auto j = Journal::open(path, true);
  EXPECT_EQ(j->recorded(), 2u);
  EXPECT_EQ(j->replay("c"), bytes_of("payload-c"));
}

Bytes from_hex(std::string_view hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

// Encodings written before the memo replaced branch-equivalence pruning. The
// v2 trailer is the constant "not pruned, no link, no fingerprint".
constexpr std::string_view kOkRecord =
    "010200000000000000020000000000000000e05e400903000000000000000000000000d0"
    "3f0200000000000000010000000000000000000300000000000000000000000000000001"
    "000000000000f83f00000000000004400000000000001040000000000000204000000000"
    "0000000000000000000000000000000000000000000000000000000000";
constexpr std::string_view kQuarantinedRecord =
    "00030000002c000000696e6a6563746564206661756c7420617420736974652027627261"
    "6e63682d65786563272028686974203229000000000000";
// The same result as a --prune on run wrote a follower: pruned, linked to its
// canonical branch, with a fingerprint.
constexpr std::string_view kPrunedFollowerRecord =
    "010200000000000000020000000000000000e05e400903000000000000000000000000d0"
    "3f020000000000000001000000011d000000627c337c323030303030303030307c317c44"
    "726f70205072657061726501efcdab89674523011032547698badcfe0300000000000000"
    "000000000000000001000000000000f83f00000000000004400000000000001040000000"
    "000000204000000000000000000000000000000000000000000000000000000000000000"
    "0000";

BranchExecutor::BranchResult pinned_ok() {
  BranchExecutor::BranchResult r;
  r.attempts = 2;
  WindowPerf w0;
  w0.value = 123.5;
  w0.samples = 777;
  w0.tampers = 3;
  w0.has_percentiles = true;
  w0.p50 = 1.5;
  w0.p95 = 2.5;
  w0.p99 = 4.0;
  w0.p999 = 8.0;
  WindowPerf w1;
  w1.value = 0.25;
  w1.samples = 2;
  BranchExecutor::BranchOutcome out;
  out.windows = {w0, w1};
  out.new_crashes = 1;
  r.outcome = out;
  return r;
}

void expect_pinned_ok(const BranchExecutor::BranchResult& r) {
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_TRUE(r.error.empty());
  ASSERT_EQ(r.outcome->windows.size(), 2u);
  const WindowPerf& w0 = r.outcome->windows[0];
  EXPECT_EQ(w0.value, 123.5);
  EXPECT_EQ(w0.samples, 777u);
  EXPECT_EQ(w0.tampers, 3u);
  EXPECT_TRUE(w0.has_percentiles);
  EXPECT_EQ(w0.p50, 1.5);
  EXPECT_EQ(w0.p999, 8.0);
  EXPECT_EQ(r.outcome->windows[1].value, 0.25);
  EXPECT_FALSE(r.outcome->windows[1].has_percentiles);
  EXPECT_EQ(r.outcome->new_crashes, 1u);
}

TEST(Journal, BranchResultCodecRoundTrips) {
  BranchExecutor::BranchResult ok;
  ok.attempts = 3;
  BranchExecutor::BranchOutcome out;
  out.windows = {{123.5, 777}, {0.25, 2}};
  out.new_crashes = 2;
  ok.outcome = out;
  const auto ok2 = decode_branch_result(encode_branch_result(ok));
  ASSERT_TRUE(ok2.ok());
  EXPECT_EQ(ok2.attempts, 3u);
  ASSERT_EQ(ok2.outcome->windows.size(), 2u);
  EXPECT_DOUBLE_EQ(ok2.outcome->windows[0].value, 123.5);
  EXPECT_EQ(ok2.outcome->windows[0].samples, 777u);
  EXPECT_EQ(ok2.outcome->new_crashes, 2u);

  BranchExecutor::BranchResult failed;
  failed.attempts = 4;
  failed.error = "injected fault at site 'snapshot-load' (hit 9)";
  const auto failed2 = decode_branch_result(encode_branch_result(failed));
  EXPECT_FALSE(failed2.ok());
  EXPECT_EQ(failed2.attempts, 4u);
  EXPECT_EQ(failed2.error, failed.error);

  // Journal records and worker results are input from outside the process:
  // a trailing byte is malformed input, not a platform invariant.
  Bytes trailing = encode_branch_result(ok);
  trailing.push_back(0);
  EXPECT_THROW(decode_branch_result(trailing), serial::SerialError);

  EXPECT_EQ(encode_branch_result(pinned_ok()), from_hex(kOkRecord));
  expect_pinned_ok(decode_branch_result(from_hex(kOkRecord)));

  BranchExecutor::BranchResult q;
  q.attempts = 3;
  q.error = "injected fault at site 'branch-exec' (hit 2)";
  EXPECT_EQ(encode_branch_result(q), from_hex(kQuarantinedRecord));
  const auto q2 = decode_branch_result(from_hex(kQuarantinedRecord));
  EXPECT_FALSE(q2.ok());
  EXPECT_EQ(q2.attempts, 3u);
  EXPECT_EQ(q2.error, q.error);

  // A --prune on follower still replays: its trailer is read and dropped,
  // and the result re-encodes in today's form.
  const auto follower = decode_branch_result(from_hex(kPrunedFollowerRecord));
  expect_pinned_ok(follower);
  EXPECT_EQ(encode_branch_result(follower), from_hex(kOkRecord));
}

// ---------------------------------------------------------------------------
// Resume identity on real searches (toy ticker, serial for fixed hit order)
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

void expect_identical(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_DOUBLE_EQ(a.baseline_performance, b.baseline_performance);
  EXPECT_EQ(a.cost.execution, b.cost.execution);
  EXPECT_EQ(a.cost.snapshots, b.cost.snapshots);
  EXPECT_EQ(a.cost.branches, b.cost.branches);
  EXPECT_EQ(a.cost.saves, b.cost.saves);
  EXPECT_EQ(a.cost.loads, b.cost.loads);
  EXPECT_EQ(a.cost.retries, b.cost.retries);
  ASSERT_EQ(a.attacks.size(), b.attacks.size());
  for (std::size_t i = 0; i < a.attacks.size(); ++i) {
    const AttackReport& x = a.attacks[i];
    const AttackReport& y = b.attacks[i];
    EXPECT_EQ(x.action.describe(), y.action.describe()) << "attack " << i;
    EXPECT_EQ(x.effect, y.effect) << "attack " << i;
    EXPECT_DOUBLE_EQ(x.attacked_performance, y.attacked_performance);
    EXPECT_DOUBLE_EQ(x.damage, y.damage) << "attack " << i;
    EXPECT_EQ(x.found_after, y.found_after) << "attack " << i;
  }
  ASSERT_EQ(a.failed.size(), b.failed.size());
  for (std::size_t i = 0; i < a.failed.size(); ++i) {
    EXPECT_EQ(a.failed[i].describe(), b.failed[i].describe()) << "failed " << i;
    EXPECT_EQ(a.failed[i].attempts, b.failed[i].attempts) << "failed " << i;
    EXPECT_EQ(a.failed[i].error, b.failed[i].error) << "failed " << i;
  }
}

TEST(JournalResume, WeightedGreedyReplaysToTheIdenticalResult) {
  const Scenario sc = toy_scenario();
  const std::string path = tmp_path("weighted_full");
  set_default_jobs(1);

  SearchResult live;
  std::size_t appended = 0;
  {
    auto j = Journal::open(path, false);
    live = weighted_greedy_search(sc, {}, nullptr, j.get());
    appended = j->appended();
    EXPECT_GT(appended, 0u);
  }
  SearchResult resumed;
  {
    auto j = Journal::open(path, true);
    resumed = weighted_greedy_search(sc, {}, nullptr, j.get());
    EXPECT_EQ(j->replayed(), appended)
        << "a complete journal replays every branch";
    EXPECT_EQ(j->appended(), 0u) << "nothing executed, nothing re-journaled";
  }
  set_default_jobs(0);
  expect_identical(live, resumed);
}

TEST(JournalResume, BruteForceResumesFromAKilledRunsPrefix) {
  const Scenario sc = toy_scenario();
  const std::string full_path = tmp_path("brute_full");
  set_default_jobs(1);

  SearchResult live;
  {
    auto j = Journal::open(full_path, false);
    live = brute_force_search(sc, j.get());
  }

  // Simulate the controller being killed mid-search: keep only the first
  // half of the journal, then resume from the prefix.
  const auto entries = Journal::read_all(full_path);
  ASSERT_GT(entries.size(), 2u);
  const std::string prefix_path = tmp_path("brute_prefix");
  {
    auto j = Journal::open(prefix_path, false);
    for (std::size_t i = 0; i < entries.size() / 2; ++i)
      j->append(entries[i].key, entries[i].payload);
  }

  SearchResult resumed;
  {
    auto j = Journal::open(prefix_path, true);
    resumed = brute_force_search(sc, j.get());
    EXPECT_EQ(j->replayed(), entries.size() / 2);
    EXPECT_EQ(j->appended(), entries.size() - entries.size() / 2)
        << "only the missing branches execute";
  }
  set_default_jobs(0);
  expect_identical(live, resumed);

  // The resumed journal is now complete: a third run replays everything.
  SearchResult replayed;
  {
    set_default_jobs(1);
    auto j = Journal::open(prefix_path, true);
    replayed = brute_force_search(sc, j.get());
    EXPECT_EQ(j->appended(), 0u);
    set_default_jobs(0);
  }
  expect_identical(live, replayed);
}

// Greedy's repeats hit the memo. Replayed records are memoized like
// executed ones, so the resumed run makes the uninterrupted run's hits: it
// appends exactly the missing records, and the journal ends up whole.
TEST(JournalResume, GreedyResumesFromAKilledRunsPrefix) {
  const Scenario sc = toy_scenario();
  GreedyOptions opt;
  opt.confirmations = 2;
  const std::string full_path = tmp_path("greedy_full");
  set_default_jobs(1);

  SearchResult live;
  {
    trace::ScopedTrace t(trace::Clock::kVirtual);
    auto j = Journal::open(full_path, false);
    live = greedy_search(sc, opt, j.get());
    EXPECT_GT(trace::counters().get(trace::Counter::branches_pruned), 0u)
        << "greedy made no exact repeat; the resume check would not cover "
           "the memo";
  }

  const auto entries = Journal::read_all(full_path);
  ASSERT_GT(entries.size(), 2u);
  const std::string prefix_path = tmp_path("greedy_prefix");
  {
    auto j = Journal::open(prefix_path, false);
    for (std::size_t i = 0; i < entries.size() / 2; ++i)
      j->append(entries[i].key, entries[i].payload);
  }

  SearchResult resumed;
  {
    auto j = Journal::open(prefix_path, true);
    resumed = greedy_search(sc, opt, j.get());
    EXPECT_EQ(j->replayed(), entries.size() / 2);
    EXPECT_EQ(j->appended(), entries.size() - entries.size() / 2)
        << "only the missing branches execute or hit";
  }
  set_default_jobs(0);
  expect_identical(live, resumed);
  EXPECT_EQ(resumed.to_json(), live.to_json());

  const auto resumed_entries = Journal::read_all(prefix_path);
  ASSERT_EQ(resumed_entries.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(resumed_entries[i].key, entries[i].key) << "record " << i;
    EXPECT_EQ(resumed_entries[i].payload, entries[i].payload) << "record " << i;
  }
}

TEST(JournalResume, FaultedRunReplaysIdenticallyWithFaultsDisarmed) {
  Scenario sc = toy_scenario();
  sc.fault.max_retries = 2;
  const std::string path = tmp_path("faulted");
  set_default_jobs(1);

  SearchResult live;
  {
    // One branch start faults (retry) and one exhausts its whole budget
    // (quarantine), all journaled.
    fault::ScopedFaults plan("branch-exec:hit:2,branch-exec:hit:5x3");
    auto j = Journal::open(path, false);
    live = brute_force_search(sc, j.get());
  }
  EXPECT_GT(live.cost.retries, 0u);
  EXPECT_FALSE(live.failed.empty());

  // Resume with no faults armed: replay must reproduce the faulted run —
  // retries, quarantine records and all — without re-executing anything.
  SearchResult resumed;
  {
    auto j = Journal::open(path, true);
    resumed = brute_force_search(sc, j.get());
    EXPECT_EQ(j->appended(), 0u);
  }
  set_default_jobs(0);
  expect_identical(live, resumed);
}

}  // namespace
}  // namespace turret::search
