// Branch-equivalence pruning (DESIGN.md §5f): wall-clock win and pruned
// fraction on a 10-server PBFT fleet with a deliberately widened action
// space — several delays past the observation horizon, which all collapse
// with drop (p = 1) into one "suppressed" equivalence class, the way a real
// exploration sweep over timeout-crossing delays would.
//
// For each algorithm the scenario runs with --prune off then on and reports
// wall clock, executed-branches/sec, the pruned fraction, and whether the
// SearchResults are identical (they must be: pruning is a wall-clock
// optimization only). JSON, one object per line.
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "search/algorithms.h"
#include "search/telemetry.h"
#include "systems/pbft/pbft_scenario.h"

namespace {

using namespace turret;

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

search::Scenario scenario(const wire::Schema& schema, bool prune) {
  systems::pbft::PbftScenarioOptions opt;
  opt.n = 10;  // 3f + 1 with f = 3: the 10-VM fleet of the issue
  opt.f = 3;
  auto sc = systems::pbft::make_pbft_scenario(opt);
  sc.schema = &schema;
  sc.warmup = 2 * kSecond;
  sc.duration = 8 * kSecond;
  sc.window = 2 * kSecond;
  sc.actions.drop_probabilities = {1.0};
  // The widened sweep: every delay past the 2-window horizon (4 s) is
  // behaviorally a drop. Without pruning each one costs a full branch.
  sc.actions.delays = {kSecond,        60 * kSecond,  90 * kSecond,
                       120 * kSecond, 150 * kSecond, 180 * kSecond};
  sc.actions.duplicate_counts = {2};
  sc.actions.divert = false;
  sc.actions.lie_random = false;
  sc.actions.relative_operands = {1000};
  sc.prune.enabled = prune;
  return sc;
}

struct Run {
  search::SearchResult res;
  double wall_ms = 0;
  std::uint64_t branches = 0;  ///< attempts charged (identical on/off)
  std::uint64_t pruned = 0;    ///< branches served from the prune table
  std::uint64_t table_entries = 0;
};

Run timed(const std::function<search::SearchResult(const search::Scenario&)>&
              fn,
          const wire::Schema& schema, bool prune) {
  const search::Scenario sc = scenario(schema, prune);
  trace::ScopedTrace t(trace::Clock::kVirtual);
  Run r;
  const auto t0 = std::chrono::steady_clock::now();
  r.res = fn(sc);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  const search::TelemetrySnapshot stats = search::capture_telemetry();
  r.branches = stats.counters.branch_attempts;
  r.pruned = stats.counters.branches_pruned;
  r.table_entries = stats.counters.prune_table_entries;
  return r;
}

bool same_result(const search::SearchResult& a, const search::SearchResult& b) {
  if (a.attacks.size() != b.attacks.size()) return false;
  for (std::size_t i = 0; i < a.attacks.size(); ++i) {
    if (a.attacks[i].action.describe() != b.attacks[i].action.describe() ||
        a.attacks[i].damage != b.attacks[i].damage ||
        a.attacks[i].found_after != b.attacks[i].found_after)
      return false;
  }
  return a.cost.execution == b.cost.execution &&
         a.cost.snapshots == b.cost.snapshots &&
         a.cost.branches == b.cost.branches;
}

}  // namespace

int main() {
  const wire::Schema schema = wire::parse_schema(kFocusSchema);

  const unsigned hardware = std::thread::hardware_concurrency();
  unsigned jobs = default_jobs() > 1 ? default_jobs()
                                     : std::min(4u, hardware ? hardware : 1u);
  if (jobs < 2) jobs = 4;

  struct Algo {
    const char* name;
    std::function<search::SearchResult(const search::Scenario&)> run;
  };
  const Algo algos[] = {
      {"weighted",
       [](const search::Scenario& sc) {
         return search::weighted_greedy_search(sc);
       }},
      {"brute",
       [](const search::Scenario& sc) { return search::brute_force_search(sc); }},
  };

  for (const Algo& algo : algos) {
    set_default_jobs(jobs);
    const Run off = timed(algo.run, schema, /*prune=*/false);
    const Run on = timed(algo.run, schema, /*prune=*/true);
    set_default_jobs(0);

    // branches/sec counts branch attempts charged per wall second; pruned
    // branches charge without executing, which is exactly the point.
    const double off_bps = off.branches / (off.wall_ms / 1000.0);
    const double on_bps = on.branches / (on.wall_ms / 1000.0);
    const double fraction =
        on.branches > 0 ? static_cast<double>(on.pruned) / on.branches : 0.0;
    std::printf(
        "{\"bench\":\"prune_search\",\"system\":\"pbft\",\"nodes\":10,"
        "\"algorithm\":\"%s\",\"jobs\":%u,\"hardware_threads\":%u,"
        "\"attacks\":%zu,\"branches\":%llu,"
        "\"off_ms\":%.1f,\"on_ms\":%.1f,\"speedup\":%.2f,"
        "\"off_branches_per_sec\":%.1f,\"on_branches_per_sec\":%.1f,"
        "\"branches_pruned\":%llu,\"pruned_fraction\":%.3f,"
        "\"prune_table_entries\":%llu,\"results_identical\":%s}\n",
        algo.name, jobs, hardware, on.res.attacks.size(),
        static_cast<unsigned long long>(on.branches), off.wall_ms, on.wall_ms,
        off.wall_ms / on.wall_ms, off_bps, on_bps,
        static_cast<unsigned long long>(on.pruned), fraction,
        static_cast<unsigned long long>(on.table_entries),
        same_result(off.res, on.res) ? "true" : "false");
  }
  return 0;
}
