// The benchmark's workloads: three canonical searches, each run as a closed
// batch (one search at a time, the next starting when the previous returns).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "search/report.h"
#include "search/scenario.h"

namespace perfbench {

enum class Algorithm { kWeighted, kBrute };

struct Workload {
  std::string_view name;
  std::string_view system;
  Algorithm algorithm;
  double duration_s;  ///< discovery horizon; 0 = the system's default
  unsigned jobs;      ///< pool threads for branch execution
  /// Arm the program's telemetry counters (as turret-run --json does) and
  /// check its "stats" block against the result.
  bool stats;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// systems::find_system(w.system)->make with `seed`, then the workload's
/// duration; plain snapshots, prune off.
turret::search::Scenario make_scenario(const Workload& w, std::uint64_t seed);

struct SearchRun {
  turret::search::SearchResult result;
  std::string json;        ///< SearchResult::to_json()
  std::string stats_json;  ///< "stats" block; empty unless w.stats
  std::uint64_t stats_branch_attempts = 0;
};

/// One search call at `jobs` pool threads (the workload's own when 0).
SearchRun run_search(const Workload& w, const turret::search::Scenario& sc,
                     unsigned jobs = 0);

/// Process CPU time (user + sys, every thread) in seconds.
double process_cpu_s();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench
