// Branch replay: serially re-execute the branches behind a search's reported
// attacks through the public per-branch calls, with a span around each call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "profile.h"
#include "search/report.h"
#include "search/scenario.h"
#include "workloads.h"

namespace perfbench {

struct ReplayResult {
  std::size_t samples = 0;  ///< replayed branches
  /// Per-sample call timings. decode/load are empty for brute force, which
  /// starts every run with Testbed::start instead.
  std::vector<double> build_us, teardown_us, decode_ms, load_us, measure_us,
      branch_ms;
  std::vector<double> snapshot_kb;         ///< one per injection point
  std::vector<double> pending_after_load;  ///< Emulator::pending_events
  Profile profile;  ///< spans over the replayed branches only
  /// Emulator::stats() and ProxyStats deltas summed over the samples.
  std::uint64_t events = 0, messages_delivered = 0, packets_delivered = 0;
  std::uint64_t proxy_observed = 0, proxy_injected = 0, proxy_undecodable = 0;
  /// Windows that did not reproduce the reported values exactly.
  std::vector<std::string> mismatches;
};

/// Replays each injection point's baseline branch and every reported attack's
/// two-window branch of `res`, round after round until at least
/// `min_samples` branches ran, checking every window against the attack
/// reports. `sc` is the scenario the search ran (its factory may be timed).
ReplayResult replay_branches(const Workload& w, const turret::search::Scenario& sc,
                             const turret::search::SearchResult& res,
                             std::size_t min_samples);

}  // namespace perfbench
