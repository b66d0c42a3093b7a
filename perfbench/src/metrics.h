// What one benchmark run measured, and the metrics it reports from that.
#pragma once

#include <vector>

#include "profile.h"
#include "replay.h"
#include "report.h"
#include "search/report.h"

namespace perfbench {

struct Measured {
  // Every run: set-up passes and the untraced searches.
  std::vector<double> setup_s, discover_s;
  std::vector<double> wall_s, cpu_s;  ///< one per search
  double peak_rss_mb = 0;
  turret::search::SearchResult result;  ///< the first search's

  // Traced runs only.
  double traced_wall_s = 0;
  Profile search_profile;         ///< the traced search at the workload's jobs
  double handler_inflation = 1;   ///< handler self time, jobs N over jobs 1
  ReplayResult replay;
};

/// --trace 0: what a user of the search sees.
std::vector<Metric> end_to_end_metrics(const Measured& m);
/// --trace 1: the per-layer breakdown.
std::vector<Metric> per_layer_metrics(const Measured& m);

}  // namespace perfbench
