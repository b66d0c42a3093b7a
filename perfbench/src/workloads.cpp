#include "workloads.h"

#include <sys/resource.h>

#include <stdexcept>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "search/algorithms.h"
#include "search/telemetry.h"
#include "systems/registry.h"

namespace perfbench {

using namespace turret;

const std::vector<Workload>& workloads() {
  // pbft-weighted: the canonical search — every branch pays world build,
  //   snapshot load, the event queue and pbft's broadcast copies, 4 threads.
  // pbft-brute-serial: full runs from t=0 on one thread — no snapshot decode
  //   or load and no pool contention; the control for those layers.
  // minbft-weighted-stats: signed wire (MAC seal/verify on every message,
  //   lies inside sealed envelopes), quarantines and retries, and the
  //   program's shared telemetry counters armed.
  static const std::vector<Workload> kAll = {
      {"pbft-weighted", "pbft", Algorithm::kWeighted, 8, 4, false},
      {"pbft-brute-serial", "pbft", Algorithm::kBrute, 8, 1, false},
      {"minbft-weighted-stats", "minbft", Algorithm::kWeighted, 0, 4, true},
  };
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

search::Scenario make_scenario(const Workload& w, std::uint64_t seed) {
  const systems::SystemEntry* entry = systems::find_system(w.system);
  if (entry == nullptr)
    throw std::runtime_error("unknown system " + std::string(w.system));
  systems::SystemBuildOptions opt;
  opt.seed = seed;
  search::Scenario sc = entry->make(opt);
  if (w.duration_s > 0)
    sc.duration = static_cast<Duration>(w.duration_s * kSecond);
  sc.testbed.snapshot.mode = vm::SnapshotMode::kPlain;
  sc.prune.enabled = false;
  return sc;
}

SearchRun run_search(const Workload& w, const search::Scenario& sc,
                     unsigned jobs) {
  set_default_jobs(jobs != 0 ? jobs : w.jobs);
  if (w.stats) trace::Tracer::instance().enable(trace::Clock::kVirtual);
  SearchRun run;
  run.result = w.algorithm == Algorithm::kWeighted
                   ? search::weighted_greedy_search(sc)
                   : search::brute_force_search(sc);
  run.json = run.result.to_json();
  if (w.stats) {
    const search::TelemetrySnapshot t = search::capture_telemetry();
    trace::Tracer::instance().disable();
    run.stats_json = t.to_json();
    run.stats_branch_attempts = t.counters.branch_attempts;
  }
  return run;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
