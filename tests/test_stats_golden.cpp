// Stats golden: absolute telemetry counter values and their key order.
//
// The determinism suites compare one run's counters against another run's,
// so a change that shifts every run alike (a counter charged at a different
// site, a key renamed or reordered) passes them. This file pins the numbers
// themselves: the "stats" and "fleet" blocks and the Chrome trace's counter
// samples of a pbft weighted search — the run `turret-run --system pbft
// --duration 6 --window 2 --jobs 1 --json --trace` makes — fault-free and
// under one emulator-dispatch and one proxy-mutate fault. Hit-count faults
// stay at one job: at more, which branch a hit lands on depends on
// scheduling.
//
// Regenerate with TURRET_UPDATE_GOLDEN=1 only for an intended counter change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "search/algorithms.h"
#include "search/telemetry.h"
#include "systems/registry.h"

namespace turret::search {
namespace {

/// The chrome trace's 'C' samples, one per line (they are its last lines).
std::string counter_samples(const std::string& chrome) {
  std::string out;
  std::istringstream in(chrome);
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"ph\":\"C\"") == std::string::npos) continue;
    if (line.back() == ',') line.pop_back();
    if (!out.empty()) out += ",\n";
    out += line;
  }
  return out;
}

/// One variant's golden entry: the telemetry of a traced pbft weighted
/// search at --jobs 1 with `faults` armed.
std::string traced_variant(const Scenario& sc, const char* faults) {
  set_default_jobs(1);
  fault::ScopedFaults armed(faults);
  trace::ScopedTrace t(trace::Clock::kVirtual);
  weighted_greedy_search(sc);
  const TelemetrySnapshot stats = capture_telemetry();
  const std::string chrome = trace::Tracer::instance().chrome_json();
  set_default_jobs(0);
  return std::string("{\"faults\":\"") + faults + "\",\n\"stats\":" +
         stats.to_json() + ",\n\"fleet\":" + stats.fleet_json() +
         ",\n\"trace_counters\":[\n" + counter_samples(chrome) + "\n]}";
}

TEST(StatsGolden, PbftWeightedCountersMatchGoldenFile) {
  const systems::SystemEntry* pbft = systems::find_system("pbft");
  ASSERT_NE(pbft, nullptr);
  Scenario sc = pbft->make({});
  sc.window = 2 * kSecond;
  sc.duration = 6 * kSecond;

  std::string got = "{\"variants\":[\n";
  bool first = true;
  for (const char* faults :
       {"", "emu-dispatch:hit:200000x3", "proxy-mutate:hit:20000x3"}) {
    if (!first) got += ",\n";
    first = false;
    got += traced_variant(sc, faults);
  }
  got += "\n]}\n";

  const std::string path = std::string(TURRET_GOLDEN_DIR) + "/pbft_stats.json";
  if (std::getenv("TURRET_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "golden file regenerated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << "; run with TURRET_UPDATE_GOLDEN=1 to create it";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(got, buf.str())
      << "counters changed; if intentional, regenerate with "
         "TURRET_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace turret::search
