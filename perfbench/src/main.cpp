// perfbench: the repo benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs the workload's search as a closed batch — one search at a time — for
// --seconds (at least twice), and checks every search returns the first
// one's SearchResult byte for byte. Between searches it times set-up passes:
// the scenario build plus BranchExecutor::discover() on a fresh executor.
//
// --trace 0 prints the end-to-end metrics, measured with no decorators.
// --trace 1 additionally runs the traced passes and prints the per-layer
// metrics instead: the same search once more through timing decorators
// (which must return the identical SearchResult; jobs-4 workloads also at
// --jobs 1), then a serial replay of the reported attacks' branches.
//
// The last line of stdout is one JSON object (see report.h). The exit code
// is 0 when every correctness check passed, 1 when one failed, 2 on bad
// arguments.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/hash.h"
#include "metrics.h"
#include "profile.h"
#include "replay.h"
#include "report.h"
#include "search/executor.h"
#include "timed.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using namespace turret;

/// Set-up passes run in slots of at least this long, one slot before each
/// search and one after the last, and the median pass is reported. A pass
/// takes 20-120 ms, and the host's speed drifts over seconds, so passes are
/// spread over the whole run instead of timed back to back.
constexpr double kSetupSlotSeconds = 0.2;
/// Searches per run at the least, so the repeat check always has a pair.
constexpr std::size_t kMinSearches = 2;
/// Replayed branches per traced run at the least.
constexpr std::size_t kReplaySamples = 100;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

void usage() {
  std::string names;
  for (const Workload& w : workloads()) {
    if (!names.empty()) names += " | ";
    names += w.name;
  }
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n  workloads: %s\n",
               names.c_str());
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (std::string(v) != "0" && std::string(v) != "1") return false;
      a.trace = std::string(v) == "1";
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

double seconds_since(std::int64_t t) {
  return static_cast<double>(now_ns() - t) / 1e9;
}

std::string digest_hex(const std::string& s) {
  Hasher128 h;
  h.update(std::string_view(s));
  const Digest128 d = h.digest();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(d.hi),
                static_cast<unsigned long long>(d.lo));
  return buf;
}

/// Attempted operations (searches, replayed branches) and the failed ones.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
};

/// The program's own telemetry must agree with the result it describes.
void check_stats(const Workload& w, const SearchRun& run, Checks& checks) {
  if (!w.stats) return;
  checks.op(run.stats_json.find("\"branch_attempts\"") != std::string::npos &&
                run.stats_branch_attempts == run.result.cost.branches,
            "stats.branch_attempts " + std::to_string(run.stats_branch_attempts) +
                " != cost.branches " +
                std::to_string(run.result.cost.branches));
}

int run(const Workload& w, const Args& a) {
  Checks checks;
  Measured m;

  const auto setup_slot = [&] {
    const std::int64_t t_slot = now_ns();
    do {
      const std::int64_t t0 = now_ns();
      const search::Scenario sc = make_scenario(w, a.seed);
      const std::int64_t t1 = now_ns();
      search::BranchExecutor exec(sc);
      exec.discover();
      m.setup_s.push_back(seconds_since(t0));
      m.discover_s.push_back(seconds_since(t1));
    } while (seconds_since(t_slot) < kSetupSlotSeconds);
  };

  const search::Scenario sc = make_scenario(w, a.seed);
  std::string first_json;
  const std::int64_t t_loop = now_ns();
  while (m.wall_s.size() < kMinSearches || seconds_since(t_loop) < a.seconds) {
    setup_slot();
    const double c0 = process_cpu_s();
    const std::int64_t t = now_ns();
    SearchRun run = run_search(w, sc);
    m.wall_s.push_back(seconds_since(t));
    m.cpu_s.push_back(process_cpu_s() - c0);
    check_stats(w, run, checks);
    const bool first = m.wall_s.size() == 1;
    checks.op(first || run.json == first_json,
              "search " + std::to_string(m.wall_s.size()) +
                  " returned a different SearchResult than the first");
    if (first) {
      first_json = std::move(run.json);
      m.result = std::move(run.result);
    }
  }
  setup_slot();
  m.peak_rss_mb = peak_rss_mb();
  std::fprintf(stderr,
               "perfbench: %s seed=%llu setups=%zu searches=%zu digest=%s "
               "attacks=%zu branches=%llu\n  search walls:",
               std::string(w.name).c_str(),
               static_cast<unsigned long long>(a.seed), m.setup_s.size(),
               m.wall_s.size(), digest_hex(first_json).c_str(),
               m.result.attacks.size(),
               static_cast<unsigned long long>(m.result.cost.branches));
  for (double x : m.wall_s) std::fprintf(stderr, " %.3f", x);
  std::fprintf(stderr, "\n  set-up p10/p50/p90: %.4f %.4f %.4f\n",
               quantile(m.setup_s, 0.1), quantile(m.setup_s, 0.5),
               quantile(m.setup_s, 0.9));

  if (a.trace) {
    search::Scenario traced = sc;
    traced.factory = timed_factory(sc.factory);

    collect();
    const std::int64_t t = now_ns();
    const SearchRun tr = run_search(w, traced);
    m.traced_wall_s = seconds_since(t);
    m.search_profile = collect();
    checks.op(tr.json == first_json,
              "traced search returned a different SearchResult");
    check_stats(w, tr, checks);

    if (w.jobs > 1) {
      const SearchRun tr1 = run_search(w, traced, 1);
      const Profile p1 = collect();
      checks.op(tr1.json == first_json,
                "traced --jobs 1 search returned a different SearchResult");
      check_stats(w, tr1, checks);
      m.handler_inflation =
          static_cast<double>(m.search_profile[Layer::kHandler].self_ns) /
          static_cast<double>(p1[Layer::kHandler].self_ns);
    }

    m.replay = replay_branches(w, traced, m.result, kReplaySamples);
    const ReplayResult& rp = m.replay;
    checks.attempted += rp.samples;
    checks.op(rp.mismatches.empty(),
              "the replay did not reproduce the reported windows");
    for (std::size_t i = 0; i < rp.mismatches.size() && i < 10; ++i)
      std::fprintf(stderr, "perfbench: replay mismatch: %s\n",
                   rp.mismatches[i].c_str());
  }

  const std::vector<Metric> metrics =
      a.trace ? per_layer_metrics(m) : end_to_end_metrics(m);
  const bool correct = checks.failed == 0;
  for (const Metric& x : metrics)
    std::fprintf(stderr, "  %-28s %.6g %s\n", x.name.c_str(), x.value,
                 x.unit.c_str());
  std::printf("%s\n", result_json(correct, checks.attempted, checks.failed,
                                  metrics)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    usage();
    return 2;
  }
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    usage();
    return 2;
  }
  try {
    return run(*w, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
