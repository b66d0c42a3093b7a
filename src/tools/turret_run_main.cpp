// turret-run: command-line front end for the attack-finding platform.
//
//   turret-run --system pbft [--algorithm weighted|greedy|brute]
//              [--malicious primary|backup] [--delta 0.1] [--window 6]
//              [--duration 20] [--no-verify] [--seed 42] [--list]
//
// Builds the named system's scenario, runs the chosen search algorithm, and
// prints the attack report. This is the binary a user who is not writing C++
// against the library would drive; systems registered here correspond to the
// format descriptions in formats/.
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>

#include "common/fault.h"
#include "dist/coordinator.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "search/algorithms.h"
#include "search/journal.h"
#include "search/provenance.h"
#include "search/telemetry.h"
#include "systems/registry.h"

namespace {

using namespace turret;

std::string system_names() {
  std::string names;
  for (const systems::SystemEntry& e : systems::system_registry()) {
    if (!names.empty()) names += " | ";
    names += e.name;
  }
  return names;
}

void usage() {
  std::fprintf(stderr,
               "usage: turret-run --system <name> [options]\n"
               "\n"
               "  --system <name>       %s\n",
               system_names().c_str());
  std::fprintf(stderr,
               "  --algorithm <name>    weighted (default) | greedy | brute\n"
               "  --malicious <role>    primary (default) | backup\n"
               "  --delta <frac>        damage threshold (default 0.1)\n"
               "  --metric <spec>       damage metric override: a rate metric\n"
               "                        by name (e.g. updates), mean(<name>),\n"
               "                        or a tail quantile p50|p95|p99|p999\n"
               "                        (<name>) of a value series — e.g.\n"
               "                        'p99(latency_ms)' flags attacks the\n"
               "                        mean would miss\n"
               "  --window <sec>        observation window w (default 6)\n"
               "  --duration <sec>      discovery horizon (default per system)\n"
               "  --seed <n>            scenario seed\n"
               "  --jobs <n>            worker threads for branch execution\n"
               "                        (default: $TURRET_JOBS, else hardware\n"
               "                        concurrency; 1 = serial)\n"
               "  --workers <n>         distributed search: fork n worker\n"
               "                        processes and shard branch batches\n"
               "                        across them; results are byte-\n"
               "                        identical to in-process at any n,\n"
               "                        worker crashes included (branches are\n"
               "                        reassigned). brute runs locally\n"
               "  --coordinator <port>  also accept external --connect workers\n"
               "                        on <port> (0 = ephemeral, printed at\n"
               "                        startup); combinable with --workers\n"
               "  --connect <h>:<p>     worker mode: execute branches for the\n"
               "                        coordinator at host:port until it\n"
               "                        shuts us down. Pass the same scenario\n"
               "                        flags as the coordinator (the\n"
               "                        handshake verifies the match)\n"
               "  --no-verify           disable signature verification (lying\n"
               "                        exploration, as in the paper)\n"
               "  --sign <on|off>       authenticated wire layer (default on):\n"
               "                        schemas with `signed` fields get a\n"
               "                        per-sender MAC; proxy lies on those\n"
               "                        fields surface as TamperDetected.\n"
               "                        off = strip the adapter (all fields\n"
               "                        silently mutable). No-op for systems\n"
               "                        without signed fields\n"
               "  --faults <spec>       arm fault injection sites; spec is a\n"
               "                        comma list of <site>:prob:<p>[:<seed>]\n"
               "                        or <site>:hit:<n>[x<span>] (also read\n"
               "                        from $TURRET_FAULTS)\n"
               "  --max-retries <n>     retry a failing branch n times before\n"
               "                        quarantining it (default 2)\n"
               "  --branch-budget <n>   emulator event budget per branch; a\n"
               "                        runaway branch aborts and is\n"
               "                        quarantined (default 100000000)\n"
               "  --journal <path>      write-ahead journal of branch outcomes\n"
               "  --resume              replay completed branches from the\n"
               "                        journal instead of re-executing them\n"
               "  --trace <path>        write a chrome://tracing JSON trace of\n"
               "                        the search (spans per branch and per\n"
               "                        algorithm phase, final counter values)\n"
               "  --trace-clock <mode>  virtual (default; deterministic: same\n"
               "                        seed => byte-identical trace, any\n"
               "                        --jobs) | wall (real timestamps and\n"
               "                        worker ids, for profiling)\n"
               "  --capture <dir>       enable the network flight recorder and\n"
               "                        write capture artifacts (provenance\n"
               "                        .json + pcapng files) into <dir>\n"
               "  --report <file>       enable capture and write a Markdown\n"
               "                        provenance report (mutated fields,\n"
               "                        proxy decisions, delivery timeline,\n"
               "                        baseline-vs-attack metric series)\n"
               "  --json                print the report as JSON (includes\n"
               "                        \"stats\" + \"fleet\" telemetry\n"
               "                        blocks; with --capture/--report also\n"
               "                        a \"provenance\" block)\n"
               "  --progress            stream a periodic progress line to\n"
               "                        stderr (branches done/pruned/\n"
               "                        quarantined, workers alive,\n"
               "                        branches/sec); purely observational —\n"
               "                        stdout artifacts are byte-unchanged\n"
               "  --list                list systems and exit\n");
}

/// `text` parsed whole as a T — no sign, space or suffix, and finite — or
/// nullopt. "500ms" is not 500.
template <typename T>
std::optional<T> parse_whole(const char* text) {
  const char* end = text + std::strlen(text);
  T v{};
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || ptr == text) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return std::nullopt;
  }
  return v;
}

/// The integer value of `flag`'s argument, in [lo, hi]; otherwise an error
/// and exit 2.
template <typename T>
T integer_arg(const std::string& flag, const char* text, T lo, T hi) {
  const std::optional<T> v = parse_whole<T>(text);
  if (!v || *v < lo || *v > hi) {
    std::fprintf(stderr,
                 "turret-run: %s wants an integer in [%s, %s], got '%s'\n",
                 flag.c_str(), std::to_string(lo).c_str(),
                 std::to_string(hi).c_str(), text);
    std::exit(2);
  }
  return *v;
}

/// The value of `flag`'s argument, a number in (0, hi]; otherwise an error
/// and exit 2.
double positive_arg(const std::string& flag, const char* text,
                    double hi = std::numeric_limits<double>::max()) {
  const std::optional<double> v = parse_whole<double>(text);
  if (!v || *v <= 0 || *v > hi) {
    const std::string bound =
        hi < std::numeric_limits<double>::max()
            ? " of at most " + std::to_string(static_cast<long long>(hi))
            : "";
    std::fprintf(stderr, "turret-run: %s wants a positive number%s, got '%s'\n",
                 flag.c_str(), bound.c_str(), text);
    std::exit(2);
  }
  return *v;
}

/// Longest --window or --duration, in seconds: a million virtual seconds
/// keeps every branch's end time far inside Time's range.
constexpr double kMaxSeconds = 1e6;

struct Options {
  std::string system;
  std::string algorithm = "weighted";
  bool malicious_primary = true;
  std::string metric;  ///< damage-metric spec override ("p99(latency_ms)")
  bool progress = false;
  double delta = -1;
  double window_sec = -1;
  double duration_sec = -1;
  std::uint64_t seed = 0;
  unsigned workers = 0;
  int coordinator_port = -1;  ///< >= 0: listen for external workers
  std::string connect;        ///< non-empty: run as a worker
  bool verify = true;
  bool sign = true;
  std::string faults;
  int max_retries = -1;
  std::uint64_t branch_budget = 0;
  std::string journal_path;
  bool resume = false;
  bool json = false;
  std::string capture_dir;
  std::string report_path;
  std::string trace_path;
  turret::trace::Clock trace_clock = turret::trace::Clock::kVirtual;
};

search::Scenario build_scenario(const Options& o) {
  const systems::SystemEntry* entry = systems::find_system(o.system);
  if (entry == nullptr) {
    std::fprintf(stderr, "turret-run: unknown system '%s' (have: %s)\n",
                 o.system.c_str(), system_names().c_str());
    std::exit(2);
  }
  systems::SystemBuildOptions opt;
  opt.malicious_primary = o.malicious_primary;
  opt.verify_signatures = o.verify;
  opt.sign = o.sign;
  opt.seed = o.seed;
  search::Scenario sc = entry->make(opt);
  if (!o.metric.empty()) {
    const std::optional<search::MetricSpec> m =
        search::parse_metric_spec(o.metric);
    if (!m) {
      std::fprintf(stderr,
                   "turret-run: bad --metric '%s' (want <name>, mean(<name>), "
                   "or p50|p95|p99|p999(<name>))\n",
                   o.metric.c_str());
      std::exit(2);
    }
    sc.metric = *m;
  }
  if (o.delta > 0) sc.delta = o.delta;
  if (o.window_sec > 0) sc.window = static_cast<Duration>(o.window_sec * kSecond);
  if (o.duration_sec > 0)
    sc.duration = static_cast<Duration>(o.duration_sec * kSecond);
  if (o.max_retries >= 0) sc.fault.max_retries = o.max_retries;
  if (o.branch_budget > 0) sc.fault.max_branch_events = o.branch_budget;
  return sc;
}

/// Background stderr progress line. Read-only over the trace counters plus
/// the coordinator's atomic alive-workers gauge, so it cannot perturb the
/// search or its deterministic artifacts (which all go to stdout / files).
class ProgressReporter {
 public:
  explicit ProgressReporter(const dist::Coordinator* coord) : coord_(coord) {
    start_ = std::chrono::steady_clock::now();
    thread_ = std::thread([this] { loop(); });
  }
  ~ProgressReporter() { stop(); }

  void stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    print_line();  // final totals
  }

 private:
  void loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1000));
      if (stop_.load(std::memory_order_relaxed)) break;
      print_line();
    }
  }

  void print_line() {
    const trace::CounterSnapshot c = trace::counters().snapshot();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const double rate =
        secs > 0 ? static_cast<double>(c.branch_attempts) / secs : 0;
    char buf[192];
    int n = std::snprintf(
        buf, sizeof(buf),
        "progress: %llu branches (%llu pruned, %llu quarantined)",
        static_cast<unsigned long long>(c.branch_attempts),
        static_cast<unsigned long long>(c.branches_pruned),
        static_cast<unsigned long long>(c.branch_quarantines));
    if (coord_ != nullptr && n > 0 && n < static_cast<int>(sizeof(buf))) {
      n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                         ", %llu workers alive",
                         static_cast<unsigned long long>(
                             coord_->alive_workers()));
    }
    if (n > 0 && n < static_cast<int>(sizeof(buf))) {
      std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                    ", %.1f branches/s", rate);
    }
    std::fprintf(stderr, "%s\n", buf);
  }

  const dist::Coordinator* coord_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "turret-run: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--system") {
      o.system = next();
    } else if (arg == "--algorithm") {
      o.algorithm = next();
    } else if (arg == "--metric") {
      o.metric = next();
    } else if (arg == "--progress") {
      o.progress = true;
    } else if (arg == "--malicious") {
      const std::string v = next();
      if (v == "primary" || v == "leader") {
        o.malicious_primary = true;
      } else if (v == "backup") {
        o.malicious_primary = false;
      } else {
        std::fprintf(stderr,
                     "turret-run: --malicious wants 'primary', 'leader' or "
                     "'backup'\n");
        return 2;
      }
    } else if (arg == "--delta") {
      o.delta = positive_arg(arg, next());
    } else if (arg == "--window") {
      o.window_sec = positive_arg(arg, next(), kMaxSeconds);
    } else if (arg == "--duration") {
      o.duration_sec = positive_arg(arg, next(), kMaxSeconds);
    } else if (arg == "--seed") {
      o.seed = integer_arg<std::uint64_t>(
          arg, next(), 0, std::numeric_limits<std::uint64_t>::max());
    } else if (arg == "--jobs") {
      set_default_jobs(integer_arg<unsigned>(arg, next(), 1, 1024));
    } else if (arg == "--workers") {
      o.workers = integer_arg<unsigned>(arg, next(), 1, 1024);
    } else if (arg == "--coordinator") {
      o.coordinator_port = integer_arg<int>(arg, next(), 0, 65535);
    } else if (arg == "--connect") {
      o.connect = next();
    } else if (arg == "--no-verify") {
      o.verify = false;
    } else if (arg == "--sign") {
      const std::string v = next();
      if (v == "on") {
        o.sign = true;
      } else if (v == "off") {
        o.sign = false;
      } else {
        std::fprintf(stderr, "turret-run: --sign wants 'on' or 'off'\n");
        return 2;
      }
    } else if (arg == "--faults") {
      o.faults = next();
    } else if (arg == "--max-retries") {
      o.max_retries = integer_arg<int>(arg, next(), 0, 1000);
    } else if (arg == "--branch-budget") {
      o.branch_budget = integer_arg<std::uint64_t>(
          arg, next(), 1, std::numeric_limits<std::uint64_t>::max());
    } else if (arg == "--journal") {
      o.journal_path = next();
    } else if (arg == "--resume") {
      o.resume = true;
    } else if (arg == "--trace") {
      o.trace_path = next();
    } else if (arg == "--trace-clock") {
      const std::string v = next();
      if (v == "wall") {
        o.trace_clock = trace::Clock::kWall;
      } else if (v == "virtual") {
        o.trace_clock = trace::Clock::kVirtual;
      } else {
        std::fprintf(stderr,
                     "turret-run: --trace-clock wants 'virtual' or 'wall'\n");
        return 2;
      }
    } else if (arg == "--capture") {
      o.capture_dir = next();
    } else if (arg == "--report") {
      o.report_path = next();
    } else if (arg == "--json") {
      o.json = true;
    } else if (arg == "--list") {
      for (const systems::SystemEntry& e : systems::system_registry())
        std::printf("%.*s%s\n", static_cast<int>(e.name.size()), e.name.data(),
                    e.signed_wire ? " (signed wire)" : "");
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "turret-run: unknown option '%s'\n", arg.c_str());
      usage();
      return 2;
    }
  }
  if (o.system.empty()) {
    usage();
    return 2;
  }

  if (o.resume && o.journal_path.empty()) {
    std::fprintf(stderr, "turret-run: --resume needs --journal <path>\n");
    return 2;
  }
  const bool distributed =
      o.workers > 0 || o.coordinator_port >= 0 || !o.connect.empty();
  if (!o.connect.empty() && (o.workers > 0 || o.coordinator_port >= 0)) {
    std::fprintf(stderr,
                 "turret-run: --connect (worker mode) excludes --workers and "
                 "--coordinator\n");
    return 2;
  }
  if (distributed && (!o.capture_dir.empty() || !o.report_path.empty())) {
    // Provenance harvest carries in-process pointers; BranchExecutor keeps
    // those batches local anyway, so distribution would buy nothing.
    std::fprintf(stderr,
                 "turret-run: --capture/--report need in-process execution; "
                 "drop --workers/--coordinator/--connect\n");
    return 2;
  }
  if (!o.faults.empty()) {
    try {
      fault::FaultInjector::instance().configure_from_spec(o.faults);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "turret-run: %s\n", e.what());
      return 2;
    }
  }

  if (!o.connect.empty()) {
    const std::size_t colon = o.connect.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == o.connect.size()) {
      std::fprintf(stderr, "turret-run: --connect wants <host>:<port>\n");
      return 2;
    }
    const std::string host = o.connect.substr(0, colon);
    const long port = std::strtol(o.connect.c_str() + colon + 1, nullptr, 10);
    if (port < 1 || port > 65535) {
      std::fprintf(stderr, "turret-run: --connect wants a port 1-65535\n");
      return 2;
    }
    const search::Scenario sc = build_scenario(o);
    dist::WorkerOptions wopt;
    wopt.seed = sc.testbed.seed;
    // A --connect worker is its own process with its own tracer: enable it
    // and ship counter deltas so the coordinator's fleet telemetry covers
    // this worker's execution activity.
    trace::Tracer::instance().enable(o.trace_clock);
    wopt.report_telemetry = true;
    return dist::run_worker(sc, host, static_cast<std::uint16_t>(port), wopt);
  }

  std::unique_ptr<search::Journal> journal;
  if (!o.journal_path.empty()) {
    try {
      journal = search::Journal::open(o.journal_path, o.resume);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "turret-run: %s\n", e.what());
      return 2;
    }
  }

  // Telemetry is wanted whenever the user asked for a trace file, a JSON
  // report (which carries the stats block), or live progress; otherwise
  // every site stays on its single disarmed branch.
  if (!o.trace_path.empty() || o.json || o.progress)
    trace::Tracer::instance().enable(o.trace_clock);

  search::Scenario sc = build_scenario(o);
  const bool want_provenance = !o.capture_dir.empty() || !o.report_path.empty();
  if (want_provenance) sc.testbed.net.capture.enabled = true;

  std::unique_ptr<dist::Coordinator> coord;
  if (o.workers > 0 || o.coordinator_port >= 0) {
    dist::CoordinatorOptions copt;
    if (o.coordinator_port >= 0)
      copt.port = static_cast<std::uint16_t>(o.coordinator_port);
    // One knob governs local retry and distributed reassignment budgets.
    copt.max_lease_retries = sc.fault.max_retries;
    try {
      coord = std::make_unique<dist::Coordinator>(sc, copt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "turret-run: %s\n", e.what());
      return 2;
    }
    coord->set_journal(journal.get());
    if (o.coordinator_port >= 0 && !o.json)
      std::printf("coordinator: listening on %s:%u\n", copt.host.c_str(),
                  coord->port());
    if (o.workers > 0) {
      dist::WorkerOptions wopt;
      wopt.seed = sc.testbed.seed;
      coord->spawn_workers(o.workers, wopt);
      if (!coord->wait_for_workers(o.workers, 10'000'000'000)) {
        std::fprintf(stderr,
                     "turret-run: only %zu of %u workers connected; "
                     "continuing (unplaced branches run locally)\n",
                     coord->connected_workers(), o.workers);
      }
    }
    if (o.algorithm == "brute" && !o.json)
      std::printf("note: brute force has no snapshots to ship; "
                  "it runs in the local pool\n");
  }

  // Graceful shutdown: first SIGINT/SIGTERM requests cooperative
  // cancellation; the search unwinds at the next batch boundary with the
  // journal whole-batch consistent, so --resume reproduces the uninterrupted
  // result exactly.
  std::signal(SIGINT, [](int) { search::request_cancel(); });
  std::signal(SIGTERM, [](int) { search::request_cancel(); });
  search::ProvenanceStore store;
  search::ProvenanceStore* store_ptr = want_provenance ? &store : nullptr;
  if (!o.json) {
    std::printf(
        "system=%s algorithm=%s malicious=%s delta=%.2f w=%s jobs=%u\n",
        sc.system_name.c_str(), o.algorithm.c_str(),
        o.malicious_primary ? "primary" : "backup", sc.delta,
        format_duration(sc.window).c_str(), default_jobs());
    if (journal && o.resume)
      std::printf("journal: resuming, %zu recorded branch outcomes\n",
                  journal->recorded());
  }

  std::unique_ptr<ProgressReporter> progress;
  if (o.progress) progress = std::make_unique<ProgressReporter>(coord.get());

  search::SearchResult res;
  try {
    if (o.algorithm == "weighted") {
      res = search::weighted_greedy_search(sc, {}, nullptr, journal.get(),
                                           store_ptr, coord.get());
    } else if (o.algorithm == "greedy") {
      search::GreedyOptions gopt;
      gopt.max_repetitions = 4;
      res = search::greedy_search(sc, gopt, journal.get(), store_ptr,
                                  coord.get());
    } else if (o.algorithm == "brute") {
      res = search::brute_force_search(sc, journal.get(), store_ptr);
    } else {
      std::fprintf(stderr, "turret-run: unknown algorithm '%s'\n",
                   o.algorithm.c_str());
      return 2;
    }
  } catch (const search::CancelledError&) {
    // Flush what the run produced so nothing is lost: workers get a clean
    // shutdown, the trace file is written, and the journal (already flushed
    // per append) is announced as the resume point.
    if (progress) progress->stop();
    if (coord) coord->shutdown();
    if (!o.trace_path.empty()) {
      try {
        trace::Tracer::instance().write_chrome_json(o.trace_path);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "turret-run: %s\n", e.what());
      }
    }
    if (journal != nullptr) {
      std::fprintf(stderr,
                   "turret-run: cancelled; journal '%s' holds %zu branch "
                   "outcomes — rerun with --resume to continue\n",
                   o.journal_path.c_str(),
                   journal->recorded() + journal->appended());
    } else {
      std::fprintf(stderr,
                   "turret-run: cancelled (no --journal, progress "
                   "discarded)\n");
    }
    return 130;
  }
  if (progress) progress->stop();
  if (coord) coord->shutdown();

  if (!o.trace_path.empty()) {
    try {
      trace::Tracer::instance().write_chrome_json(o.trace_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "turret-run: %s\n", e.what());
      return 2;
    }
  }

  if (!o.capture_dir.empty()) {
    try {
      search::write_capture_artifacts(o.capture_dir, sc, res, store);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "turret-run: %s\n", e.what());
      return 2;
    }
  }
  if (!o.report_path.empty()) {
    const std::string md = search::provenance_markdown(sc, res, store);
    std::FILE* f = std::fopen(o.report_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "turret-run: cannot write '%s'\n",
                   o.report_path.c_str());
      return 2;
    }
    std::fwrite(md.data(), 1, md.size(), f);
    std::fclose(f);
  }

  if (o.json) {
    search::TelemetrySnapshot stats = search::capture_telemetry();
    if (coord) coord->fill_fleet(stats);
    std::string out = res.to_json();
    if (want_provenance) out = search::append_provenance(out, sc, res, store);
    std::printf("%s\n", search::append_stats(out, stats).c_str());
  } else {
    std::printf("baseline: %.2f\n%s\n", res.baseline_performance,
                res.summary().c_str());
    if (journal)
      std::printf("journal: %zu replayed, %zu appended\n", journal->replayed(),
                  journal->appended());
  }
  return res.attacks.empty() ? 1 : 0;
}
