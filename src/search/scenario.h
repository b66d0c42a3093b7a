// A search scenario: everything Turret needs from the user (paper §III-A).
//
// The paper's claim is that Turret requires only (1) the external message
// protocol description, (2) the ability to run the system in its deployment
// environment, and (3) an observable application performance metric. A
// Scenario is exactly that: a guest factory + testbed config (the deployment),
// a wire schema (the message protocol), the malicious node set, and a metric
// specification, plus the search parameters Δ and w.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "common/backoff.h"
#include "proxy/enumerate.h"
#include "runtime/testbed.h"
#include "wire/schema.h"
#include "wire/signed_adapter.h"

namespace turret::search {

/// Metric name under which honest guests count authenticator verification
/// failures (see wire/signed_adapter.h). The executor folds its per-window
/// totals into WindowPerf.tampers and reports surface it as TamperDetected.
inline constexpr const char* kTamperMetric = "tamper_detected";

struct MetricSpec {
  std::string name = "updates";
  enum class Kind {
    kRate,      ///< events/sec of a count metric (throughput)
    kMean,      ///< mean of a value metric (latency)
    kQuantile,  ///< bucket-quantile lower bound of a value metric (tail)
  } kind = Kind::kRate;
  bool higher_is_better = true;
  /// kQuantile only: which quantile drives damage (0.5/0.95/0.99/0.999).
  /// Quantiles come from the deterministic log2-bucket histograms
  /// (common/metrics), so a quantile damage metric preserves byte-identical
  /// results across --jobs and worker counts.
  double quantile = 0.99;
};

/// Parse a turret-run --metric selector: a bare count-metric name ("updates",
/// rate, higher-is-better), "mean(latency_ms)" (mean of a value series,
/// lower-is-better), or "p50/p95/p99/p999(latency_ms)" (bucket-quantile
/// lower bound, lower-is-better). Returns nullopt on malformed input.
std::optional<MetricSpec> parse_metric_spec(std::string_view spec);

/// Canonical selector form of a MetricSpec ("p99(latency_ms)", "mean(x)",
/// bare name for rates) — used in reports and the dist scenario fingerprint.
std::string metric_spec_name(const MetricSpec& m);

/// Virtual-time cost charged per snapshot operation when accounting search
/// time, mirroring the real save/load costs the paper measures in Table II
/// (5 VMs, page-sharing-aware: save 3.44 s, load 0.038 s).
struct BranchCostModel {
  Duration save_cost = 3440 * kMillisecond;
  Duration load_cost = 38 * kMillisecond;
};

/// Containment policy for failures inside branch executions. A failing branch
/// is retried with a fresh ScenarioWorld up to max_retries times (each attempt
/// charged to SearchCost); after exhaustion the branch is quarantined — the
/// search records a FailedBranch and continues instead of aborting.
struct FaultTolerance {
  /// Extra attempts after the first failure (attempts = 1 + max_retries).
  int max_retries = 2;
  /// Emulator events a single branch may process before it is aborted as a
  /// runaway (BudgetExceededError → immediate quarantine; a deterministic
  /// platform would only reproduce the runaway on retry). 0 = unlimited.
  /// The default is orders of magnitude above any legitimate branch, so it
  /// only trips on unbounded zero-delay event loops.
  std::uint64_t max_branch_events = 100'000'000;
  /// Wall-clock pause between retry attempts (also between lease retries in
  /// the distributed runtime). Purely real-time: backoff never touches the
  /// virtual clock or SearchCost, so it cannot change a SearchResult.
  BackoffPolicy retry_backoff{.initial_ns = 1'000'000,  // 1ms
                              .max_ns = 50'000'000,     // 50ms
                              .multiplier = 2.0,
                              .jitter = 0.25};
};

/// Inert: nothing reads it, and the next benchmark change deletes it.
struct PruneOptions {
  bool enabled = false;
};

struct Scenario {
  std::string system_name;

  runtime::TestbedConfig testbed;
  runtime::GuestFactory factory;
  const wire::Schema* schema = nullptr;
  std::set<NodeId> malicious;

  /// Authenticated wire layer (DESIGN.md §5h): when set, the scenario's
  /// guests seal outgoing traffic with per-sender MACs over `signed` fields
  /// and the proxy rewrites lies inside the sealed envelope. shared_ptr so a
  /// scenario survives copying into forked distributed workers.
  std::shared_ptr<const wire::SignedAdapter> signed_adapter;

  MetricSpec metric;

  /// Ignore injection points before this time (system still ramping up).
  Duration warmup = 2 * kSecond;
  /// Length of the benign discovery run (injection points are first sends of
  /// each message type by a malicious node within this horizon).
  Duration duration = 20 * kSecond;
  /// Observation window w after an injection point (paper: 6 s, chosen to
  /// exceed the systems' 5 s recovery timers).
  Duration window = 6 * kSecond;
  /// Relative performance damage threshold Δ. 10% — small enough to catch
  /// the paper's mild Status attacks (≈17% damage), large enough that benign
  /// branch-to-branch differences (which are zero in a deterministic
  /// platform) can never qualify.
  double delta = 0.1;

  proxy::ActionConfig actions;
  BranchCostModel branch_cost;
  FaultTolerance fault;
  PruneOptions prune;
};

}  // namespace turret::search
