// BranchExecutor: the mechanics shared by all attack-finding algorithms —
// injection-point discovery, execution branching from snapshots, window
// measurement, and search-cost accounting.
//
// Determinism is load-bearing here: restoring a snapshot and running with no
// action armed reproduces the original execution exactly, so the baseline and
// every malicious branch diverge only by the armed action (paper §III-B/C).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "proxy/proxy.h"
#include "search/report.h"
#include "search/scenario.h"

namespace turret::search {

class Journal;
struct BranchProvenance;
class ProvenanceStore;
class RemoteBackend;

/// Thrown by run_branches (and the algorithms above it) when a cooperative
/// cancellation was requested — turret-run's SIGINT/SIGTERM handlers call
/// request_cancel(), the search unwinds at the next batch boundary, and the
/// journal is left whole-batch consistent (a resumed search reproduces the
/// uninterrupted result byte-for-byte from any such prefix).
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("search cancelled") {}
};

/// Request cooperative cancellation of any in-progress search in this
/// process. Async-signal-safe (one relaxed atomic store).
void request_cancel() noexcept;
bool cancel_requested() noexcept;
/// Clears a pending cancellation request (tests run several searches in one
/// process).
void clear_cancel() noexcept;

/// Raised when branch futures fail outside the containment layer (which
/// catches everything a branch attempt can throw, so in practice: broken
/// promises, allocation failure in the error path). Aggregates every error
/// in the batch instead of dropping all but the first.
class AggregateBranchError : public std::runtime_error {
 public:
  explicit AggregateBranchError(const std::vector<std::string>& errors);
  std::size_t count() const { return count_; }

 private:
  std::size_t count_;
};

/// State of one metric window in a branch.
struct WindowPerf {
  double value = 0;
  std::uint64_t samples = 0;
  /// Authenticator verification failures honest guests counted inside the
  /// window (kTamperMetric). Zero in scenarios without a signed adapter.
  std::uint64_t tampers = 0;
  /// Bucket-quantile lower bounds of the metric's value series inside the
  /// window (common/metrics log2 histograms; metric units). Filled whenever
  /// the metric names a value series — mean and quantile metrics — so
  /// reports can show the baseline-vs-attack percentile table even when the
  /// damage metric is the mean. false for count metrics (rates have no
  /// per-sample distribution).
  bool has_percentiles = false;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double p999 = 0;
};

/// Measure one observation window [t0, t1) of `tb` under `metric`: the damage
/// value (rate / mean / quantile lower bound), the sample count, tamper
/// totals, and — for value metrics — the percentile fields. Shared by
/// BranchExecutor and brute force's benign pass so every algorithm measures
/// identically.
WindowPerf measure_window(const MetricSpec& metric, const runtime::Testbed& tb,
                          Time t0, Time t1);

/// Relative damage of `perf` vs `base` under the metric's direction;
/// positive = worse. Windows with no samples under a lower-is-better metric
/// count as total damage (nothing completed at all).
double compute_damage(const MetricSpec& metric, const WindowPerf& base,
                      const WindowPerf& perf);

/// A testbed + proxy pair for one scenario, wired together (proxy installed
/// on the emulator ingress path).
///
/// A world feeds the trace counters for emulator events, proxy traffic and
/// copy-on-write faults without a per-event hook: at teardown — an
/// exception's unwind included, so a failed attempt counts what it ran — it
/// adds the growth of its emulator, proxy and image stats since entry, the
/// moment make_scenario_world returned.
struct ScenarioWorld {
  std::unique_ptr<runtime::Testbed> testbed;
  std::unique_ptr<proxy::MaliciousProxy> proxy;

  ScenarioWorld() = default;
  ScenarioWorld(ScenarioWorld&&) = default;
  ScenarioWorld& operator=(ScenarioWorld&&) = delete;
  ~ScenarioWorld();

  struct Stats {
    netem::EmulatorStats emu;
    proxy::ProxyStats proxy;
    std::uint64_t cow_faults = 0;
  };
  /// The stats at entry. Unset until make_scenario_world returns, so a world
  /// whose snapshot load threw executed nothing and adds nothing.
  std::optional<Stats> entry;
};

/// A world for `sc`: fresh, or restored from `snap` when one is given. The
/// snapshot carries the stats of the run that saved it, so counting starts
/// after the load; a snapshot loaded into the world later would be counted
/// as the world's own execution.
ScenarioWorld make_scenario_world(
    const Scenario& sc, const runtime::DecodedSnapshot* snap = nullptr);

/// What BranchExecutor's containment primitive returns: the attempt count
/// plus either the attempt's value or the last error.
template <typename T>
struct Contained {
  std::optional<T> value;
  std::uint32_t attempts = 0;
  std::string error;     ///< the last failure; empty on success
  bool runaway = false;  ///< the last failure was an event-budget abort
};

class BranchExecutor {
 public:
  /// Where branches start. A point with a snapshot is reached by loading it;
  /// a *cold* point (null snapshot) is brute force's: every branch from it is
  /// a fresh run from t = 0 with the action armed, measured from `time`.
  struct InjectionPoint {
    wire::TypeTag tag = 0;
    std::string message_name;
    Time time = 0;  ///< virtual time of the snapshot (just after first send)
    std::shared_ptr<const Bytes> snapshot;
    /// Cow mode: pins the store pages `snapshot` references, so
    /// evict_unreferenced_pages() between injection points can never evict a
    /// page a live (not yet decoded) blob still needs. Null in other modes.
    std::shared_ptr<const std::vector<vm::PageHandle>> pages;
  };

  struct BranchOutcome {
    std::vector<WindowPerf> windows;
    std::uint32_t new_crashes = 0;  ///< benign guests crashed inside the branch
    /// Observability state harvested before the branch world was torn down;
    /// null unless a ProvenanceStore is attached and the branch ran live
    /// (journal replays execute nothing, so they carry no provenance).
    std::shared_ptr<const BranchProvenance> provenance;
  };

  /// One contained branch execution: the outcome when any attempt succeeded,
  /// otherwise a quarantine record (attempts made, last error).
  struct BranchResult {
    std::optional<BranchOutcome> outcome;
    std::uint32_t attempts = 1;
    std::string error;  ///< last failure; empty on success

    /// Branch-equivalence pruning (DESIGN.md §5f): true when this branch
    /// skipped execution and inherited `equivalent_to`'s result because its
    /// fleet-state fingerprint matched the prune table. Cost charges are
    /// identical either way.
    bool pruned = false;
    std::string equivalent_to;  ///< canonical branch_key when pruned
    /// Fleet-state fingerprint of a canonical (live, prune-enabled) branch;
    /// journaled so a resumed search re-seeds the prune table and replays
    /// the original run's prune decisions exactly.
    std::optional<Digest128> fingerprint;
    /// Virtual cost run_branches charged for this entry, every attempt
    /// included (not journaled: it is recomputed on replay).
    Duration charged = 0;

    bool ok() const { return outcome.has_value(); }
  };

  explicit BranchExecutor(const Scenario& sc);

  /// Attach a write-ahead journal (nullptr detaches). Completed branch
  /// results are appended after each merge; results already recorded replay
  /// from the journal instead of executing, with identical cost charges, so
  /// a resumed search reproduces the uninterrupted SearchResult exactly.
  void set_journal(Journal* journal) { journal_ = journal; }

  /// Attach a provenance store (nullptr detaches). While attached, every live
  /// branch execution harvests its audit log, packet capture, and raw metric
  /// series; harvested branches are added to the store on the single-threaded
  /// merge path under their branch_key.
  void set_provenance(ProvenanceStore* store) { provenance_ = store; }

  /// Attach a remote execution backend (nullptr detaches). While attached and
  /// available(), run_branches dispatches the branches that execute to it
  /// instead of the local pool; entries the backend could not place (no
  /// workers reachable, every worker died) degrade to local execution.
  /// Remote dispatch is skipped while a provenance store is attached
  /// (provenance is harvested in-process) and for cold points (no snapshot
  /// to ship); both run on the local pool with identical results.
  void set_remote(RemoteBackend* remote) { remote_ = remote; }

  /// One contained branch execution, *without* cost charging, journaling,
  /// or failure recording — the worker side of the distributed runtime. The
  /// coordinator merges the returned BranchResult through run_branches'
  /// normal bookkeeping, so a branch executed remotely charges and records
  /// exactly like a local one.
  BranchResult execute_unit(const InjectionPoint& ip,
                            const proxy::MaliciousAction* action, int windows);

  /// Identity of one (injection point, action, windows) branch — the key the
  /// journal and the provenance store share. A cold point keeps brute
  /// force's "bf|<tag>|base" / "bf|<tag>|<action>" form.
  static std::string branch_key(const InjectionPoint& ip,
                                const proxy::MaliciousAction* action,
                                int windows);

  /// branch_key of the baseline branch most recently cached for `tag`
  /// (empty if none) — reports pair an attack with the baseline actually
  /// compared against.
  std::string last_baseline_key(wire::TypeTag tag) const;

  /// Benign pass: runs the system for sc.duration and snapshots at the first
  /// send (>= warmup) of each message type by a malicious node. Points come
  /// back in first-send order. Idempotent (cached).
  const std::vector<InjectionPoint>& discover();

  /// Branch from `ip`, arm `action` (nullptr = baseline branch) and run
  /// `windows` observation windows of sc.window each. Charges load + runtime.
  /// Throws after retry exhaustion (use try_run_branch to contain instead).
  BranchOutcome run_branch(const InjectionPoint& ip,
                           const proxy::MaliciousAction* action, int windows);

  /// Contained form of run_branch: a failing branch is retried (fresh
  /// ScenarioWorld each attempt, every attempt charged) up to
  /// sc.fault.max_retries times; after exhaustion the result is quarantined —
  /// recorded in failed() — and returned instead of thrown.
  BranchResult try_run_branch(const InjectionPoint& ip,
                              const proxy::MaliciousAction* action,
                              int windows);

  /// Batch form of try_run_branch: one branch per entry of `actions`
  /// (nullptr = baseline branch), as one pipeline — journal replay →
  /// snapshot decode → prune claims → one dispatch (remote backend, else
  /// the local pool of default_jobs() threads) → follower inheritance →
  /// merge. Results come back in input order and are byte-identical to
  /// running the same branches serially, regardless of worker count: each
  /// branch is an isolated ScenarioWorld restored from one shared immutable
  /// decoded snapshot (or started cold), retries happen where the branch
  /// runs, and the merge charges, records and journals in input order.
  std::vector<BranchResult> run_branches(
      const InjectionPoint& ip,
      const std::vector<const proxy::MaliciousAction*>& actions, int windows);

  /// Benign branch performance over the first window from `ip` (cached).
  /// Throws after retry exhaustion.
  WindowPerf baseline(const InjectionPoint& ip);

  /// Contained baseline: nullopt when the baseline branch was quarantined
  /// (recorded in failed(); the injection point is unusable this search).
  std::optional<WindowPerf> try_baseline(const InjectionPoint& ip);

  /// Advance from `ip` (which must have a snapshot) by `dur`, benign or under
  /// `action`, and snapshot, yielding the next injection point for the same
  /// message type. Contained: nullopt after retry exhaustion (the failure is
  /// recorded in failed()).
  std::optional<InjectionPoint> try_continue_branch(
      const InjectionPoint& ip, const proxy::MaliciousAction* action,
      Duration dur);

  /// One charge to the search cost. Snapshot overhead follows from `loads`
  /// and `saves` at the scenario's branch_cost.
  struct Charge {
    trace::Counter phase;  ///< the *_ns counter `execution` is mirrored into
    Duration execution = 0;
    std::uint64_t branches = 0;
    std::uint64_t retries = 0;
    std::uint64_t loads = 0;
    std::uint64_t saves = 0;
  };

  /// The one writer of SearchCost and of the trace counters that mirror it
  /// (branch_attempts, branch_retries, snapshot_loads, snapshot_saves and
  /// the phase counters), so the two agree by construction. Returns the
  /// virtual cost charged.
  Duration charge(const Charge& c);

  const SearchCost& cost() const { return cost_; }
  const Scenario& scenario() const { return sc_; }

  /// Quarantined branches in execution order (retry exhaustion or runaway
  /// abort). Algorithms copy this into SearchResult::failed.
  const std::vector<FailedBranch>& failed() const { return failed_; }

  /// Whole-run benign performance over [warmup, warmup + window).
  WindowPerf benign_performance();

  /// Drop every page the shared PageStore holds that no snapshot pins —
  /// algorithms call this between injection points once a point's branches
  /// are done, so a long search's store occupancy tracks the live working
  /// set instead of growing monotonically. No-op outside cow mode. Updates
  /// the pagestore_pages / pagestore_bytes / pagestore_evicted counters.
  void evict_unreferenced_pages();

 private:
  WindowPerf measure(const runtime::Testbed& tb, Time t0, Time t1) const;

  /// The containment primitive (DESIGN.md §5b) and the search layer's one
  /// retry loop: runs `attempt` until it returns, retrying transient
  /// failures up to sc.fault.max_retries times with wall-clock backoff
  /// seeded by (scenario seed, `at`). A deterministic failure
  /// (runtime::classify_failure) ends it on the first hit. Returns a
  /// Contained of attempt's result type.
  template <typename Fn>
  auto contain(Time at, Fn&& attempt) const;

  /// A fresh world for a branch: `snap` loaded and `action` armed, or — for
  /// a cold point (`snap` null) — `action` armed and the fleet started at
  /// t = 0, so the action transforms the point's message when the run
  /// reaches it.
  ScenarioWorld enter(const runtime::DecodedSnapshot* snap,
                      const proxy::MaliciousAction* action) const;

  /// One branch execution without cost accounting (the merge charges, so
  /// live, replayed and remote branches account identically). `snap` is
  /// null for a cold point.
  BranchOutcome execute_branch(const runtime::DecodedSnapshot* snap,
                               const InjectionPoint& ip,
                               const proxy::MaliciousAction* action,
                               int windows) const;

  /// execute_branch under contain(), with its per-branch trace span.
  BranchResult attempt_branch(const runtime::DecodedSnapshot* snap,
                              const InjectionPoint& ip,
                              const proxy::MaliciousAction* action,
                              int windows) const;

  /// The branch cost model: charges `attempts` executions of a
  /// `windows`-window branch from `ip` and returns the virtual cost charged.
  /// Per attempt, a branch from a snapshot pays one load plus its windows; a
  /// cold point has nothing to load and re-runs from t = 0 through its
  /// windows.
  Duration charge_branch(const InjectionPoint& ip, std::uint32_t attempts,
                         int windows);

  /// The dispatch stage: executes the entries `run` (indices into `actions`)
  /// into `out` — on the remote backend when set_remote's conditions hold,
  /// and on the local fan-out for whatever the backend did not place.
  void dispatch(const runtime::DecodedSnapshot* snap, const InjectionPoint& ip,
                const std::vector<const proxy::MaliciousAction*>& actions,
                const std::vector<std::size_t>& run, int windows,
                std::vector<BranchResult>& out);

  /// Prune key of one branch: enter the branch world, run to
  /// ip.time + prune.settle, and fold the fleet fingerprint with the proxy's
  /// canonical residual and the observation context. nullopt when the settle
  /// run itself fails (the branch then executes live, deterministically).
  /// Thread-safe; touches no executor state except counters.
  std::optional<Digest128> fingerprint_branch(
      const runtime::DecodedSnapshot* snap, const InjectionPoint& ip,
      const proxy::MaliciousAction* action, int windows) const;

  void record_failure(const InjectionPoint& ip,
                      const proxy::MaliciousAction* action,
                      const BranchResult& r);

  /// Decoded form of ip.snapshot, parsed once per distinct blob and shared by
  /// every branch from that injection point.
  const runtime::DecodedSnapshot& decoded(const InjectionPoint& ip);

  /// decoded() under contain(). A cold point succeeds with a null snapshot
  /// and no attempts: it has nothing to decode.
  Contained<const runtime::DecodedSnapshot*> try_decoded(
      const InjectionPoint& ip);

  const Scenario& sc_;
  std::optional<std::vector<InjectionPoint>> points_;
  struct BaselineEntry {
    WindowPerf perf;
    std::string key;  ///< branch_key of the cached baseline branch
  };
  std::map<wire::TypeTag, BaselineEntry> baseline_cache_;
  std::optional<WindowPerf> benign_perf_;
  SearchCost cost_;

  struct DecodedEntry {
    std::shared_ptr<const Bytes> blob;  ///< byte-compare settles hash ties
    std::unique_ptr<const runtime::DecodedSnapshot> snapshot;
  };
  /// Keyed by blob content (Digest128 of the bytes), not blob address:
  /// continuation chains and journal replays that re-materialize an identical
  /// blob at a new address still hit. Each key holds a collision chain
  /// settled by byte comparison as the backstop; chain growth is surfaced in
  /// the hash_collisions / hash_chain_max counters.
  std::map<Digest128, std::vector<DecodedEntry>> decoded_cache_;
  std::size_t decoded_cache_entries_ = 0;

  /// Branch-equivalence prune table (DESIGN.md §5f): fingerprint → canonical
  /// branch. Claims, results and lookups all happen on run_branches' calling
  /// thread in input order, which is what makes the canonical choice
  /// identical at any --jobs.
  struct PruneEntry {
    std::string canonical_key;
    /// The canonical result without provenance; unset between the claim and
    /// the canonical branch's execution.
    std::optional<BranchResult> result;
  };
  std::map<Digest128, PruneEntry> prune_table_;
  /// Local fan-out pool, sized to default_jobs() and rebuilt when it changes.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<FailedBranch> failed_;
  Journal* journal_ = nullptr;
  ProvenanceStore* provenance_ = nullptr;
  RemoteBackend* remote_ = nullptr;
};

/// A backend that executes branch batches outside this process (the
/// coordinator side lives in src/dist). The executor stays in charge of
/// journal replay, merge order, cost accounting, and quarantine; the backend
/// only turns (snapshot, action, windows) into BranchResults somewhere else.
class RemoteBackend {
 public:
  virtual ~RemoteBackend() = default;

  /// Is any worker reachable right now? Checked once per batch; false
  /// degrades the whole batch to the local pool.
  virtual bool available() = 0;

  /// Execute the `live` subset of a batch remotely. Returns one entry per
  /// element of `live`, in the same order: a BranchResult when the branch ran
  /// (or was quarantined) remotely, nullopt when the unit could not be placed
  /// — the executor runs those locally. `snap` is the decoded form of
  /// ip.snapshot (already cached by the executor), from which cow page deltas
  /// are extracted for shipping.
  virtual std::vector<std::optional<BranchExecutor::BranchResult>> run_remote(
      const BranchExecutor::InjectionPoint& ip,
      const std::vector<const proxy::MaliciousAction*>& actions,
      const std::vector<std::size_t>& live, int windows,
      const runtime::DecodedSnapshot& snap) = 0;
};

/// Journal payload encoding for one BranchResult (`charged` is not encoded).
Bytes encode_branch_result(const BranchExecutor::BranchResult& r);
BranchExecutor::BranchResult decode_branch_result(BytesView payload);

}  // namespace turret::search
