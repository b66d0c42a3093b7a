// Attack provenance: joining the flight recorder, the proxy audit log, and
// the metrics collector into per-attack artifacts.
//
// When the scenario enables network capture, every live branch execution
// harvests a BranchProvenance — the proxy decisions, the delivery timeline,
// and the raw metric samples over its observation windows — keyed by the
// branch's identity (BranchExecutor::branch_key, the same string the journal
// uses). The generators below join these with a SearchResult into a JSON
// block, a rendered Markdown report, and pcapng capture artifacts. All
// output is deterministic: same seed, any --jobs, byte-identical bytes.
//
// Journal-replayed branches execute nothing, so they carry no provenance;
// reports mark such attacks as "provenance unavailable" rather than guess.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "search/executor.h"

namespace turret::search {

/// Everything observed inside one branch execution, harvested right before
/// the branch's ScenarioWorld is torn down.
struct BranchProvenance {
  std::string key;          ///< BranchExecutor::branch_key identity
  Time injection_time = 0;  ///< start of the observation windows
  int windows = 0;
  Duration window = 0;
  std::string metric;
  std::vector<proxy::AuditRecord> audit;     ///< decisions at/after injection
  std::vector<netem::PacketRecord> packets;  ///< delivery timeline
  std::vector<runtime::MetricPoint> series;  ///< raw samples over the windows
  netem::CaptureSummary capture;             ///< ring totals at harvest
  std::vector<netem::LinkCounters> links;    ///< nodes*nodes, row-major by src
  std::uint32_t nodes = 0;
};

/// Keyed store of harvested branches. Filled on the executor's single-threaded
/// merge path (and brute force's merge loop), read by the generators.
class ProvenanceStore {
 public:
  void add(std::shared_ptr<const BranchProvenance> p);
  /// A memo hit harvested nothing, but it shares its branch_key with the
  /// execution it repeats, so find() returns that execution's harvest.
  std::shared_ptr<const BranchProvenance> find(std::string_view key) const;
  std::size_t size() const { return map_.size(); }

 private:
  std::map<std::string, std::shared_ptr<const BranchProvenance>, std::less<>>
      map_;
};

/// Harvest a world's observability state over [t0, t1): audit records from
/// t0 on, packet records and metric samples inside the interval.
BranchProvenance harvest_provenance(const ScenarioWorld& w, const Scenario& sc,
                                    std::string key, Time t0, Time t1,
                                    int windows);

/// `{"provenance":[...]}` — one entry per attack in `res`, carrying the
/// mutated messages with field-level diffs, the proxy decision log, the
/// delivery timeline, per-link counters, and a binned baseline-vs-attack
/// metric series over [injection, injection + w).
std::string provenance_json(const Scenario& sc, const SearchResult& res,
                            const ProvenanceStore& store);

/// Splice the provenance array into an existing JSON report object (the
/// same shape append_stats uses for the telemetry block).
std::string append_provenance(const std::string& result_json,
                              const Scenario& sc, const SearchResult& res,
                              const ProvenanceStore& store);

/// Rendered Markdown report: per-attack sections with the mutated fields
/// (original -> forged), proxy decisions, delivery timeline, and the
/// baseline-vs-attack series table.
std::string provenance_markdown(const Scenario& sc, const SearchResult& res,
                                const ProvenanceStore& store);

/// Write capture artifacts into `dir` (created if needed): provenance.json,
/// discover.pcapng (the discovery run's packet ring, when present), and one
/// attack-<n>.pcapng per attack with harvested provenance.
void write_capture_artifacts(const std::string& dir, const Scenario& sc,
                             const SearchResult& res,
                             const ProvenanceStore& store);

}  // namespace turret::search
