// Coordinator side of the distributed search runtime (DESIGN.md §5g).
//
// The Coordinator is a search::RemoteBackend: BranchExecutor hands it one
// batch of live branches at a time and it returns merged BranchResults in
// input order. Internally it is a single-threaded poll() event loop over a
// listening socket plus one connection per worker:
//
//   * Lease-based assignment — each worker holds at most one unit; a unit is
//     either pending, leased, done, or abandoned.
//   * Heartbeat supervision — a worker that neither heartbeats nor delivers
//     within heartbeat_timeout loses its connection and its lease.
//   * Deterministic reassignment — a dead worker's unit goes back to pending
//     and re-executes elsewhere; the platform's determinism makes the re-run
//     byte-identical, so worker death never changes the SearchResult. After
//     max_lease_retries reassignments the unit is abandoned with a poison
//     BranchResult, which the executor quarantines through the ordinary
//     FailedBranch path.
//   * Graceful degradation — units that could not be placed (no workers, all
//     workers died) come back as nullopt and the executor runs them locally.
//
// The snapshot blob travels once per (connection, injection point).
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/protocol.h"
#include "dist/worker.h"
#include "search/executor.h"
#include "search/telemetry.h"

namespace turret::dist {

struct CoordinatorOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  /// Reassignments a unit survives before it is abandoned (poisoned into the
  /// quarantine path). turret-run maps --max-retries here so one knob governs
  /// both local retry and distributed reassignment budgets.
  int max_lease_retries = 2;
  /// Silence (no heartbeat, no result) after which a leased worker is
  /// presumed dead. Outright death (EOF/RST) is detected immediately; the
  /// timeout only matters for hangs.
  std::int64_t heartbeat_timeout_ns = 2'000'000'000;  // 2s
  /// Event-loop poll granularity.
  int poll_interval_ms = 20;
};

class Coordinator final : public search::RemoteBackend {
 public:
  Coordinator(const search::Scenario& sc, const CoordinatorOptions& opt = {});
  ~Coordinator() override;
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  std::uint16_t port() const;

  /// Fork `n` self-spawned workers running run_worker against this
  /// coordinator with the (already built) scenario — fork is what lets the
  /// guest factory cross the process boundary. Children _exit with the
  /// run_worker code. Returns the child pids (also retained for reaping).
  std::vector<pid_t> spawn_workers(unsigned n, const WorkerOptions& wopt = {});

  const std::vector<pid_t>& worker_pids() const { return pids_; }

  /// Pump the event loop until `n` workers completed their handshake or
  /// `timeout_ns` of wall clock elapsed. Returns whether n was reached.
  bool wait_for_workers(std::size_t n, std::int64_t timeout_ns);

  /// Handshaked workers right now (drains pending accepts/hellos first).
  std::size_t connected_workers();

  /// Journal work-unit grants (audit records under the "dist|grant" key;
  /// completions are the branch-result records the executor itself appends).
  void set_journal(search::Journal* journal) { journal_ = journal; }

  /// Handshaked workers currently alive. Atomic gauge readable from any
  /// thread (the --progress reporter polls it while the search runs), unlike
  /// connected_workers() which pumps the event loop and is owner-thread only.
  std::uint64_t alive_workers() const {
    return alive_workers_.load(std::memory_order_relaxed);
  }

  /// Fold fleet telemetry into `t`: workers = distinct connections that ever
  /// completed a handshake, per_worker = accumulated result-delta counters by
  /// connection id (ascending). Owner-thread only; call after the search.
  void fill_fleet(search::TelemetrySnapshot& t) const;

  /// Send Shutdown to every worker, close everything, reap spawned children.
  /// Also runs from the destructor.
  void shutdown();

  // search::RemoteBackend
  bool available() override;
  std::vector<std::optional<search::BranchExecutor::BranchResult>> run_remote(
      const search::BranchExecutor::InjectionPoint& ip,
      const std::vector<const proxy::MaliciousAction*>& actions,
      const std::vector<std::size_t>& live, int windows) override;

 private:
  struct Conn;
  struct Batch;

  void accept_pending();
  /// One event-loop turn: poll (listener + workers) for up to `timeout_ms`,
  /// accept, read, dispatch frames, enforce deadlines.
  void pump(int timeout_ms, Batch* batch);
  void handle_frame(Conn& conn, const Frame& frame, Batch* batch);
  /// Close a connection and return its lease (if any) to pending — or
  /// abandon the unit once its reassignment budget is spent.
  void mark_dead(Conn& conn, Batch* batch, const char* why);
  void assign_units(Batch& batch);
  bool send_unit(Conn& conn, Batch& batch, std::size_t unit_index);
  /// Fold one accepted result's telemetry delta into the global tracer
  /// (execution-site counters only) and this worker's per_worker record.
  void merge_telemetry(std::uint64_t conn_id,
                       const trace::CounterSnapshot& delta);

  const search::Scenario& sc_;
  CoordinatorOptions opt_;
  std::unique_ptr<Listener> listener_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t next_unit_id_ = 1;
  std::uint64_t spawned_ = 0;
  std::vector<pid_t> pids_;
  search::Journal* journal_ = nullptr;
  std::uint64_t workers_seen_ = 0;  ///< handshakes ever completed
  std::atomic<std::uint64_t> alive_workers_{0};
  /// Accumulated telemetry deltas per connection id, merged at each accepted
  /// (non-stale) result carrying a v2 telemetry frame.
  std::map<std::uint64_t, search::WorkerTelemetry> worker_stats_;
};

}  // namespace turret::dist
