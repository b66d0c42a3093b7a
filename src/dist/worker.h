// Worker side of the distributed search runtime (DESIGN.md §5g).
//
// A worker is a loop around one BranchExecutor: connect to the coordinator,
// prove compatibility (Hello: protocol version + scenario fingerprint),
// then execute WorkMsg units and stream back ResultMsgs while a heartbeat
// thread keeps the lease alive. Workers are deliberately stateless between
// units — everything a branch needs arrives in the unit (or, for the
// snapshot blob, is cached per connection), so the coordinator can reassign
// any unit to any worker and get byte-identical results.
//
// Connection loss is normal life, not an error: the worker reconnects with
// exponential backoff + jitter (common/backoff) and gives up only after
// max_reconnects consecutive failures. run_worker is callable on a plain
// std::thread (thread mode) so the protocol and determinism tests can run
// coordinator + workers in one process under TSan; process mode (fork /
// --connect) is the production shape.
#pragma once

#include <cstdint>
#include <string>

#include "common/backoff.h"
#include "search/scenario.h"

namespace turret::dist {

struct WorkerOptions {
  /// Seed of the reconnect-jitter stream (and reported in Hello).
  std::uint64_t seed = 1;
  /// Reconnect backoff. Wall-clock only.
  BackoffPolicy reconnect{.initial_ns = 50'000'000,    // 50ms
                          .max_ns = 2'000'000'000,     // 2s
                          .multiplier = 2.0,
                          .jitter = 0.2};
  /// Consecutive connection failures before run_worker gives up.
  int max_reconnects = 5;
  /// Heartbeat period (wall clock).
  std::int64_t heartbeat_interval_ns = 100'000'000;  // 100ms
  /// What the dist-worker-exit fault site does: true (process mode) _exit(9)s
  /// the process — equivalent to a SIGKILL mid-unit; false (thread mode)
  /// abruptly drops the connection and returns kWorkerDied, so in-process
  /// tests can simulate death without killing the test runner.
  bool exit_process_on_fault = true;
  /// Fault plan to arm in this worker (self-spawned children arm their own
  /// injector after fork). Empty = leave the current plan untouched.
  std::string faults;
  /// Ship a trace-counter delta with each result so the coordinator can fold
  /// this worker's execution activity into the global tracer. Enable ONLY in
  /// processes with their own tracer (forked children, --connect workers):
  /// thread-mode workers share the coordinator's counters and bump them
  /// directly, so shipping a delta there would double-count.
  bool report_telemetry = false;
};

/// run_worker exit codes (also the process exit status in --connect mode).
inline constexpr int kWorkerClean = 0;        ///< coordinator sent Shutdown
inline constexpr int kWorkerUnreachable = 1;  ///< reconnects exhausted
inline constexpr int kWorkerDied = 3;  ///< dist-worker-exit in thread mode

/// Serve branches for `sc` from the coordinator at host:port until a clean
/// shutdown or reconnect exhaustion. The scenario must be the same one the
/// coordinator searches (verified via scenario_fingerprint in the
/// handshake).
int run_worker(const search::Scenario& sc, const std::string& host,
               std::uint16_t port, const WorkerOptions& opt = {});

}  // namespace turret::dist
