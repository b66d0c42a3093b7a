// Aggregate search telemetry: the trace counters folded into the stats block
// appended to turret-run --json reports.
//
// Everything in the block is derived from trace::Counters; its keys and their
// order come from the counter table (TURRET_COUNTERS). The counters that
// mirror SearchCost are charged by the call that charges it, so the block's
// retry and quarantine totals provably equal the SearchResult they accompany
// (test_fault_tolerance asserts this under injected faults). Derived rates
// use emulator *virtual* time, so the block is byte-identical across --jobs
// values and repeated same-seed runs; wall-clock duration is reported only
// in wall-clock trace mode, where determinism is already off the table.
#pragma once

#include <string>
#include <vector>

#include "common/trace.h"

namespace turret::search {

/// Accumulated telemetry of one distributed worker: the coordinator sums the
/// CounterSnapshot deltas each delivered result carries (DESIGN.md §5i).
struct WorkerTelemetry {
  std::uint64_t worker = 0;  ///< coordinator connection id
  std::uint64_t units = 0;   ///< results merged from this worker
  trace::CounterSnapshot counters;  ///< summed per-result deltas
};

struct TelemetrySnapshot {
  trace::CounterSnapshot counters;
  trace::Clock clock = trace::Clock::kVirtual;
  std::int64_t wall_us = 0;  ///< elapsed wall time; reported only in kWall

  /// Fleet shape (filled by turret-run from the coordinator; zero/empty for
  /// in-process runs). Kept out of the stats block: the core counters are
  /// byte-identical at any worker count once worker execution deltas are
  /// merged, while worker identity is inherently shape-dependent — so it
  /// lives in the sibling "fleet" block instead.
  std::uint64_t workers = 0;          ///< workers that completed a handshake
  std::vector<WorkerTelemetry> per_worker;  ///< by connection id, ascending

  /// Branch attempts per emulated-execution second (0 when nothing ran).
  double branches_per_sec() const;
  /// DecodedSnapshot cache hit rate in [0,1] (0 when the cache was untouched).
  double decode_hit_rate() const;

  /// The stats block: one JSON object, counter keys in table order (the
  /// phase rows nested as "phase_ns"). Deterministic
  /// core only — same-seed blocks are byte-identical across --jobs, prune
  /// settings, and 0..N forked workers (worker execution deltas merge into
  /// the same totals an in-process run bumps directly).
  std::string to_json() const;

  /// The fleet block: worker count, the fleet rows (dist transport counters,
  /// worker-side bytes included), and the per_worker[] breakdown of units
  /// and execution-site rows. Shape-dependent by construction, hence a
  /// separate block.
  std::string fleet_json() const;
};

/// Capture the current tracer state as a telemetry snapshot (fleet fields
/// left empty; the caller fills them from the coordinator when one exists).
TelemetrySnapshot capture_telemetry();

/// `result_json` with `,"stats":<core>,"fleet":<fleet>` spliced in before the
/// final '}'. `result_json` must be a JSON object (as produced by
/// SearchResult::to_json).
std::string append_stats(const std::string& result_json,
                         const TelemetrySnapshot& t);

}  // namespace turret::search
