#include "search/telemetry.h"

#include <cinttypes>
#include <cstdio>

#include "common/check.h"

namespace turret::search {
namespace {

std::string u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// `"key":value` of one counter row.
std::string member(const trace::CounterRow& row,
                   const trace::CounterSnapshot& c) {
  return "\"" + std::string(row.key) + "\":" + u64(c.*row.value);
}

}  // namespace

double TelemetrySnapshot::branches_per_sec() const {
  const std::uint64_t exec_ns = counters.execution_ns();
  if (exec_ns == 0) return 0;
  return static_cast<double>(counters.branch_attempts) *
         (1e9 / static_cast<double>(exec_ns));
}

double TelemetrySnapshot::decode_hit_rate() const {
  const std::uint64_t touches = counters.decode_hits + counters.decode_misses;
  if (touches == 0) return 0;
  return static_cast<double>(counters.decode_hits) /
         static_cast<double>(touches);
}

std::string TelemetrySnapshot::to_json() const {
  std::string out = "{";
  out += "\"clock\":\"" + std::string(trace::clock_name(clock)) + "\"";
  out += ",\"branches_per_sec\":" + num(branches_per_sec());
  out += ",\"decode_hit_rate\":" + num(decode_hit_rate());
  // The phase rows are contiguous in the table; they print as one nested
  // "phase_ns" object at their place in the order.
  bool in_phase = false;
  for (const trace::CounterRow& row : trace::kCounterRows) {
    if (row.block == trace::Block::kFleet) continue;
    const bool phase = row.block == trace::Block::kPhase;
    if (in_phase && !phase) out += "}";
    out += phase && !in_phase ? ",\"phase_ns\":{" : ",";
    in_phase = phase;
    out += member(row, counters);
  }
  if (in_phase) out += "}";
  if (clock == trace::Clock::kWall) {
    // Wall duration is inherently run-dependent; keeping it out of virtual
    // mode preserves byte-identical stats blocks across runs and --jobs.
    out += ",\"wall_us\":" + u64(static_cast<std::uint64_t>(wall_us));
  }
  out += "}";
  return out;
}

std::string TelemetrySnapshot::fleet_json() const {
  std::string out = "{";
  out += "\"workers\":" + u64(workers);
  // The dist transport counters live here, not in the stats block: bytes and
  // unit flow depend on how many workers the fleet happens to have, so they
  // can never be byte-identical across 0..N workers the way the core is.
  for (const trace::CounterRow& row : trace::kCounterRows) {
    if (row.block == trace::Block::kFleet) out += "," + member(row, counters);
  }
  out += ",\"per_worker\":[";
  for (std::size_t i = 0; i < per_worker.size(); ++i) {
    const WorkerTelemetry& w = per_worker[i];
    if (i) out += ",";
    out += "{\"worker\":" + u64(w.worker);
    out += ",\"units\":" + u64(w.units);
    for (const trace::CounterRow& row : trace::kCounterRows) {
      if (row.execution_site) out += "," + member(row, w.counters);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

TelemetrySnapshot capture_telemetry() {
  const trace::Tracer& tracer = trace::Tracer::instance();
  TelemetrySnapshot t;
  t.counters = tracer.counters().snapshot();
  t.clock = tracer.clock();
  t.wall_us = tracer.wall_now_us();
  return t;
}

std::string append_stats(const std::string& result_json,
                         const TelemetrySnapshot& t) {
  TURRET_CHECK_MSG(!result_json.empty() && result_json.back() == '}',
                   "append_stats: result_json is not a JSON object");
  std::string out = result_json;
  out.pop_back();
  out += ",\"stats\":";
  out += t.to_json();
  out += ",\"fleet\":";
  out += t.fleet_json();
  out += "}";
  return out;
}

}  // namespace turret::search
