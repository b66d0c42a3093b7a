// Deterministic tracing + counters for the platform's own runtime.
//
// A search run is thousands of branch executions fanned across workers; when
// weighted greedy stops early or a branch is quarantined, the question is
// always "which snapshot loads, proxy actions and emulator events led here?".
// This layer answers it without giving up the platform's determinism:
//
//   * Span / instant(): Chrome trace_event records (one 'X' span per branch,
//     per algorithm scan, per snapshot decode; instants for weight bumps and
//     journal replays), collected in a thread-safe bounded buffer and emitted
//     as chrome://tracing JSON.
//   * Counters: one relaxed atomic per row of the counter table
//     (TURRET_COUNTERS). The rows that mirror SearchCost are charged by the
//     same call that charges it, so telemetry totals provably agree with the
//     result they describe (tests assert equality under injected faults).
//
// Two clocks:
//   * kVirtual (deterministic, the default under tests): events are stamped
//     with emulator virtual Time supplied by the instrumentation site, the
//     worker id is normalized to 0, and the serializer sorts events by
//     content — so two runs with the same seed produce byte-identical traces
//     regardless of --jobs, making traces themselves assertable artifacts.
//   * kWall: events are stamped with wall-clock microseconds since enable()
//     and carry real thread_pool worker ids, for human profiling.
//
// Disarmed cost is one relaxed atomic load per site pass (the same discipline
// as common/fault); nothing else in the platform changes while tracing is
// off.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace turret::serial {
class Writer;
class Reader;
}  // namespace turret::serial

namespace turret::trace {

enum class Clock : std::uint8_t {
  kWall,     ///< wall-clock timeline, real worker ids (profiling)
  kVirtual,  ///< emulator virtual timeline, byte-identical across runs/jobs
};

std::string_view clock_name(Clock c);

/// Where a counter is reported: the deterministic "stats" block, the
/// "phase_ns" object nested in it, or the shape-dependent "fleet" block.
enum class Block : std::uint8_t { kStats, kPhase, kFleet };

/// The counter table: one row per counter, in report, trace and wire order.
///
///   X(field, JSON key, block, execution site)
///
/// `field` names the CounterSnapshot member, the Counter enumerator and the
/// Chrome trace sample; the JSON key is what the stats or fleet block prints.
/// An execution-site counter is bumped where a branch executes, so a
/// distributed coordinator merges it from worker deltas and the fleet block
/// breaks it down per worker. Adding a counter is adding one row here; every
/// list of counters (snapshot, reset, wire format, JSON, trace samples,
/// worker merge) is generated from it or loops over it.
#define TURRET_COUNTERS(X)                                                  \
  /* Mirrors of SearchCost::branches and ::retries, SearchResult::failed */ \
  X(branch_attempts, "branch_attempts", kStats, false)                      \
  X(branch_retries, "retries", kStats, false)                               \
  X(branch_quarantines, "quarantines", kStats, false)                       \
  /* Branches ended by the event budget */                                  \
  X(budget_aborts, "budget_aborts", kStats, true)                           \
  /* DecodedSnapshot cache */                                               \
  X(decode_hits, "decode_hits", kStats, false)                              \
  X(decode_misses, "decode_misses", kStats, false)                          \
  /* Emulator events dispatched, stranded reassemblies reaped, messages  */ \
  /* the proxy saw from malicious senders and transformed: harvested     */ \
  /* from each world's own stats when it is torn down                    */ \
  X(emu_events, "emu_events", kStats, true)                                 \
  X(reassembly_evicted, "reassembly_evicted", kStats, true)                 \
  X(proxy_observed, "proxy_observed", kStats, true)                         \
  X(proxy_injected, "proxy_injected", kStats, true)                         \
  /* Branches served from the journal */                                    \
  X(journal_replays, "journal_replays", kStats, false)                      \
  /* Mirrors of SearchCost::saves and ::loads; snapshot blob bytes */       \
  X(snapshot_saves, "snapshot_saves", kStats, false)                        \
  X(snapshot_loads, "snapshot_loads", kStats, false)                        \
  X(snapshot_bytes_written, "snapshot_bytes_written", kStats, false)        \
  /* Branches served by the memo instead of executing */                    \
  X(branches_pruned, "branches_pruned", kStats, false)                      \
  /* Decode-cache digest matches settled by bytes; longest chain (gauge) */ \
  X(hash_collisions, "hash_collisions", kStats, false)                      \
  X(hash_chain_max, "hash_chain_max", kStats, false)                        \
  /* Distributed runtime: units granted and merged, leases reissued,     */ \
  /* connections lost, heartbeats, branches degraded to local, frame     */ \
  /* bytes on sockets                                                    */ \
  X(dist_units_sent, "dist_units_sent", kFleet, false)                      \
  X(dist_units_merged, "dist_units_merged", kFleet, false)                  \
  X(dist_reassignments, "dist_reassignments", kFleet, false)                \
  X(dist_worker_deaths, "dist_worker_deaths", kFleet, false)                \
  X(dist_heartbeats, "dist_heartbeats", kFleet, false)                      \
  X(dist_local_fallbacks, "dist_local_fallbacks", kFleet, false)            \
  X(dist_bytes_sent, "dist_bytes_sent", kFleet, true)                       \
  X(dist_bytes_recv, "dist_bytes_recv", kFleet, true)                       \
  /* Virtual time charged per search phase (SearchCost::execution) */       \
  X(discover_ns, "discover", kPhase, false)                                 \
  X(evaluate_ns, "evaluate", kPhase, false)                                 \
  X(classify_ns, "classify", kPhase, false)                                 \
  X(advance_ns, "advance", kPhase, false)                                   \
  /* Spans lost to a full trace buffer */                                   \
  X(dropped_events, "dropped_trace_events", kStats, false)

/// One enumerator per row, in table order.
enum class Counter : std::uint8_t {
#define TURRET_COUNTER_ENUM(field, key, block, site) field,
  TURRET_COUNTERS(TURRET_COUNTER_ENUM)
#undef TURRET_COUNTER_ENUM
};

/// Plain-value copy of the counter set at one moment: one field per row.
struct CounterSnapshot {
#define TURRET_COUNTER_FIELD(field, key, block, site) std::uint64_t field = 0;
  TURRET_COUNTERS(TURRET_COUNTER_FIELD)
#undef TURRET_COUNTER_FIELD

  std::uint64_t execution_ns() const {
    return discover_ns + evaluate_ns + classify_ns + advance_ns;
  }
};

/// A table row as data, for the loops that copy, merge and print counters.
struct CounterRow {
  Counter id;
  const char* name;  ///< the field name; also the Chrome trace sample name
  const char* key;   ///< the JSON key
  Block block;
  bool execution_site;
  std::uint64_t CounterSnapshot::*value;
};

inline constexpr CounterRow kCounterRows[] = {
#define TURRET_COUNTER_ROW(field, key, block, site) \
  {Counter::field, #field, key, Block::block, site, &CounterSnapshot::field},
    TURRET_COUNTERS(TURRET_COUNTER_ROW)
#undef TURRET_COUNTER_ROW
};

/// The process-wide counter set: one relaxed atomic per row. Every counter
/// is a sum of per-branch contributions (or a gauge), so totals are
/// order-independent and identical across worker counts (the property the
/// determinism tests assert).
class Counters {
 public:
  void add(Counter c, std::uint64_t n) {
    at(c).fetch_add(n, std::memory_order_relaxed);
  }
  void raise(Counter c, std::uint64_t v);  ///< set to max(current, v)
  std::uint64_t get(Counter c) const {
    return at(c).load(std::memory_order_relaxed);
  }

  CounterSnapshot snapshot() const;
  void reset();

 private:
  std::atomic<std::uint64_t>& at(Counter c) {
    return v_[static_cast<std::size_t>(c)];
  }
  const std::atomic<std::uint64_t>& at(Counter c) const {
    return v_[static_cast<std::size_t>(c)];
  }

  std::array<std::atomic<std::uint64_t>, std::size(kCounterRows)> v_{};
};

/// Serialize a snapshot in table order (u32 row count + one u64 per row) —
/// the wire shape of the dist runtime's per-result telemetry delta.
void save_counters(const CounterSnapshot& s, serial::Writer& w);
CounterSnapshot load_counters(serial::Reader& r);

/// Field-wise `now - prev`, saturating at zero (gauges may shrink between
/// snapshots).
CounterSnapshot counter_delta(const CounterSnapshot& now,
                              const CounterSnapshot& prev);

/// Field-wise `into += d`.
void counter_accumulate(CounterSnapshot& into, const CounterSnapshot& d);

/// One collected event (Chrome trace_event shape).
struct TraceEvent {
  std::string name;
  std::string args;  ///< pre-rendered JSON members ("\"k\":1,..."), may be empty
  const char* category = "";
  char phase = 'X';  ///< 'X' complete, 'i' instant
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;   ///< microseconds (virtual or since enable())
  std::int64_t dur_us = 0;  ///< 'X' only

  bool operator==(const TraceEvent&) const = default;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// The singleton (leaked, like FaultInjector: no static-destruction races).
  static Tracer& instance();

  /// Arm tracing on `clock`, clearing the event buffer and every counter.
  void enable(Clock clock, std::size_t capacity = kDefaultCapacity);
  void disable();  ///< disarm; collected events/counters remain readable
  bool enabled() const;
  Clock clock() const;

  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }

  /// Append one event (thread-safe). Dropped (and counted) when the buffer
  /// is full or tracing is disabled.
  void record(TraceEvent ev);

  /// Snapshot of the collected events, in serialization order: virtual-clock
  /// events sort by content so the order is a pure function of the event
  /// multiset; wall-clock events sort by (ts, tid).
  std::vector<TraceEvent> events() const;

  /// Render chrome://tracing JSON ("traceEvents" array plus final counter
  /// values as 'C' samples). Deterministic in virtual mode.
  std::string chrome_json() const;

  /// Write chrome_json() to `path`. Throws std::runtime_error on I/O error.
  void write_chrome_json(const std::string& path) const;

  /// Wall microseconds since enable() (wall-mode timestamps).
  std::int64_t wall_now_us() const;

 private:
  Tracer() = default;

  mutable std::mutex mu_;
  std::vector<TraceEvent> buffer_;
  std::size_t capacity_ = kDefaultCapacity;
  std::atomic<Clock> clock_{Clock::kVirtual};
  std::int64_t enable_anchor_ns_ = 0;  ///< steady_clock at enable()
  Counters counters_;
};

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// The hook compiled into platform code: one relaxed load while disarmed.
inline bool active() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// The process-wide counter set (reads; instrumentation sites use the calls
/// below).
inline Counters& counters() { return Tracer::instance().counters(); }

/// Add `n` to counter `c`: the one call an instrumentation site makes. While
/// tracing is disarmed it costs the relaxed load in active().
inline void add(Counter c, std::uint64_t n = 1) {
  if (active()) counters().add(c, n);
}

/// Raise gauge `c` to at least `v` (a high-water mark).
inline void raise_gauge(Counter c, std::uint64_t v) {
  if (active()) counters().raise(c, v);
}

/// RAII span. No-op unless tracing is active at construction. In wall mode
/// the span covers construction→destruction; in virtual mode it covers the
/// interval given via at()/lasted() (so identical work stamps identically
/// whether it ran inline or on a worker).
class Span {
 public:
  Span(const char* category, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  Span& at(Time virtual_ts);          ///< virtual-mode start (ns)
  Span& lasted(Duration virtual_dur); ///< virtual-mode duration (ns)
  Span& arg(const char* key, std::string_view value);
  Span& arg(const char* key, std::int64_t value);
  Span& arg(const char* key, std::uint64_t value);
  Span& arg(const char* key, double value);

 private:
  bool active_ = false;
  Clock clock_ = Clock::kVirtual;
  const char* category_ = "";
  const char* name_ = "";
  std::int64_t wall_start_us_ = 0;
  Time vts_ = 0;
  Duration vdur_ = 0;
  std::string args_;
};

/// One-shot instant event ('i'). `virtual_ts` stamps it in virtual mode; wall
/// mode uses the wall clock at the call. `args` is pre-rendered JSON members.
void instant(const char* category, const char* name, Time virtual_ts,
             std::string args = {});

/// Args helper: builds the pre-rendered JSON member list Span/instant expect.
class Args {
 public:
  Args& add(const char* key, std::string_view value);
  Args& add(const char* key, std::int64_t value);
  Args& add(const char* key, std::uint64_t value);
  Args& add(const char* key, double value);
  std::string take() { return std::move(s_); }

 private:
  std::string s_;
};

/// JSON string escaping shared by the serializer and args builders.
std::string json_escape(std::string_view s);

/// RAII arming for tests: enables on construction, disables on destruction.
class ScopedTrace {
 public:
  explicit ScopedTrace(Clock clock = Clock::kVirtual,
                       std::size_t capacity = Tracer::kDefaultCapacity) {
    Tracer::instance().enable(clock, capacity);
  }
  ~ScopedTrace() { Tracer::instance().disable(); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
};

}  // namespace turret::trace
