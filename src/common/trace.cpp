#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <tuple>

#include "common/thread_pool.h"
#include "serial/serial.h"

namespace turret::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
}

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void append_i64(std::string& s, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  s += buf;
}

void append_u64(std::string& s, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  s += buf;
}

void append_double(std::string& s, double v) {
  // %.17g round-trips doubles exactly, matching report.cpp's convention.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  s += buf;
}

void append_member_key(std::string& s, const char* key) {
  if (!s.empty()) s += ',';
  s += '"';
  s += json_escape(key);
  s += "\":";
}

// Content tuple used for virtual-mode sorting: the order of two runs' event
// lists must match whenever their event multisets match, so every field
// participates.
auto content_key(const TraceEvent& e) {
  return std::tie(e.ts_us, e.dur_us, e.phase, e.tid) /* cheap fields first */;
}

bool content_less(const TraceEvent& a, const TraceEvent& b) {
  if (content_key(a) != content_key(b)) return content_key(a) < content_key(b);
  const int cat = std::string_view(a.category).compare(b.category);
  if (cat != 0) return cat < 0;
  if (a.name != b.name) return a.name < b.name;
  return a.args < b.args;
}

bool wall_less(const TraceEvent& a, const TraceEvent& b) {
  if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
  if (a.tid != b.tid) return a.tid < b.tid;
  return content_less(a, b);
}

void append_event_json(std::string& out, const TraceEvent& e) {
  out += "{\"name\":\"";
  out += json_escape(e.name);
  out += "\",\"cat\":\"";
  out += json_escape(e.category);
  out += "\",\"ph\":\"";
  out += e.phase;
  out += "\",\"pid\":1,\"tid\":";
  append_u64(out, e.tid);
  out += ",\"ts\":";
  append_i64(out, e.ts_us);
  if (e.phase == 'X') {
    out += ",\"dur\":";
    append_i64(out, e.dur_us);
  }
  if (e.phase == 'i') out += ",\"s\":\"g\"";
  if (!e.args.empty()) {
    out += ",\"args\":{";
    out += e.args;
    out += '}';
  }
  out += '}';
}

void append_counter_json(std::string& out, const char* name,
                         std::uint64_t value) {
  out += "{\"name\":\"";
  out += name;
  out += "\",\"cat\":\"counter\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":0,"
         "\"args\":{\"value\":";
  append_u64(out, value);
  out += "}}";
}

}  // namespace

std::string_view clock_name(Clock c) {
  return c == Clock::kWall ? "wall" : "virtual";
}

CounterSnapshot Counters::snapshot() const {
  CounterSnapshot s;
  for (const CounterRow& row : kCounterRows) s.*row.value = get(row.id);
  return s;
}

void Counters::reset() {
  for (auto& v : v_) v.store(0, std::memory_order_relaxed);
}

void Counters::raise(Counter c, std::uint64_t v) {
  std::atomic<std::uint64_t>& a = at(c);
  std::uint64_t prev = a.load(std::memory_order_relaxed);
  while (prev < v &&
         !a.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

void save_counters(const CounterSnapshot& s, serial::Writer& w) {
  w.u32(static_cast<std::uint32_t>(std::size(kCounterRows)));
  for (const CounterRow& row : kCounterRows) w.u64(s.*row.value);
}

CounterSnapshot load_counters(serial::Reader& r) {
  const std::uint32_t n = r.u32();
  if (n != std::size(kCounterRows)) {
    throw serial::SerialError("counter snapshot field-count mismatch: got " +
                              std::to_string(n));
  }
  CounterSnapshot s;
  for (const CounterRow& row : kCounterRows) s.*row.value = r.u64();
  return s;
}

CounterSnapshot counter_delta(const CounterSnapshot& now,
                              const CounterSnapshot& prev) {
  CounterSnapshot d;
  for (const CounterRow& row : kCounterRows) {
    const std::uint64_t a = now.*row.value;
    const std::uint64_t b = prev.*row.value;
    d.*row.value = a >= b ? a - b : 0;
  }
  return d;
}

void counter_accumulate(CounterSnapshot& into, const CounterSnapshot& d) {
  for (const CounterRow& row : kCounterRows) into.*row.value += d.*row.value;
}

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer();  // leaked: see FaultInjector
  return *tracer;
}

void Tracer::enable(Clock clock, std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  buffer_.clear();
  capacity_ = capacity > 0 ? capacity : kDefaultCapacity;
  buffer_.reserve(std::min<std::size_t>(capacity_, 4096));
  clock_.store(clock, std::memory_order_relaxed);
  enable_anchor_ns_ = steady_now_ns();
  counters_.reset();
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

bool Tracer::enabled() const {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

Clock Tracer::clock() const { return clock_.load(std::memory_order_relaxed); }

void Tracer::record(TraceEvent ev) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (buffer_.size() >= capacity_) {
    // Drop-newest: under overflow which events survive depends on arrival
    // order, so a nonzero dropped_events voids the determinism guarantee;
    // telemetry surfaces it and tests size their buffers to never drop.
    counters_.add(Counter::dropped_events, 1);
    return;
  }
  buffer_.push_back(std::move(ev));
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  Clock c;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = buffer_;
    c = clock_.load(std::memory_order_relaxed);
  }
  std::stable_sort(out.begin(), out.end(),
                   c == Clock::kVirtual ? content_less : wall_less);
  return out;
}

std::string Tracer::chrome_json() const {
  const std::vector<TraceEvent> evs = events();
  const CounterSnapshot c = counters_.snapshot();
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const TraceEvent& e : evs) {
    if (!first) out += ",\n";
    first = false;
    append_event_json(out, e);
  }
  // Final counter values as 'C' samples, in table order so the tail of the
  // file is as deterministic as the span list above it.
  for (const CounterRow& row : kCounterRows) {
    if (!first) out += ",\n";
    first = false;
    append_counter_json(out, row.name, c.*row.value);
  }
  out += "\n],\"otherData\":{\"clock\":\"";
  out += clock_name(clock());
  out += "\"}}\n";
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("trace: cannot open " + path);
  const std::string json = chrome_json();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.flush();
  if (!out) throw std::runtime_error("trace: short write to " + path);
}

std::int64_t Tracer::wall_now_us() const {
  return (steady_now_ns() - enable_anchor_ns_) / 1000;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

Span::Span(const char* category, const char* name)
    : active_(active()), category_(category), name_(name) {
  if (!active_) return;
  clock_ = Tracer::instance().clock();
  if (clock_ == Clock::kWall) wall_start_us_ = Tracer::instance().wall_now_us();
}

Span::~Span() {
  if (!active_) return;
  TraceEvent ev;
  ev.name = name_;
  ev.category = category_;
  ev.phase = 'X';
  ev.args = std::move(args_);
  if (clock_ == Clock::kVirtual) {
    ev.tid = 0;  // normalized: virtual traces are worker-placement-free
    ev.ts_us = vts_ / kMicrosecond;
    ev.dur_us = vdur_ / kMicrosecond;
  } else {
    ev.tid = current_worker_id();
    ev.ts_us = wall_start_us_;
    ev.dur_us = Tracer::instance().wall_now_us() - wall_start_us_;
  }
  Tracer::instance().record(std::move(ev));
}

Span& Span::at(Time virtual_ts) {
  vts_ = virtual_ts;
  return *this;
}

Span& Span::lasted(Duration virtual_dur) {
  vdur_ = virtual_dur;
  return *this;
}

Span& Span::arg(const char* key, std::string_view value) {
  if (!active_) return *this;
  append_member_key(args_, key);
  args_ += '"';
  args_ += json_escape(value);
  args_ += '"';
  return *this;
}

Span& Span::arg(const char* key, std::int64_t value) {
  if (!active_) return *this;
  append_member_key(args_, key);
  append_i64(args_, value);
  return *this;
}

Span& Span::arg(const char* key, std::uint64_t value) {
  if (!active_) return *this;
  append_member_key(args_, key);
  append_u64(args_, value);
  return *this;
}

Span& Span::arg(const char* key, double value) {
  if (!active_) return *this;
  append_member_key(args_, key);
  append_double(args_, value);
  return *this;
}

void instant(const char* category, const char* name, Time virtual_ts,
             std::string args) {
  if (!active()) return;
  Tracer& tracer = Tracer::instance();
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.phase = 'i';
  ev.args = std::move(args);
  if (tracer.clock() == Clock::kVirtual) {
    ev.tid = 0;
    ev.ts_us = virtual_ts / kMicrosecond;
  } else {
    ev.tid = current_worker_id();
    ev.ts_us = tracer.wall_now_us();
  }
  tracer.record(std::move(ev));
}

Args& Args::add(const char* key, std::string_view value) {
  append_member_key(s_, key);
  s_ += '"';
  s_ += json_escape(value);
  s_ += '"';
  return *this;
}

Args& Args::add(const char* key, std::int64_t value) {
  append_member_key(s_, key);
  append_i64(s_, value);
  return *this;
}

Args& Args::add(const char* key, std::uint64_t value) {
  append_member_key(s_, key);
  append_u64(s_, value);
  return *this;
}

Args& Args::add(const char* key, double value) {
  append_member_key(s_, key);
  append_double(s_, value);
  return *this;
}

}  // namespace turret::trace
